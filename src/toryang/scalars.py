"""Exact coefficient arithmetic: rationals, truncated Laurent series, and
univariate rational functions.

Scalars are either `fractions.Fraction` (exact rationals) or `TSeries`
(truncated Laurent series in one formal symbol with rational
coefficients; a series never holds a series).  Everything interoperates
through the usual arithmetic operators; there is no floating point
anywhere.

Rational functions have one form: a `RatFn` is its factors (constant,
zeros, poles), built by `from_factors`, and every reader works from them.
The series expansion (`ratfn_expand`) multiplies out the numerator and
denominator coefficient lists it needs; evaluation and the kept mode
tables (`RatFnModes`: power sums, log modes and modes) read the factors
themselves.

Integer kernels.  A value kept as a dict of integer numerators over one
denominator (a relation sweep's rows, vectors and collected terms in
`repbase`, an `MPoly`, a shift operator in `diffops`) is summed by one
kernel, `_int_sum`, which writes its parts over the lcm of their
denominators, and put in canonical form by one reducer, `_int_reduce`,
which drops the zero numerators and makes one gcd pass; no module has
another path.  Two paths stay apart on purpose: the plain-dict sum of the
tests' Fraction schoolbook (`repbase.vsum`), since an oracle must not
share the kernel it checks, and a series' positional numerator list,
below, whose own `_series` and `TSeries._plus` are the series bridge's
hot path.

A `TSeries` keeps its coefficients as integer numerators over one
denominator (`nums`, `den`, canonical as its class docstring says), and
every kernel reads and writes that form; none has another path.
Each result goes through `_series`, which cuts it at trunc, strips zeros at
both ends and reduces it by one gcd pass.  Sums write both numerator lists
over the lcm of the denominators; a rational factor or divisor scales the
numerators and the denominator; `TSeries.__mul__` convolves the numerator
lists over the window the product is known in; `TSeries.inv` runs the
inverse recurrence over powers of the leading numerator, and `series_exp`
the recurrence k b_k = sum_j j a_j b_(k-j) on the integers
(t-1)! d^k b_k; `RatFnModes` keeps the power sums of a RatFn's roots,
for each k one numerator over D^k, D the lcm of the roots' denominators
(int powers of the rational and one-term roots, integer lists for longer
series), and runs the exponential recurrence
on them over k! D^k, to give a RatFn's modes without expanding it.
Integer arithmetic is exact, so each result is the series a
coefficient-by-coefficient Fraction computation gives, with the same `val`
and `trunc`.  `coeffs` and `coeff(k)` build Fractions when read, so no
kernel reads them.  The public constructor takes ints and Fractions and
raises TypeError for anything else.  A rational times a series keeps its
truncation, as division by a rational does, so a rational zero factor gives
the zero series mod X^trunc; division by a rational zero raises
ZeroDivisionError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

__all__ = [
    "TSeries",
    "RatFn",
    "h_gen",
    "series_exp",
    "series_log",
    "series_sqrt",
    "expm1_over",
    "frac_sqrt",
    "is_zero_mod",
    "ratfn_expand",
    "RatFnModes",
    "ScalarDomainError",
    "ExpansionPoleError",
]


class ScalarDomainError(ValueError):
    """Raised when a series operation is applied outside its domain."""


class ExpansionPoleError(ValueError):
    """Raised when a rational function cannot be expanded in the requested direction."""


def _coefficient(x):
    """x if it is a rational (an int or a Fraction), else TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"coefficients are rationals, not {type(x).__name__}")


def _int_content(coeffs):
    """(numerators, d) with coeffs[i] == numerators[i] / d for rational
    coeffs, d the lcm of their denominators (1 when there are none)."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _convolve(a, b, n):
    """The first n coefficients of the product of the integer lists a and b."""
    la, lb = len(a), len(b)
    if la == 1 or lb == 1:
        # most products in the bridge have a monomial factor
        x, ys = (a[0], b) if la == 1 else (b[0], a)
        return [x * y for y in ys[:n]]
    rb = b[::-1]
    out = []
    for k in range(n):
        lo, hi = max(0, k - lb + 1), min(k, la - 1) + 1
        # rb[lb - 1 - j] == b[j], paired with a[k - j]
        out.append(sum(map(mul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out


def _lift(nums, base, scale):
    """[scale * nums[k] * base^(n-1-k)] for n = len(nums): the values
    scale * nums[k] / base^(k+1) written over base^n."""
    out, p = [], scale
    for c in reversed(nums):
        out.append(c * p)
        p *= base
    out.reverse()
    return out


class TSeries:
    """Truncated Laurent series  sum_{k=val}^{trunc-1} c_k X^k + O(X^trunc).

    The formal variable X is whatever the caller wants (the deformation
    symbol for scalar series, 1/z or z for expansions of functions of z).
    The coefficients are kept as integer numerators over one denominator,
    c_(val+i) = nums[i] / den, in canonical form: den > 0,
    gcd(den, *nums) == 1 and no zero numerator at either end; the zero
    series has val == trunc, nums == [] and den == 1.  `coeffs` is the list
    of Fractions, built when it is read.  The constructor takes ints and
    Fractions and raises TypeError for anything else, a TSeries included.
    """

    __slots__ = ("val", "nums", "den", "trunc")

    def __init__(self, val, coeffs, trunc):
        self._canon(val, *_int_content([_coefficient(c) for c in coeffs]), trunc)

    def _canon(self, val, nums, den, trunc):
        # canonical form: cut at trunc, strip zeros at both ends, then one
        # gcd pass that also makes den positive; the list is sliced, never
        # modified, so callers may pass a shared one
        lo, hi = 0, min(len(nums), trunc - val)
        while lo < hi and not nums[lo]:
            lo += 1
        while hi > lo and not nums[hi - 1]:
            hi -= 1
        if hi <= lo:
            self.val, self.nums, self.den = trunc, [], 1
        else:
            if lo or hi < len(nums):
                nums = nums[lo:hi]
            if den != 1:
                g = math.gcd(den, *nums)
                if den < 0:
                    g = -g
                if g != 1:
                    nums, den = [c // g for c in nums], den // g
            self.val, self.nums, self.den = val + lo, nums, den
        self.trunc = trunc

    # -- queries ---------------------------------------------------------
    @property
    def coeffs(self):
        """[c_val, c_(val+1), ...] as Fractions, a new list on every read."""
        den = self.den
        return [Fraction(c, den) for c in self.nums]

    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def coeff(self, k):
        """Coefficient of X^k (0 if outside the stored window; k must be < trunc)."""
        if k >= self.trunc:
            raise ScalarDomainError(f"coefficient X^{k} beyond truncation {self.trunc}")
        i = k - self.val
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, TSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return _series(0, [other.numerator], other.denominator, self.trunc)
        return None

    def _plus(self, o, sign):
        """self + sign * o, on the numerators over the lcm of the two
        denominators."""
        trunc = min(self.trunc, o.trunc)
        if not o.nums:
            return _series(self.val, self.nums, self.den, trunc)
        if not self.nums:
            return _series(o.val, o.nums if sign > 0 else [-c for c in o.nums], o.den, trunc)
        den = math.lcm(self.den, o.den)
        fa, fb = den // self.den, sign * (den // o.den)
        a = self.nums if fa == 1 else [fa * c for c in self.nums]
        b = o.nums if fb == 1 else [fb * c for c in o.nums]
        val = min(self.val, o.val)
        out = [0] * (max(self.val + len(a), o.val + len(b)) - val)
        i, j = self.val - val, o.val - val
        out[i:i + len(a)] = a
        out[j:j + len(b)] = map(add, out[j:j + len(b)], b)
        return _series(val, out, den, trunc)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.val, [-c for c in self.nums], self.den, self.trunc)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # an exact rational scales the known coefficients, as division
            # by it does: the precision stays X^trunc at any valuation, and
            # a zero factor gives the zero series mod X^trunc; a series is
            # never modified, so 1 gives the series itself (the sweep scales
            # each diagonal letter's series row by its coefficient, often 1)
            if other == 1:
                return self
            return _series(self.val, [other.numerator * c for c in self.nums],
                           self.den * other.denominator, self.trunc)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.nums or not o.nums:
            # product of zero with anything: precision of a zero mod X^t times
            # a unit of valuation v is zero mod X^(t+v)
            if not self.nums and not o.nums:
                t = min(self.trunc + o.trunc, max(self.trunc, o.trunc))
            elif not self.nums:
                t = self.trunc + o.val
            else:
                t = o.trunc + self.val
            return _series(t, [], 1, t)
        trunc = min(self.trunc + o.val, o.trunc + self.val)
        val = self.val + o.val
        n = min(len(self.nums) + len(o.nums) - 1, trunc - val)
        return _series(val, _convolve(self.nums[:n], o.nums[:n], n), self.den * o.den, trunc)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse, known mod X^(trunc-2v) at valuation v; a
        one-term series a/d X^v gives d/a X^(-v), as its recurrence does."""
        if not self.nums:
            raise ZeroDivisionError("inverse of zero series")
        an = self.nums
        a0 = an[0]
        if len(an) == 1:
            return _series(-self.val, [self.den], a0, self.trunc - 2 * self.val)
        n = self.trunc - self.val  # relative precision
        # c_j = A_j/d: the inverse's k-th coefficient is d B_k / A_0^(k+1)
        # with B_0 = 1, B_k = -sum_{j=1..k} A_j A_0^(j-1) B_(k-j), all
        # written over A_0^n
        weighted = [a * a0 ** j for j, a in enumerate(an[1:])]
        bn = [1]
        for k in range(1, n):
            m = min(k, len(weighted))
            bn.append(-sum(map(mul, weighted[:m], bn[k - m:][::-1])))
        return _series(-self.val, _lift(bn, a0, self.den), a0 ** n, self.trunc - 2 * self.val)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("series divided by zero")
            return _series(self.val, [other.denominator * c for c in self.nums],
                           self.den * other.numerator, self.trunc)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        r = TSeries(0, [1], self.trunc)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        raise TypeError("TSeries is unhashable (truncated equality)")

    def shift(self, k):
        """Multiply by X^k."""
        return _series(self.val + k, self.nums, self.den, self.trunc + k)

    def __repr__(self):
        if self.is_zero():
            return f"O(X^{self.trunc})"
        body = " + ".join(
            f"({c})*X^{self.val + i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"{body} + O(X^{self.trunc})"


_new = object.__new__


def _series(val, nums, den, trunc):
    """The TSeries sum_i nums[i]/den X^(val+i) + O(X^trunc), for integer
    numerators over a nonzero integer den of either sign, as every kernel
    builds its result; it is brought to canonical form.  The list is not
    modified and may be kept by the series."""
    s = _new(TSeries)
    s._canon(val, nums, den, trunc)
    return s


# -- constructors ---------------------------------------------------------

def h_gen(trunc, scale=1):
    """The series  scale * X  (used for specializations h = scale * X)."""
    return TSeries(1, [scale], trunc)


def is_zero_mod(x, k):
    """True iff the scalar x vanishes modulo X^k (rationals: x == 0)."""
    if isinstance(x, TSeries):
        if x.trunc < k:
            raise ScalarDomainError(
                f"cannot certify vanishing mod X^{k}: only known mod X^{x.trunc}"
            )
        return x.is_zero() or x.val >= k
    return x == 0


# -- transcendental-style operations (truncated, exact) -------------------

def series_exp(s):
    """exp of a series with positive valuation (zero constant term)."""
    if isinstance(s, (int, Fraction)):
        if s == 0:
            return Fraction(1)
        raise ScalarDomainError("series_exp needs zero constant term")
    if s.is_zero():
        return TSeries(0, [1], s.trunc)
    if s.val < 1:
        raise ScalarDomainError("series_exp needs valuation >= 1")
    t = s.trunc
    # b = exp(s) solves b' = s' b: b_0 = 1, k b_k = sum_{j=v..k} j a_j b_(k-j).
    # With a_j = A_j/d the integers N_k = (t-1)! d^k b_k satisfy
    # k N_k = sum_j j A_j d^(j-1) N_(k-j) (the denominator of b_k divides
    # k! d^k, so the division by k is exact); b is written over (t-1)! d^(t-1)
    d, v = s.den, s.val
    weighted = [(v + i) * a * d ** (v + i - 1) for i, a in enumerate(s.nums)]
    f = math.factorial(t - 1)
    nn = [f]
    for k in range(1, t):
        m = max(0, min(k - v + 1, len(weighted)))
        nn.append(sum(map(mul, weighted[:m], nn[k - v - m + 1:k - v + 1][::-1])) // k)
    return _series(0, _lift(nn, d, 1), f * d ** (t - 1), t)


def series_log(s):
    """log of a series with constant term 1."""
    if isinstance(s, (int, Fraction)):
        if s == 1:
            return Fraction(0)
        raise ScalarDomainError("series_log needs constant term 1")
    if s.val != 0 or s.nums[:1] != [s.den]:
        raise ScalarDomainError("series_log needs constant term 1")
    u = s - 1
    if u.is_zero():
        return TSeries(s.trunc, [], s.trunc)
    out = TSeries(u.trunc, [], u.trunc)
    term = TSeries(0, [1], u.trunc)
    sign = 1
    n = 1
    while True:
        term = term * u
        if term.is_zero() or term.val >= u.trunc:
            break
        out = out + term * Fraction(sign, n)
        sign = -sign
        n += 1
    return out


def frac_sqrt(q):
    """Exact square root of a rational that is a perfect square."""
    q = Fraction(q)
    if q < 0:
        raise ScalarDomainError("negative rational has no rational square root")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise ScalarDomainError(f"{q} is not a square of a rational")
    return Fraction(rn, rd)


def series_sqrt(s):
    """Square root of a series (even valuation, square leading coefficient).

    Branch: positive rational leading coefficient.
    """
    if isinstance(s, (int, Fraction)):
        return frac_sqrt(s)
    if s.is_zero():
        raise ScalarDomainError("square root of a truncated zero is ambiguous")
    if s.val % 2:
        raise ScalarDomainError("series_sqrt needs even valuation")
    lead = frac_sqrt(Fraction(s.nums[0], s.den))
    # Newton iteration on  r <- (r + s/r)/2  starting from the leading term
    half_val = s.val // 2
    body = _series(0, s.nums, s.den, s.trunc - s.val)  # valuation-0 unit part
    r = TSeries(0, [lead], body.trunc)
    for _ in range(body.trunc.bit_length() + 2):
        r = (r + body * r.inv()) / 2
        if (r * r - body).is_zero():
            break
    if not (r * r - body).is_zero():
        raise ScalarDomainError("series_sqrt failed to converge (non-square input?)")
    return r.shift(half_val)


def expm1_over(s):
    """(exp(s) - 1)/s for a series s of positive valuation; equals 1 at s = 0.

    Removable-singularity form used for prefactors like  s/(exp(s)-1).
    """
    if isinstance(s, (int, Fraction)):
        if s == 0:
            return Fraction(1)
        raise ScalarDomainError("expm1_over needs a series (or exactly 0)")
    if s.is_zero():
        return TSeries(0, [1], s.trunc)
    return (series_exp(s) - 1).shift(-s.val) * _series(0, s.nums, s.den, s.trunc - s.val).inv()


# -- factored rational functions ---------------------------------------------

def _linear_product(constant, roots):
    """Coefficients, lowest first, of constant * prod (z - root)."""
    c = [constant]
    for a in roots:
        c = [-a * c[0]] + [lo - a * hi for lo, hi in zip(c, c[1:])] + [c[-1]]
    return c


class RatFn:
    """Rational function in one variable z, kept factored: `factors` is
    (constant, zeros, poles), and every RatFn is built by `from_factors`.
    Products with RatFns and with scalars stay factored.
    """

    __slots__ = ("factors",)

    @staticmethod
    def from_factors(constant, zeros, poles):
        """constant * prod (z - zero) / prod (z - pole)."""
        rf = RatFn.__new__(RatFn)
        rf.factors = (constant, tuple(zeros), tuple(poles))
        return rf

    def __mul__(self, other):
        constant, zeros, poles = self.factors
        if not isinstance(other, RatFn):
            return RatFn.from_factors(constant * other, zeros, poles)
        cb, zb, pb = other.factors
        return RatFn.from_factors(constant * cb, zeros + zb, poles + pb)

    __rmul__ = __mul__

    def eval(self, x):
        """The value at z = x, a Fraction for rational input; a pole at x
        raises ZeroDivisionError, also where a zero cancels it."""
        constant, zeros, poles = self.factors
        d = math.prod(x - b for b in poles)
        if not d:
            raise ZeroDivisionError("pole at evaluation point")
        return math.prod((x - a for a in zeros), start=Fraction(1) * constant) / d

    def __repr__(self):
        return f"RatFn.from_factors{self.factors!r}"


def ratfn_expand(rf, direction, order):
    """Expand rf = constant * prod (z - zero) / prod (z - pole) as a
    truncated series, from the coefficient lists of its numerator and its
    (monic) denominator.

    direction +1: expansion in powers of X = 1/z (around z = infinity);
    direction -1: expansion in powers of X = z (around z = 0).
    A zero constant gives O(X^order) in either direction.  Raises
    ExpansionPoleError for direction -1 when rf has a pole at 0, and
    TypeError when a factor is not rational (series-valued factors).
    """
    constant, zeros, poles = rf.factors
    num, den = _linear_product(constant, zeros), _linear_product(1, poles)
    if direction == 1:
        # p(z) = z^deg p * (series in X = 1/z); den is monic, so its
        # reversed series is a unit
        sn = TSeries(0, num[::-1], order)
        sd = TSeries(0, den[::-1], order)
        if not constant:
            return TSeries(order, [], order)
        return (sn * sd.inv()).shift(len(poles) - len(zeros))
    elif direction == -1:
        if not den[0]:
            raise ExpansionPoleError("denominator has a zero at z = 0")
        return TSeries(0, num, order) * TSeries(0, den, order).inv()
    raise ValueError("direction must be +1 or -1")


def _over(n, d):
    """The value n/d of an int or TSeries numerator n over a positive int d:
    a Fraction, or a TSeries."""
    if type(n) is int:
        return Fraction(n, d)
    return n if d == 1 else n / d


def _rational(c):
    """(numerator, denominator) of an exact value: an int or a Fraction as
    its own pair, a TSeries as its own numerator over 1.  Any other value
    raises TypeError naming its type."""
    t = type(c)
    if t is Fraction or t is int:
        return c.numerator, c.denominator
    if t is TSeries:
        return c, 1
    raise TypeError(f"exact values are ints, Fractions and TSeries, not {t.__name__}")


def _int_sum(parts):
    """The exact sum of the list parts [(s, d, items)], each s/d times the
    numerators of items, (key, n) pairs: (L, {key: n}), the numerators over
    L, the lcm of the d's, in first-seen key order, zeros kept.  s and n are
    ints or TSeries.  A part is scaled only when d is not L and a product
    added only to an entry already there, so a series builds no extra
    TSeries."""
    L = math.lcm(*[d for _, d, _ in parts])
    out = {}
    get = out.get
    for s, d, items in parts:
        if d != L:
            s = s * (L // d)
        for k, n in items:
            y = get(k)
            out[k] = s * n if y is None else y + s * n
    return L, out


def _int_reduce(nums, den):
    """The numerators nums = {key: n} over the nonzero int den in canonical
    form, (nums, den): zero numerators dropped and one gcd pass, so that
    den > 0 and gcd(den, *nums) == 1, with den 1 when no numerator is left.
    A series numerator has no gcd: a dict holding one keeps its den, which
    every caller gives positive.  The dict given is not modified and may be
    the one returned."""
    if not all(nums.values()):
        nums = {k: n for k, n in nums.items() if n} if any(nums.values()) else {}
    if not nums or den == 1:
        return nums, 1
    try:
        g = math.gcd(den, *nums.values())
    except TypeError:
        return nums, den
    if den < 0:
        g = -g
    if g != 1:
        nums, den = {k: n // g for k, n in nums.items()}, den // g
    return nums, den


def _exact(x):
    """x as an exact parameter: an int becomes a Fraction, a Fraction or a
    TSeries stays as it is, and any other value raises TypeError naming its
    type."""
    return _over(*_rational(x))


class RatFnModes:
    """The modes of a factored RatFn rf = constant * prod (z - zero) /
    prod (z - pole) in X = 1/z (direction +1, around z = infinity) or X = z
    (direction -1, around z = 0), from the power sums of its roots, kept
    and extended in place when a larger order is read.

    Around infinity the roots are rf's own, and rf must have as many zeros
    as poles (ScalarDomainError otherwise); around 0 they are the inverses
    of rf's, and rf must have no root at 0 (ExpansionPoleError otherwise).
    Either way rf = rf_0 prod(1 - zero X)/prod(1 - pole X), rf_0 its
    constant term; every module's psi has this form, since it starts at a
    nonzero constant at z = infinity and at z = 0.

    `sums` keeps S_k = D^k (p_k(poles) - p_k(zeros)) for k = 1, 2, ...,
    p_k the k-th power sum and D the lcm of the roots' denominators: an int
    when every root is rational, else a TSeries.  A rational root (the
    one-term case at X^0), or a zero series, is kept as its numerator
    A = D x and its power A^k is multiplied by A once per order, as the
    product loop pw = pw * x does.  A nonzero series root x = X^v A/D known
    mod X^t has x^k = X^(kv) A^k/D^k known mod X^(t+(k-1)v), the val and
    trunc the product loop gives; A^k is one int for a one-term root, else
    the list of its first t - v numerators (`_convolve`).  These are summed
    per valuation kv as one integer list and one TSeries.

    `log_coeff(n)` is c_n of log(rf/rf_0) = sum_n c_n X^n, n c_n = S_n/D^n.
    `coeff(k)` is the X^k coefficient of rf, the value `ratfn_expand`
    gives: rf = rf_0 exp(sum_n c_n X^n), whose modes b_k solve
    k b_k = sum_j j c_j b_(k-j) with b_0 = 1.  On the integers
    N_k = k! D^k b_k, kept in `nums`, this is
    N_k = sum_j S_j N_(k-j) (k-1)!/(k-j)!, and the coefficient is
    rf_0 N_k/(k! D^k), one Fraction per read.
    """

    def __init__(self, rf, direction):
        constant, zeros, poles = rf.factors
        b0 = Fraction(1) * constant
        if direction == 1:
            if len(zeros) != len(poles):
                raise ScalarDomainError("log needs constant term 1: zero and pole counts differ")
        elif direction == -1:
            if not all(zeros + poles):
                raise ExpansionPoleError("a zero or pole at z = 0")
            b0 = b0 * math.prod(-a for a in zeros) / math.prod(-b for b in poles)
            zeros, poles = [Fraction(1) / a for a in zeros], [Fraction(1) / b for b in poles]
        else:
            raise ValueError("direction must be +1 or -1")
        self.b0 = _rational(b0)
        roots = [(x, 1) for x in poles] + [(x, -1) for x in zeros]
        series = [(sign, x) for x, sign in roots if isinstance(x, TSeries) and x.nums]
        looped = [(sign,) + _rational(x) for x, sign in roots
                  if not (isinstance(x, TSeries) and x.nums)]
        self.D = D = math.lcm(*[d for _, _, d in looped], *[x.den for _, x in series])
        self.looped = [(sign, a if d == D else a * (D // d)) for sign, a, d in looped]
        self.series = [(sign, x.val, x.trunc - x.val, x.nums[0] * (D // x.den) if len(x.nums) == 1
                        else [c * (D // x.den) for c in x.nums]) for sign, x in series]
        self.powers = [a for _, a in self.looped]
        self.series_powers = [a for _, _, _, a in self.series]
        self.sums, self.nums = [], [1]

    def extend(self, n):
        """[S_1, ..., S_n]: `sums`, extended in place to at least n entries."""
        sums = self.sums
        for k in range(len(sums) + 1, n + 1):
            if k > 1:
                self.powers = [p * a for p, (_, a) in zip(self.powers, self.looped)]
                self.series_powers = [p * a if type(a) is int
                                      else _convolve(p, a, min(len(p) + len(a) - 1, rel))
                                      for p, (_, _, rel, a) in zip(self.series_powers, self.series)]
            s = 0
            for p, (sign, _) in zip(self.powers, self.looped):
                s = s + p if sign > 0 else s - p
            if self.series:
                val = min(k * v for _, v, _, _ in self.series)
                trunc = min(k * v + rel for _, v, rel, _ in self.series)
                num = [0] * (trunc - val)
                for (sign, v, _, _), p in zip(self.series, self.series_powers):
                    off = k * v - val
                    if type(p) is int:
                        if off < len(num):
                            num[off] += sign * p
                    else:
                        for j, c in enumerate(p[:max(0, len(num) - off)]):
                            num[off + j] += sign * c
                ser = _series(val, num, 1, trunc)
                s = ser + s if self.looped else ser
            sums.append(s)
        return sums

    def log_coeff(self, n):
        """c_n, n >= 1: a Fraction or a TSeries."""
        return _over(self.extend(n)[n - 1], n * self.D ** n)

    def coeff(self, k):
        """The X^k coefficient of rf, k >= 0."""
        S, N = self.extend(k), self.nums
        for m in range(len(N), k + 1):
            acc, f = 0, 1
            for j in range(1, m + 1):
                # f = (m-1)!/(m-j)!
                acc = acc + S[j - 1] * N[m - j] * f
                f *= m - j
            N.append(acc)
        n, d = self.b0
        return _over(n * N[k], d * math.factorial(k) * self.D ** k)


def series_zlog(s):
    """The same as `series_log`; the name stays for existing callers."""
    return series_log(s)
