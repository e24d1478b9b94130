"""Exact coefficient arithmetic: rationals, truncated Laurent series, and
univariate rational functions.

Scalars are either `fractions.Fraction` (exact rationals) or `TSeries`
(truncated Laurent series in one formal symbol, rational coefficients or
nested scalars).  Everything interoperates through the usual arithmetic
operators; there is no floating point anywhere.

Integer-content kernels.  `_int_content` writes a list of Fractions as
integer numerators over one common denominator, the lcm of their
denominators.  When every coefficient is a Fraction, the hot products run
their inner loops on Python ints and build one Fraction per output
coefficient at the end:
- `TSeries.__mul__` convolves the two numerator lists over the same index
  window as the plain loop and divides by the product of the denominators;
- `TSeries.inv` runs the inverse recurrence on numerators over powers of
  the leading numerator;
- `series_exp` runs the derivative recurrence b_0 = 1,
  k b_k = sum_j j a_j b_(k-j) on the integers (trunc-1)! d^k b_k.
Integer arithmetic is exact, so each output is the rational the Fraction
loop would have summed, reduced once; `val` and `trunc` follow the same
rules, so the series are equal coefficient for coefficient.  A coefficient
list that holds a nested TSeries takes the Fraction-and-series loops
(`series_exp` then sums s^n/n! by repeated products): the recurrence gives
the same values there, but not always the same inner truncations, which
depend on the order of the series operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

__all__ = [
    "TSeries",
    "Poly",
    "RatFn",
    "h_gen",
    "series_exp",
    "series_log",
    "series_sqrt",
    "expm1_over",
    "frac_sqrt",
    "is_zero_mod",
    "ratfn_expand",
    "ratfn_log_coeffs",
    "ScalarDomainError",
    "ExpansionPoleError",
]


class ScalarDomainError(ValueError):
    """Raised when a series operation is applied outside its domain."""


class ExpansionPoleError(ValueError):
    """Raised when a rational function cannot be expanded in the requested direction."""


def _cf(x):
    # normalize plain ints to Fraction so coefficient lists stay exact
    return Fraction(x) if isinstance(x, int) else x


def _rational(coeffs):
    """True iff every coefficient is a Fraction (no nested series)."""
    return all(type(c) is Fraction for c in coeffs)


def _int_content(coeffs):
    """(numerators, d) with coeffs[i] == numerators[i] / d for Fraction coeffs,
    d the lcm of their denominators (1 when there are none)."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _convolve(a, b, n):
    """The first n coefficients of the product of the integer lists a and b."""
    rb = b[::-1]
    la, lb = len(a), len(b)
    out = []
    for k in range(n):
        lo, hi = max(0, k - lb + 1), min(k, la - 1) + 1
        # rb[lb - 1 - j] == b[j], paired with a[k - j]
        out.append(sum(map(mul, a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi])))
    return out


class TSeries:
    """Truncated Laurent series  sum_{k=val}^{trunc-1} coeffs[k-val] * X^k + O(X^trunc).

    The formal variable X is whatever the caller wants (the deformation
    symbol for scalar series, 1/z or z for expansions of functions of z).
    Coefficients may be Fractions or nested TSeries.
    """

    __slots__ = ("val", "coeffs", "trunc")

    def __init__(self, val, coeffs, trunc):
        coeffs = [_cf(c) for c in coeffs]
        # canonical form: strip leading zeros, cut at trunc
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            val += 1
        if val + len(coeffs) > trunc:
            coeffs = coeffs[: trunc - val]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            val = trunc
        self.val = val
        self.coeffs = coeffs
        self.trunc = trunc

    # -- queries ---------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k):
        """Coefficient of X^k (0 if outside the stored window; k must be < trunc)."""
        if k >= self.trunc:
            raise ScalarDomainError(f"coefficient X^{k} beyond truncation {self.trunc}")
        i = k - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def constant(self):
        """The X^0 coefficient."""
        return self.coeff(0)

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, TSeries):
            return other
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TSeries(self.trunc, [], self.trunc)
            return TSeries(0, [other], self.trunc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        trunc = min(self.trunc, o.trunc)
        if self.is_zero():
            return TSeries(o.val, o.coeffs, trunc)
        if o.is_zero():
            return TSeries(self.val, self.coeffs, trunc)
        val = min(self.val, o.val)
        n = max(self.val + len(self.coeffs), o.val + len(o.coeffs)) - val
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[self.val - val + i] = c
        for i, c in enumerate(o.coeffs):
            out[o.val - val + i] = out[o.val - val + i] + c
        return TSeries(val, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return TSeries(self.val, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            # product of zero with anything: precision of a zero mod X^t times
            # a unit of valuation v is zero mod X^(t+v)
            if self.is_zero() and o.is_zero():
                t = min(self.trunc + o.trunc, max(self.trunc, o.trunc))
            elif self.is_zero():
                t = self.trunc + o.val
            else:
                t = o.trunc + self.val
            return TSeries(t, [], t)
        trunc = min(self.trunc + o.val, o.trunc + self.val)
        val = self.val + o.val
        n = min(len(self.coeffs) + len(o.coeffs) - 1, trunc - val)
        if _rational(self.coeffs) and _rational(o.coeffs):
            an, da = _int_content(self.coeffs[:n])
            bn, db = _int_content(o.coeffs[:n])
            den = da * db
            return TSeries(val, [Fraction(c, den) for c in _convolve(an, bn, n)], trunc)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i >= n:
                break
            for j, b in enumerate(o.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return TSeries(val, out, trunc)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; leading coefficient must be invertible."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        n = self.trunc - self.val  # relative precision
        if _rational(self.coeffs):
            # coeffs = A/d: the inverse's k-th coefficient is d B_k / A_0^(k+1)
            # with B_0 = 1, B_k = -sum_{j=1..k} A_j A_0^(j-1) B_(k-j)
            an, d = _int_content(self.coeffs)
            a0 = an[0]
            weighted = [a * a0 ** j for j, a in enumerate(an[1:])]
            bn, out = [1], [Fraction(d, a0)]
            for k in range(1, n):
                m = min(k, len(weighted))
                bn.append(-sum(map(mul, weighted[:m], bn[k - m:][::-1])))
                out.append(Fraction(d * bn[k], a0 ** (k + 1)))
            return TSeries(-self.val, out, self.trunc - 2 * self.val)
        # 1 / (a0 X^v (1 + u)) with u of positive relative order
        inv0 = 1 / self.coeffs[0]
        rel = [c * inv0 for c in self.coeffs]
        out = [Fraction(0)] * n
        out[0] = _cf(1)
        for k in range(1, n):
            s = 0
            for j in range(1, min(k, len(rel) - 1) + 1):
                if rel[j]:
                    s = s + rel[j] * out[k - j]
            out[k] = -s
        out = [c * inv0 for c in out]
        return TSeries(-self.val, out, self.trunc - 2 * self.val)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return TSeries(self.val, [c / other for c in self.coeffs], self.trunc)
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

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self):
        raise TypeError("TSeries is unhashable (truncated equality)")

    def shift(self, k):
        """Multiply by X^k."""
        return TSeries(self.val + k, list(self.coeffs), self.trunc + k)

    def map_coeffs(self, f):
        return TSeries(self.val, [f(c) for c in self.coeffs], self.trunc)

    def __repr__(self):
        if self.is_zero():
            return f"O(X^{self.trunc})"
        body = " + ".join(
            f"({c})*X^{self.val + i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"{body} + O(X^{self.trunc})"


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
        return TSeries(0, [1], s.trunc + s.val if s.coeffs else s.trunc)
    if s.val < 1:
        raise ScalarDomainError("series_exp needs valuation >= 1")
    t = s.trunc
    if _rational(s.coeffs):
        # b = exp(s) solves b' = s' b: b_0 = 1, k b_k = sum_{j=v..k} j a_j b_(k-j).
        # With a_j = A_j/d the integers N_k = (t-1)! d^k b_k satisfy
        # k N_k = sum_j j A_j d^(j-1) N_(k-j) (the denominator of b_k divides
        # k! d^k, so the division by k is exact)
        an, d = _int_content(s.coeffs)
        v = s.val
        weighted = [(v + i) * a * d ** (v + i - 1) for i, a in enumerate(an)]
        f = math.factorial(t - 1)
        nn, out = [f], [Fraction(1)]
        for k in range(1, t):
            m = max(0, min(k - v + 1, len(weighted)))
            nn.append(sum(map(mul, weighted[:m], nn[k - v - m + 1:k - v + 1][::-1])) // k)
            out.append(Fraction(nn[k], f * d ** k))
        return TSeries(0, out, t)
    # nested coefficients: the sum of s^n/n!, whose inner truncations the
    # recurrence above would not reproduce
    out = TSeries(0, [1], t)
    term = TSeries(0, [1], t)
    n = 1
    while True:
        term = term * s / n
        if term.is_zero() or term.val >= t:
            break
        out = out + term
        n += 1
    return out


def series_log(s):
    """log of a series with constant term 1."""
    if isinstance(s, (int, Fraction)):
        if s == 1:
            return Fraction(0)
        raise ScalarDomainError("series_log needs constant term 1")
    if s.val != 0 or s.coeffs[0] != 1:
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
    lead = frac_sqrt(s.coeffs[0])
    # Newton iteration on  r <- (r + s/r)/2  starting from the leading term
    half_val = s.val // 2
    body = TSeries(0, s.coeffs, s.trunc - s.val)  # valuation-0 unit part
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
        return TSeries(0, [1], s.trunc - s.val if s.coeffs else s.trunc)
    return (series_exp(s) - 1).shift(-s.val) * TSeries(0, s.coeffs, s.trunc - s.val).inv()


# -- dense univariate polynomials over an exact scalar domain -------------

class Poly:
    """Dense univariate polynomial, coefficients ascending."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        coeffs = [_cf(x) for x in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.c = coeffs

    @staticmethod
    def const(x):
        return Poly([x])

    @staticmethod
    def linear(a0, a1=1):
        """a1*z + a0 (monic in z by default)."""
        return Poly([a0, a1])

    def is_zero(self):
        return not self.c

    def degree(self):
        return len(self.c) - 1 if self.c else -1

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.c), len(other.c))
        out = [Fraction(0)] * n
        for i, a in enumerate(self.c):
            out[i] = out[i] + a
        for i, b in enumerate(other.c):
            out[i] = out[i] + b
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.c])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([a * other for a in self.c])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Poly is unhashable")

    def eval(self, x):
        acc = 0
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def divmod(self, other):
        """Euclidean division (coefficients must form a field)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.c)
        q = [Fraction(0)] * max(0, len(r) - len(other.c) + 1)
        dlead = other.c[-1]
        while len(r) >= len(other.c):
            k = len(r) - len(other.c)
            f = r[-1] / dlead
            q[k] = f
            for i, b in enumerate(other.c):
                r[k + i] = r[k + i] - f * b
            while r and not r[-1]:
                r.pop()
            if len(r) == 0:
                break
        return Poly(q), Poly(r)

    def __repr__(self):
        return "Poly(%s)" % (self.c,)


class RatFn:
    """Rational function in one variable z: num/den, both Poly.

    `from_factors` keeps the factored form (constant, zeros, poles) in
    `factors`; `num` and `den` are then multiplied out only when first read.
    Products of factored functions, and their products with scalars, stay
    factored.  A RatFn built from `num`/`den` directly has `factors` None.
    """

    __slots__ = ("_num", "_den", "factors")

    def __init__(self, num, den):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._num = num
        self._den = den
        self.factors = None

    @staticmethod
    def from_factors(constant, zeros, poles):
        """constant * prod (z - zero) / prod (z - pole)."""
        rf = RatFn.__new__(RatFn)
        rf._num = rf._den = None
        rf.factors = (constant, tuple(zeros), tuple(poles))
        return rf

    @property
    def num(self):
        if self._num is None:
            constant, zeros, _ = self.factors
            num = Poly([constant])
            for a in zeros:
                num = num * Poly([-a, 1])
            self._num = num
        return self._num

    @property
    def den(self):
        if self._den is None:
            den = Poly([1])
            for b in self.factors[2]:
                den = den * Poly([-b, 1])
            self._den = den
        return self._den

    def __mul__(self, other):
        if not isinstance(other, RatFn):
            if self.factors is not None:
                constant, zeros, poles = self.factors
                return RatFn.from_factors(constant * other, zeros, poles)
            return RatFn(self.num * other, self.den)
        if self.factors is not None and other.factors is not None:
            (ca, za, pa), (cb, zb, pb) = self.factors, other.factors
            return RatFn.from_factors(ca * cb, za + zb, pa + pb)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFn):
            return RatFn(self.num, self.den * other)
        return RatFn(self.num * other.den, self.den * other.num)

    def eval(self, x):
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(x) / d

    def eq(self, other):
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        return f"RatFn({self.num!r}/{self.den!r})"


def _poly_to_series_at_infinity(p, trunc):
    """Write p(z) = z^deg * (series in 1/z); return (deg, TSeries in X=1/z)."""
    d = p.degree()
    return d, TSeries(0, list(reversed(p.c)), trunc)


def ratfn_expand(rf, direction, order):
    """Expand num/den as a truncated series.

    direction +1: expansion in powers of 1/z (around z = infinity);
    direction -1: expansion in powers of z (around z = 0).
    Returns a TSeries in X where X = z^(-direction)... concretely X = 1/z
    for +1 and X = z for -1.  Raises ExpansionPoleError when the relevant
    leading coefficient is not invertible.
    """
    if direction == 1:
        dn, sn = _poly_to_series_at_infinity(rf.num, order)
        dd, sd = _poly_to_series_at_infinity(rf.den, order)
        if rf.den.is_zero() or not _invertible(rf.den.c[-1]):
            raise ExpansionPoleError("denominator leading coefficient not invertible")
        if rf.num.is_zero():
            return TSeries(order, [], order)
        return (sn * sd.inv()).shift(dd - dn)
    elif direction == -1:
        if not rf.den.c or not _invertible(rf.den.c[0]):
            raise ExpansionPoleError("denominator has a zero at z = 0")
        sn = TSeries(0, list(rf.num.c), order)
        sd = TSeries(0, list(rf.den.c), order)
        return sn * sd.inv()
    raise ValueError("direction must be +1 or -1")


def ratfn_log_coeffs(rf, direction, n):
    """Coefficients c_1..c_n of log(rf/rf_0) from the factors of rf.

    direction +1: log(rf/rf_0) = sum_k c_k z^-k around z = infinity, with
    c_k = (p_k(poles) - p_k(zeros))/k; needs as many zeros as poles.
    direction -1: log(rf/rf_0) = sum_k c_k z^k around z = 0, with
    c_k = (p_k(1/poles) - p_k(1/zeros))/k; needs no root at 0.
    Here p_k is the k-th power sum and rf_0 the expansion's constant term.
    """
    if rf.factors is None:
        raise ScalarDomainError("log coefficients need a factored rational function")
    _, zeros, poles = rf.factors
    if direction == 1:
        if len(zeros) != len(poles):
            raise ScalarDomainError("log needs constant term 1: zero and pole counts differ")
    elif direction == -1:
        if not all(_invertible(x) for x in zeros + poles):
            raise ExpansionPoleError("a zero or pole at z = 0")
        zeros = [1 / a for a in zeros]
        poles = [1 / b for b in poles]
    else:
        raise ValueError("direction must be +1 or -1")

    def power_sums(roots):
        sums = [Fraction(0)] * n
        for x in roots:
            pw = x
            for k in range(n):
                if k:
                    pw = pw * x
                sums[k] = sums[k] + pw
        return sums

    return [(p - q) / k
            for k, p, q in zip(range(1, n + 1), power_sums(poles), power_sums(zeros))]


def _invertible(c):
    if isinstance(c, TSeries):
        return not c.is_zero()
    return c != 0


def series_zlog(s):
    # identical algorithm to series_log but permits non-Fraction coefficients
    if s.val != 0:
        raise ScalarDomainError("log needs constant term 1")
    c0 = s.coeffs[0]
    if not (c0 == 1):
        raise ScalarDomainError("log needs constant term 1")
    u = s - 1
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
