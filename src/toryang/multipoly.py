"""Sparse multivariate Laurent polynomials over exact rationals.

Monomials are exponent tuples (negative entries allowed).  Everything the
shuffle layer needs lives here: permutation of variables, exact division by
variable differences, affine and monomial substitutions, and graded
decompositions.

Integer kernels.  An `MPoly` keeps its coefficients as integer numerators
over one denominator, c_e = nums[e] / den, in canonical form (see the class
docstring), and every kernel reads and writes that form; none has another
path.  Each result goes through `_mpoly`, which brings it to canonical form
with the package's one reducer, `scalars._int_reduce`, and a sum and the
constructor write their parts over one denominator with its one exact sum,
`scalars._int_sum`.  A rational factor or divisor scales the numerators and
the denominator; the product sums integer products per exponent over the
product of the denominators.  `div_vandermonde` divides by each
(x_a - x_b) with `_div_vandermonde_int`, whose synthetic division only
adds, so the numerators stay integers (`div_linear` is its one-pair case);
the shuffle star product calls `_div_vandermonde_int` on its own integer
sum.  `eval` and `collapse_monomial` write each coordinate x = p/q as
x^k = p^(k-lo) q^(hi-k) / (p^-lo q^hi) over the exponent range lo..hi, and
`collapse_affine` writes (s + p/q)^k over q^hi, so both stay on integers.
Integer arithmetic is exact, so each result is the polynomial a
coefficient-by-coefficient Fraction computation gives.  `d` builds the
{exponent: Fraction} dict when it is read, so no kernel reads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add

from .scalars import _coefficient, _int_reduce, _int_sum

__all__ = ["MPoly"]

_new = object.__new__


def _mpoly(n, nums, den):
    """The MPoly sum nums[e]/den x^e in n variables, for integer numerators
    over a nonzero integer den of either sign, as every kernel builds its
    result, in canonical form (`_int_reduce`).  The dict is not modified and
    may be kept by the result."""
    p = _new(MPoly)
    p.nums, p.den = _int_reduce(nums, den)
    p.n = n
    return p


def _powers(x, exps):
    """(lo, row, den) with x^k == row[k - lo] / den for every k in exps:
    with x = p/q and lo <= 0 <= hi bounding exps, row[k - lo] is
    p^(k-lo) q^(hi-k) and den is p^-lo q^hi (zero when x is zero and some
    k is negative)."""
    lo, hi = min(exps, default=0), max(exps, default=0)
    lo, hi = min(lo, 0), max(hi, 0)
    p, q = x.numerator, x.denominator
    return lo, [p ** (k - lo) * q ** (hi - k) for k in range(lo, hi + 1)], p ** -lo * q ** hi


def _div_vandermonde_int(nums, pairs):
    """Exact quotient of {exponent: int} by prod (x_a - x_b) over pairs, in
    order; ArithmeticError names the first pair that leaves a remainder.

    Synthetic division in x_a from its top degree down: a term c x_a^k m goes
    to the quotient as c x_a^(k-1) m and carries c x_a^(k-1) x_b m one degree
    down.  It only adds, so the numerators stay integers.  What reaches
    degree lo = min(0, lowest exponent of x_a) is the remainder.
    """
    for a, b in pairs:
        rows = {}
        for e, c in nums.items():
            rows.setdefault(e[a], {})[e] = c
        if not rows:
            return {}
        lo = min(0, min(rows))
        quot = {}
        for k in range(max(rows), lo, -1):
            row = rows.pop(k, None)
            if not row:
                continue
            below = rows.setdefault(k - 1, {})
            for e, c in row.items():
                if c:
                    qe = e[:a] + (k - 1,) + e[a + 1:]
                    quot[qe] = c
                    be = qe[:b] + (qe[b] + 1,) + qe[b + 1:]
                    below[be] = below.get(be, 0) + c
        if any(rows.get(lo, {}).values()):
            raise ArithmeticError("division by (x_%d - x_%d) is not exact" % (a, b))
        nums = quot
    return nums


class MPoly:
    """Laurent polynomial  sum_e c_e x^e  in n variables.

    The coefficients are kept as integer numerators over one denominator,
    c_e = nums[e] / den, in canonical form: den > 0,
    gcd(den, *nums.values()) == 1 and no zero numerator is stored; the zero
    polynomial has nums == {} and den == 1.  Two polynomials are equal
    exactly when their stored forms are.  `d` is the {exponent: Fraction}
    dict, built when it is read.  The constructor takes ints and Fractions
    and raises TypeError for anything else.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n, d=None):
        den, nums = _int_sum([(c.numerator, c.denominator, ((tuple(e), 1),))
                              for e, c in (d or {}).items() for c in (_coefficient(c),)])
        self.n = n
        self.nums, self.den = _int_reduce(nums, den)

    @property
    def d(self):
        """{exponent: Fraction} of the nonzero coefficients, a new dict on
        every read."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(n, c):
        return MPoly(n, {(0,) * n: c})

    @staticmethod
    def zero(n):
        return _mpoly(n, {}, 1)

    @staticmethod
    def monomial(n, exps, c=1):
        return MPoly(n, {tuple(exps): c})

    @staticmethod
    def var(n, i, power=1):
        e = [0] * n
        e[i] = power
        return _mpoly(n, {tuple(e): 1}, 1)

    # -- basics -------------------------------------------------------------
    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.n, other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        raise TypeError("MPoly unhashable")

    def _plus(self, o, sign):
        """self + sign * o, on the numerators over the lcm of the two
        denominators (`_int_sum`)."""
        den, out = _int_sum([(1, self.den, self.nums.items()), (sign, o.den, o.nums.items())])
        return _mpoly(self.n, out, den)

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.n, other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _mpoly(self.n, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.n, other)
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p = other.numerator
            return _mpoly(self.n, {e: p * c for e, c in self.nums.items()},
                          self.den * other.denominator)
        right = list(other.nums.items())
        out = {}
        get = out.get
        for e1, c1 in self.nums.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _mpoly(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        if not c:
            raise ZeroDivisionError("polynomial divided by zero")
        q = c.denominator
        return _mpoly(self.n, {e: q * v for e, v in self.nums.items()}, self.den * c.numerator)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        r = MPoly.const(self.n, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- structure ----------------------------------------------------------
    def apply_perm(self, sigma):
        """Substitute x_i -> x_sigma(i) (sigma a 0-based tuple)."""
        out = {}
        for e, c in self.nums.items():
            ne = [0] * self.n
            for i, ei in enumerate(e):
                ne[sigma[i]] = ei
            out[tuple(ne)] = c
        return _mpoly(self.n, out, self.den)

    def is_symmetric(self):
        for i in range(self.n - 1):
            sigma = list(range(self.n))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            if self.apply_perm(tuple(sigma)) != self:
                return False
        return True

    def shift_var(self, i, k):
        """Multiply by x_i^k."""
        return _mpoly(self.n, {e[:i] + (e[i] + k,) + e[i + 1:]: c
                               for e, c in self.nums.items()}, self.den)

    def div_linear(self, a, b):
        """Exact division by (x_a - x_b); raises if the remainder is nonzero."""
        return self.div_vandermonde(((a, b),))

    def div_vandermonde(self, pairs):
        """Exact division by prod (x_a - x_b) over the listed index pairs, in
        order, on the integer numerators."""
        return _mpoly(self.n, _div_vandermonde_int(self.nums, pairs), self.den)

    def eval(self, point):
        """Value at a point of ints or Fractions, summed on integers (see
        `_powers`); a zero coordinate under a negative power makes the
        denominator zero (ZeroDivisionError)."""
        den = self.den
        rows = []
        for i, x in zip(range(self.n), point):
            lo, row, xden = _powers(x, [e[i] for e in self.nums])
            rows.append((lo, row))
            den *= xden
        tot = 0
        for e, c in self.nums.items():
            for (lo, row), k in zip(rows, e):
                c *= row[k - lo]
            tot += c
        return Fraction(tot, den)

    def collapse_monomial(self, idxs, scales):
        """Substitute x_{idxs[t]} = scales[t] * s for a fresh variable s; the
        remaining variables keep their slots.  Result has n - len(idxs) + 1
        variables with s in slot 0.  A zero scale under a negative power
        raises ZeroDivisionError."""
        keep = [i for i in range(self.n) if i not in idxs]
        den = self.den
        rows = []
        for i, x in zip(idxs, scales):
            lo, row, xden = _powers(x, [e[i] for e in self.nums])
            rows.append((i, lo, row))
            den *= xden
        if not den:
            raise ZeroDivisionError("zero scale under a negative power")
        out = {}
        get = out.get
        for e, c in self.nums.items():
            sdeg = 0
            for i, lo, row in rows:
                k = e[i]
                sdeg += k
                c *= row[k - lo]
            ne = (sdeg,) + tuple(e[i] for i in keep)
            out[ne] = get(ne, 0) + c
        return _mpoly(len(keep) + 1, out, den)

    def collapse_affine(self, idxs, shifts):
        """Substitute x_{idxs[t]} = s + shifts[t]; exponents there must be >= 0.

        With shift p/q and hi the top exponent of that variable,
        (s + p/q)^k = sum_m C(k, m) p^(k-m) q^(hi-k+m) s^m / q^hi."""
        keep = [i for i in range(self.n) if i not in idxs]
        den = self.den
        tables = []
        for i, x in zip(idxs, shifts):
            exps = [e[i] for e in self.nums]
            if min(exps, default=0) < 0:
                raise ValueError("affine substitution needs nonnegative exponents")
            hi = max(exps, default=0)
            p, q = x.numerator, x.denominator
            tables.append((i, [[comb(k, m) * p ** (k - m) * q ** (hi - k + m)
                                for m in range(k + 1)] for k in range(hi + 1)]))
            den *= q ** hi
        out = {}
        for e, c in self.nums.items():
            # expand prod (s + shift_t)^{e_t} binomially
            terms = {0: c}
            for i, table in tables:
                row = table[e[i]]
                new = {}
                for deg, cc in terms.items():
                    for m, f in enumerate(row):
                        new[deg + m] = new.get(deg + m, 0) + cc * f
                terms = new
            rest = tuple(e[i] for i in keep)
            for deg, cc in terms.items():
                ne = (deg,) + rest
                out[ne] = out.get(ne, 0) + cc
        return _mpoly(len(keep) + 1, out, den)

    def graded_parts(self, idxs):
        """Decompose by total degree in the variables idxs.

        Multiplicative grading: degree = sum of exponents in idxs.
        Returns dict degree -> MPoly (same variable count).
        """
        out = {}
        for e, c in self.nums.items():
            deg = sum(e[i] for i in idxs)
            out.setdefault(deg, {})[e] = c
        return {k: _mpoly(self.n, v, self.den) for k, v in out.items()}

    def xi_shift_parts(self, idxs):
        """Decompose f(x_1,..,x_i + xi,..) by the degree in xi.

        Returns dict degree -> MPoly in the original n variables (the binomial
        coefficients are integers, so every part keeps the denominator).
        """
        out = {}
        for e, c in self.nums.items():
            # each shifted variable contributes binomially
            new_terms = {e: {0: c}}
            for i in idxs:
                nxt = {}
                for ee, degs in new_terms.items():
                    k = ee[i]
                    if k < 0:
                        raise ValueError("xi-shift needs nonnegative exponents")
                    for m in range(k + 1):
                        ne = ee[:i] + (m,) + ee[i + 1:]
                        f = comb(k, m)
                        slot = nxt.setdefault(ne, {})
                        for dd, cc in degs.items():
                            slot[dd + (k - m)] = slot.get(dd + (k - m), 0) + cc * f
                new_terms = nxt
            for ee, degs in new_terms.items():
                for dd, cc in degs.items():
                    slot = out.setdefault(dd, {})
                    slot[ee] = slot.get(ee, 0) + cc
        parts = {k: _mpoly(self.n, v, self.den) for k, v in out.items()}
        return {k: p for k, p in parts.items() if p}

    def __repr__(self):
        if not self.nums:
            return "MPoly(0)"
        parts = []
        for e, c in sorted(self.d.items()):
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(parts)
