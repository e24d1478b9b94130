"""Sparse multivariate Laurent polynomials over exact rationals.

Monomials are exponent tuples (negative entries allowed); no zero
coefficients are stored.  Two places drop them: the constructor, to which
every Fraction loop below hands its plain dict accumulated as
``out[e] = out.get(e, 0) + c``, and `_over`, which builds the MPoly of
integer numerators over one denominator directly, skipping the
constructor's per-entry `_cf` and `tuple` pass, for the integer kernels
(`__mul__`, `div_vandermonde` and the shuffle star product).
Everything the shuffle layer needs lives here: permutation of variables,
exact division by variable differences, affine and monomial substitutions,
and graded decompositions.

Products run on integers: `__mul__` writes each factor's coefficients as
integer numerators over one common denominator (`scalars._int_content`),
sums the integer products per exponent, and builds one Fraction per
monomial over the product of the two denominators.  That is exactly the
rational the Fraction loop summed, reduced once.  Division and evaluation
run on integers the same way: `div_vandermonde` converts once and divides
by each (x_a - x_b) with `_div_vandermonde_int`, whose synthetic division
only adds, so the numerators stay integers (`div_linear` is its one-pair
case); `eval` sums integer monomial values over one denominator.  The
shuffle star product calls `_div_vandermonde_int` on its own integer sum.
There is no second loop: every coefficient an MPoly holds is a Fraction,
because the constructor turns ints into Fractions, `_over` builds
Fractions, and no caller stores anything else.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import _cf, _int_content

__all__ = ["MPoly"]

_new = object.__new__


def _over(n, nums, d):
    """The MPoly with coefficients nums[e] / d over tuple keys, zero
    numerators dropped; the constructor's per-entry pass is skipped."""
    p = _new(MPoly)
    p.n = n
    p.d = {e: Fraction(c, d) for e, c in nums.items() if c}
    return p


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
    __slots__ = ("n", "d")

    def __init__(self, n, d=None):
        self.n = n
        self.d = {}
        if d:
            for e, c in d.items():
                c = _cf(c)
                if c:
                    self.d[tuple(e)] = c

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(n, c):
        return MPoly(n, {(0,) * n: c})

    @staticmethod
    def zero(n):
        return MPoly(n)

    @staticmethod
    def monomial(n, exps, c=1):
        return MPoly(n, {tuple(exps): c})

    @staticmethod
    def var(n, i, power=1):
        e = [0] * n
        e[i] = power
        return MPoly(n, {tuple(e): 1})

    # -- basics -------------------------------------------------------------
    def is_zero(self):
        return not self.d

    def __bool__(self):
        return bool(self.d)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.n == other.n and self.d == other.d
        return self == MPoly.const(self.n, other)

    def __hash__(self):
        raise TypeError("MPoly unhashable")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.n, other)
        out = dict(self.d)
        for e, c in other.d.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.n, {e: -c for e, c in self.d.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            other = _cf(other)
            return MPoly(self.n, {e: c * other for e, c in self.d.items()})
        an, da = _int_content(self.d.values())
        bn, db = _int_content(other.d.values())
        right = list(zip(other.d, bn))
        out = {}
        for e1, c1 in zip(self.d, an):
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _over(self.n, out, da * db)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return MPoly(self.n, {e: v / c for e, v in self.d.items()})

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
        for e, c in self.d.items():
            ne = [0] * self.n
            for i, ei in enumerate(e):
                ne[sigma[i]] = ei
            out[tuple(ne)] = c
        return MPoly(self.n, out)

    def is_symmetric(self):
        for i in range(self.n - 1):
            sigma = list(range(self.n))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            if self.apply_perm(tuple(sigma)) != self:
                return False
        return True

    def shift_var(self, i, k):
        """Multiply by x_i^k."""
        out = {}
        for e, c in self.d.items():
            ne = list(e)
            ne[i] += k
            out[tuple(ne)] = c
        return MPoly(self.n, out)

    def div_linear(self, a, b):
        """Exact division by (x_a - x_b); raises if the remainder is nonzero."""
        return self.div_vandermonde(((a, b),))

    def div_vandermonde(self, pairs):
        """Exact division by prod (x_a - x_b) over the listed index pairs, in
        order, on integer numerators over one common denominator."""
        nums, d = _int_content(self.d.values())
        return _over(self.n, _div_vandermonde_int(dict(zip(self.d, nums)), pairs), d)

    def eval(self, point):
        """Value at a point of ints or Fractions, summed on integers.  With
        x_i = p/q and lo <= 0 <= hi bounding the exponents of x_i, x_i^k is
        p^(k-lo) q^(hi-k) over p^(-lo) q^hi; a zero coordinate under a
        negative power makes that denominator zero (ZeroDivisionError)."""
        nums, den = _int_content(self.d.values())
        rows = []
        for i, x in zip(range(self.n), point):
            exps = [e[i] for e in self.d] + [0]
            lo, hi = min(exps), max(exps)
            p, q = x.numerator, x.denominator
            rows.append((lo, [p ** (k - lo) * q ** (hi - k) for k in range(lo, hi + 1)]))
            den *= p ** -lo * q ** hi
        tot = 0
        for e, c in zip(self.d, nums):
            for (lo, row), k in zip(rows, e):
                c *= row[k - lo]
            tot += c
        return Fraction(tot, den)

    def collapse_monomial(self, idxs, scales):
        """Substitute x_{idxs[t]} = scales[t] * s for a fresh variable s; the
        remaining variables keep their slots.  Result has n - len(idxs) + 1
        variables with s in slot 0."""
        keep = [i for i in range(self.n) if i not in idxs]
        out = {}
        for e, c in self.d.items():
            sdeg = 0
            coef = c
            for t, i in enumerate(idxs):
                sdeg += e[i]
                coef = coef * scales[t] ** e[i]
            ne = (sdeg,) + tuple(e[i] for i in keep)
            out[ne] = out.get(ne, 0) + coef
        return MPoly(len(keep) + 1, out)

    def collapse_affine(self, idxs, shifts):
        """Substitute x_{idxs[t]} = s + shifts[t]; exponents there must be >= 0."""
        from math import comb

        keep = [i for i in range(self.n) if i not in idxs]
        out = {}
        for e, c in self.d.items():
            # expand prod (s + shift_t)^{e_t} binomially
            terms = {0: c}
            for t, i in enumerate(idxs):
                k = e[i]
                if k < 0:
                    raise ValueError("affine substitution needs nonnegative exponents")
                new = {}
                for deg, cc in terms.items():
                    for m in range(k + 1):
                        add = cc * comb(k, m) * shifts[t] ** (k - m)
                        if add:
                            new[deg + m] = new.get(deg + m, 0) + add
                terms = new
            rest = tuple(e[i] for i in keep)
            for deg, cc in terms.items():
                ne = (deg,) + rest
                out[ne] = out.get(ne, 0) + cc
        return MPoly(len(keep) + 1, out)

    def graded_parts(self, idxs):
        """Decompose by total degree in the variables idxs.

        Multiplicative grading: degree = sum of exponents in idxs.
        Returns dict degree -> MPoly (same variable count).
        """
        out = {}
        for e, c in self.d.items():
            deg = sum(e[i] for i in idxs)
            out.setdefault(deg, {})[e] = c
        return {k: MPoly(self.n, v) for k, v in out.items()}

    def xi_shift_parts(self, idxs):
        """Decompose f(x_1,..,x_i + xi,..) by the degree in xi.

        Returns dict degree -> MPoly in the original n variables.
        """
        from math import comb

        out = {}
        for e, c in self.d.items():
            # each shifted variable contributes binomially
            new_terms = {e: {0: c}}
            for i in idxs:
                nxt = {}
                for ee, degs in new_terms.items():
                    k = ee[i]
                    if k < 0:
                        raise ValueError("xi-shift needs nonnegative exponents")
                    for m in range(k + 1):
                        ne = list(ee)
                        ne[i] = m
                        ne = tuple(ne)
                        f = comb(k, m)
                        for dd, cc in degs.items():
                            add = cc * f
                            slot = nxt.setdefault(ne, {})
                            slot[dd + (k - m)] = slot.get(dd + (k - m), 0) + add
                new_terms = nxt
            for ee, degs in new_terms.items():
                for dd, cc in degs.items():
                    slot = out.setdefault(dd, {})
                    slot[ee] = slot.get(ee, 0) + cc
        return {k: MPoly(self.n, v) for k, v in out.items() if any(v.values())}

    def __repr__(self):
        if not self.d:
            return "MPoly(0)"
        parts = []
        for e, c in sorted(self.d.items()):
            mono = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(parts)
