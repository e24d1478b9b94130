"""Parameter packs and genericity certification.

Identities in the deformation parameters are checked by exact evaluation at
generic rational points.  Genericity is certified explicitly: no small
multiplicative relation q1^a * q2^b = 1 (resp. additive relation
a*h1 + b*h2 = 0) may hold for 0 < |a| + |b| <= G.

Each parameter pack also carries its family's weights.  The module formulas
(`toroidal.py`) are written once over them: the additive family is the
multiplicative one after  q1^a q2^b w -> a*h1 + b*h2 + w  and
1 - w/v -> w - v.  The normalization constants are conventions of each
family, not substitutions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property

from .scalars import TSeries, h_gen, series_exp

__all__ = [
    "GenericityError",
    "ToroidalParams",
    "YangianParams",
    "default_toroidal",
    "default_yangian",
    "series_yangian",
    "series_toroidal",
    "sample_generic_params",
]

DEFAULT_G = 12


class GenericityError(ValueError):
    """Parameters violate a required non-resonance condition."""


def _pairs_upto(G):
    for a in range(-G, G + 1):
        for b in range(-G + abs(a), G - abs(a) + 1):
            if a or b:
                yield a, b


class ToroidalParams:
    """q1, q2 units with q3 = 1/(q1*q2), plus framing units chi_1..chi_r."""

    def __init__(self, q1, q2, chis=(), G=DEFAULT_G, certify=True):
        self.q1 = q1
        self.q2 = q2
        self.q3 = 1 / (q1 * q2)
        self.chis = tuple(chis)
        self.G = G
        self._monos = {}
        if certify:
            self.certify()

    @property
    def qs(self):
        return (self.q1, self.q2, self.q3)

    # -- family weights ------------------------------------------------------
    unit = Fraction(1)

    @property
    def framings(self):
        return self.chis

    def mono(self, a, b, w):
        """q1^a q2^b w (q1^a q2^b computed once per (a, b))."""
        m = self._monos.get((a, b))
        if m is None:
            m = self._monos[a, b] = self.q1 ** a * self.q2 ** b
        return m * w

    def gap(self, w, v):
        """1 - w/v."""
        return 1 - w / v

    def frame(self, a):
        """1/chi_a: the vacuum support point of framing a."""
        return 1 / self.chis[a - 1]

    @cached_property
    def lower_norm(self):
        """Vector and Fock lowering normalization 1/(1/q1 - 1)."""
        return 1 / (1 / self.q1 - 1)

    @cached_property
    def fixed_raise_norm(self):
        """Fixed-point raising normalization 1/(1 - 1/(q1 q2))."""
        return 1 / (1 - 1 / (self.q1 * self.q2))

    def fixed_lower_norm(self, point, r):
        """Fixed-point lowering normalization: the raising one times point^-r."""
        return self.fixed_raise_norm * point ** (-r)

    def fixed_psi_norm(self, r):
        """Constant of the rank-r fixed-point psi: (-1)^r (q1 q2)^(r+1) prod chi_a."""
        const = (-1) ** r * (self.q1 * self.q2) ** (r + 1)
        for chi in self.chis[:r]:
            const = const * chi
        return const

    def sigma1(self):
        return self.q1 + self.q2 + self.q3

    def sigma2(self):
        return self.q1 * self.q2 + self.q1 * self.q3 + self.q2 * self.q3

    def beta(self, m):
        return (1 - self.q1 ** m) * (1 - self.q2 ** m) * (1 - self.q3 ** m)

    def alpha(self, m):
        """(1-q1^-m)(1-q2^-m)(1-q3^-m)/m, the Hall-pairing normalization."""
        return (1 - self.q1 ** (-m)) * (1 - self.q2 ** (-m)) * (1 - self.q3 ** (-m)) / m

    def certify(self):
        for a, b in _pairs_upto(self.G):
            if self.q1 ** a * self.q2 ** b == 1:
                raise GenericityError(f"q1^{a} * q2^{b} = 1")
        for i in range(len(self.chis)):
            for j in range(len(self.chis)):
                if i == j:
                    continue
                ratio = self.chis[i] / self.chis[j]
                for a, b in _pairs_upto(self.G):
                    if ratio * self.q1 ** a * self.q2 ** b == 1:
                        raise GenericityError(
                            f"chi_{i+1}/chi_{j+1} * q1^{a} * q2^{b} = 1"
                        )
                if ratio == 1:
                    raise GenericityError(f"chi_{i+1} = chi_{j+1}")
        return True


class YangianParams:
    """h1, h2 with h3 = -h1-h2, plus framing shifts x_1..x_r."""

    def __init__(self, h1, h2, xs=(), G=DEFAULT_G, certify=True):
        self.h1 = h1
        self.h2 = h2
        self.h3 = -h1 - h2
        self.xs = tuple(xs)
        self.G = G
        self._monos = {}
        if certify:
            self.certify()

    @property
    def hs(self):
        return (self.h1, self.h2, self.h3)

    # -- family weights ------------------------------------------------------
    unit = Fraction(0)

    @property
    def framings(self):
        return self.xs

    def mono(self, a, b, w):
        """a*h1 + b*h2 + w (a*h1 + b*h2 computed once per (a, b))."""
        m = self._monos.get((a, b))
        if m is None:
            m = self._monos[a, b] = a * self.h1 + b * self.h2
        return m + w

    def gap(self, w, v):
        """w - v."""
        return w - v

    def frame(self, a):
        """-x_a: the vacuum support point of framing a."""
        return -self.xs[a - 1]

    @cached_property
    def lower_norm(self):
        """Vector and Fock lowering normalization -1/h1."""
        return -1 / self.h1

    @cached_property
    def fixed_raise_norm(self):
        """Fixed-point raising normalization 1/(h1 + h2)."""
        return 1 / (self.h1 + self.h2)

    def fixed_lower_norm(self, point, r):
        """Fixed-point lowering normalization (-1)^(r-1)/(h1 + h2)."""
        return (-1) ** (r - 1) / (self.h1 + self.h2)

    def fixed_psi_norm(self, r):
        """Constant of the rank-r fixed-point psi: 1."""
        return 1

    def sigma2(self):
        h1, h2, h3 = self.hs
        return h1 * h2 + h1 * h3 + h2 * h3

    def sigma3(self):
        h1, h2, h3 = self.hs
        return h1 * h2 * h3

    def certify(self):
        for a, b in _pairs_upto(self.G):
            if a * self.h1 + b * self.h2 == 0:
                raise GenericityError(f"{a}*h1 + {b}*h2 = 0")
        for i in range(len(self.xs)):
            for j in range(len(self.xs)):
                if i == j:
                    continue
                d = self.xs[i] - self.xs[j]
                for a, b in _pairs_upto(self.G):
                    if a * self.h1 + b * self.h2 + d == 0:
                        raise GenericityError(
                            f"{a}*h1 + {b}*h2 + x_{i+1} - x_{j+1} = 0"
                        )
                if d == 0:
                    raise GenericityError(f"x_{i+1} = x_{j+1}")
        return True


def default_toroidal(r=0, G=DEFAULT_G):
    """Prime-power generic point: q1=2, q2=3, framings 5, 7 (never resonant)."""
    chis = (Fraction(5), Fraction(7), Fraction(11))[:r]
    return ToroidalParams(Fraction(2), Fraction(3), chis, G=G)


def default_yangian(r=0, G=DEFAULT_G, zero_x=False):
    """h1=13, h2=1 (smallest vanishing combination has |a|+|b|=14 > 12)."""
    if zero_x:
        xs = (Fraction(0),) * r
        p = YangianParams(Fraction(13), Fraction(1), (), G=G)
        p.xs = xs
        return p
    xs = (Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))[:r]
    return YangianParams(Fraction(13), Fraction(1), xs, G=G)


def series_yangian(alpha, beta, xis=(), trunc=16, G=DEFAULT_G, degenerate=False):
    """Yangian parameters specialized along a single deformation direction:
    h1 = alpha*X, h2 = beta*X, x_a = xi_a*X as truncated series.

    degenerate=True permits alpha + beta = 0 (the collapsed third parameter)
    and skips the direction certification accordingly."""
    if not degenerate:
        YangianParams(Fraction(alpha), Fraction(beta), (), G=G)  # certify direction
    h1 = h_gen(trunc, Fraction(alpha))
    h2 = h_gen(trunc, Fraction(beta))
    xs = tuple(h_gen(trunc, Fraction(x)) for x in xis)
    p = YangianParams(h1, h2, xs, G=G, certify=False)
    p.alpha, p.beta, p.xis = Fraction(alpha), Fraction(beta), tuple(map(Fraction, xis))
    p.trunc = trunc
    return p


def series_toroidal(alpha, beta, xis=(), trunc=16, G=DEFAULT_G):
    """Matching exponentiated parameters: q_i = exp(h_i), chi_a = exp(x_a)."""
    yp = series_yangian(alpha, beta, xis, trunc=trunc, G=G)
    q1 = series_exp(yp.h1)
    q2 = series_exp(yp.h2)
    chis = tuple(series_exp(x) for x in yp.xs)
    tp = ToroidalParams(q1, q2, chis, G=G, certify=False)
    tp.yangian = yp
    return tp


def sample_generic_params(seed, flavor, r=0, G=DEFAULT_G, max_tries=500):
    """Deterministic small-rational parameter sampling with certification."""
    rng = random.Random(seed)

    def small_frac():
        n = rng.randint(2, 17)
        d = rng.randint(1, 13)
        return Fraction(n, d)

    for _ in range(max_tries):
        try:
            if flavor == "toroidal":
                q1 = small_frac()
                q2 = small_frac()
                chis = tuple(small_frac() + rng.randint(1, 9) for _ in range(r))
                return ToroidalParams(q1, q2, chis, G=G)
            elif flavor == "yangian":
                h1 = small_frac() + rng.randint(3, 20)
                h2 = Fraction(1)
                xs = tuple(Fraction(1, rng.randint(23, 97)) for _ in range(r))
                return YangianParams(h1, h2, xs, G=G)
            else:
                raise ValueError(f"unknown flavor {flavor!r}")
        except GenericityError:
            continue
    raise GenericityError(f"no generic point found after {max_tries} tries")
