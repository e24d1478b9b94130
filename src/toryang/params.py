"""Parameter packs and genericity certification.

Identities in the deformation parameters are checked by exact evaluation at
generic rational points.

Each parameter pack carries its family's weights (`mono`, `gap`, `frame`,
`unit`), and `KERNEL_WEIGHTS` lists the exponent pairs (a, b) of the three
kernel factors x - q1^a q2^b y.  The additive family is the multiplicative
one after  q1^a q2^b w -> a*h1 + b*h2 + w  and  1 - w/v -> w - v.  The
module formulas (`toroidal.py`), the fixed-point weights, chain contents
and kernel values (`whittaker.py`), and the pairwise-product generators and
wheel loci (`shuffle.py`) are written once over these weights.  The star
product's kernel numerator (`shuffle._kernel_factor`) stays selected by the
elements' flavor, since a star product reads of the pack only the weight
tuple its memo key holds.  The normalization constants are conventions of
each family, not substitutions.

Genericity is certified explicitly, by one function over the same weights
(`_certify`, bound as `certify` in both packs, each of which holds its
three message templates).  For 0 < |a| + |b| <= G there is no
q1^a q2^b = 1 (resp. a*h1 + b*h2 = 0); and for each ordered pair of
framings i != j, no q1^a q2^b / chi_j = 1/chi_i (resp.
a*h1 + b*h2 - x_j = -x_i) and no chi_i = chi_j (resp. x_i = x_j).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from .scalars import _exact, h_gen, series_exp

__all__ = [
    "GenericityError",
    "KERNEL_WEIGHTS",
    "ToroidalParams",
    "YangianParams",
    "default_toroidal",
    "default_yangian",
    "series_yangian",
    "series_toroidal",
    "sample_generic_params",
]

DEFAULT_G = 12

# (a, b) of the kernel factors x - q1^a q2^b y, i.e. q1, q2 and q3 = 1/(q1 q2)
KERNEL_WEIGHTS = ((1, 0), (0, 1), (-1, -1))


class GenericityError(ValueError):
    """Parameters violate a required non-resonance condition."""


def _pairs_upto(G):
    for a in range(-G, G + 1):
        for b in range(-G + abs(a), G - abs(a) + 1):
            if a or b:
                yield a, b


def _certify(self):
    """True, or GenericityError for the first relation found with
    0 < |a| + |b| <= G: mono(a, b, unit) == unit, then, for each ordered
    pair i != j of framings, mono(a, b, frame(j)) == frame(i), then
    frame(i) == frame(j).  Bound as `certify` in each pack class, so that
    each family's certification stays in its class's own namespace, where
    the traced benchmark looks it up (`perfbench/layers.py`)."""
    pairs = list(_pairs_upto(self.G))
    unit = self.unit
    for a, b in pairs:
        if self.mono(a, b, unit) == unit:
            raise GenericityError(self.UNIT_RELATION.format(a=a, b=b))
    for i, j in permutations(range(1, len(self.framings) + 1), 2):
        fi, fj = self.frame(i), self.frame(j)
        for a, b in pairs:
            if self.mono(a, b, fj) == fi:
                raise GenericityError(self.FRAMING_RELATION.format(a=a, b=b, i=i, j=j))
        if fi == fj:
            raise GenericityError(self.EQUAL_FRAMINGS.format(i=i, j=j))
    return True


class ToroidalParams:
    """q1, q2 units with q3 = 1/(q1*q2), plus framing units chi_1..chi_r."""

    UNIT_RELATION = "q1^{a} * q2^{b} = 1"
    FRAMING_RELATION = "chi_{i}/chi_{j} * q1^{a} * q2^{b} = 1"
    EQUAL_FRAMINGS = "chi_{i} = chi_{j}"

    def __init__(self, q1, q2, chis=(), G=DEFAULT_G, certify=True):
        # ints become Fractions (a TSeries passes through) and a float raises
        # TypeError, so no weight built from them is a float
        self.q1 = q1 = _exact(q1)
        self.q2 = q2 = _exact(q2)
        self.q3 = 1 / (q1 * q2)
        self.chis = tuple(map(_exact, chis))
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
        """q1^a q2^b w (q1^a q2^b computed once per (a, b), and returned as
        it is for w the unit)."""
        m = self._monos.get((a, b))
        if m is None:
            m = self._monos[a, b] = self.q1 ** a * self.q2 ** b
        return m if w is self.unit else m * w

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

    certify = _certify


class YangianParams:
    """h1, h2 with h3 = -h1-h2, plus framing shifts x_1..x_r."""

    UNIT_RELATION = "{a}*h1 + {b}*h2 = 0"
    FRAMING_RELATION = "{a}*h1 + {b}*h2 + x_{i} - x_{j} = 0"
    EQUAL_FRAMINGS = "x_{i} = x_{j}"

    def __init__(self, h1, h2, xs=(), G=DEFAULT_G, certify=True):
        # exact values only, as in ToroidalParams
        self.h1 = h1 = _exact(h1)
        self.h2 = h2 = _exact(h2)
        self.h3 = -h1 - h2
        self.xs = tuple(map(_exact, xs))
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
        """a*h1 + b*h2 + w (a*h1 + b*h2 computed once per (a, b), and
        returned as it is for w the unit)."""
        m = self._monos.get((a, b))
        if m is None:
            m = self._monos[a, b] = a * self.h1 + b * self.h2
        return m if w is self.unit else m + w

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

    certify = _certify


def default_toroidal(r=0, G=DEFAULT_G):
    """Prime-power generic point: q1=2, q2=3, framings 5, 7 (never resonant)."""
    chis = (Fraction(5), Fraction(7), Fraction(11))[:r]
    return ToroidalParams(Fraction(2), Fraction(3), chis, G=G)


def default_yangian(r=0, G=DEFAULT_G):
    """h1=13, h2=1 (smallest vanishing combination has |a|+|b|=14 > 12)."""
    xs = (Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))[:r]
    return YangianParams(Fraction(13), Fraction(1), xs, G=G)


def series_yangian(alpha, beta, xis=(), trunc=16, G=DEFAULT_G, degenerate=False):
    """Yangian parameters specialized along a single deformation direction:
    h1 = alpha*X, h2 = beta*X, x_a = xi_a*X as truncated series.

    degenerate=True permits alpha + beta = 0 (the collapsed third parameter)
    and skips the direction certification accordingly."""
    if not degenerate:
        YangianParams(alpha, beta, (), G=G)  # certify direction
    h1 = h_gen(trunc, alpha)
    h2 = h_gen(trunc, beta)
    xs = tuple(h_gen(trunc, x) for x in xis)
    return YangianParams(h1, h2, xs, G=G, certify=False)


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
