"""Modules for the additive (affine Yangian) family, plus the closed-form
eigenvalue oracles for the diagonalized commutators [e_i, f_j].

The additive modules are the multiplicative ones over additive params:
vector module on an integer chain, Fock module on partitions, and the
fixed-point basis of rank-r moduli cohomology on r-partitions, each written
once in `toroidal.py` over the family weights.  Modes are nonnegative here
and e(z) = sum_j e_j z^{-j-1}, which changes nothing in the
matrix-coefficient bookkeeping: the mode-j coefficient is
(support point)^j times the mode-0 one.
"""

from __future__ import annotations

from fractions import Fraction

from . import partitions as pt
from .repbase import ModuleWrapper, coeff_of
from .toroidal import (FixedPointModule, FockModule, VectorModule, fixed_point_lower,
                       fixed_point_psi, fixed_point_raise, solve_factorization)

__all__ = [
    "AVectorModule",
    "AFockModule",
    "CohomologyFixedPointModule",
    "fock_constant",
    "gamma_sharp",
    "gamma_heart",
    "gamma_spade",
    "AdmissibleError",
    "check_admissible",
    "restrict_tensor",
    "solve_fock_factorization_add",
]


AVectorModule = VectorModule
AFockModule = FockModule


class CohomologyFixedPointModule(FixedPointModule):
    """Fixed-point basis of rank-r framed-sheaf moduli, cohomology flavor."""

    _e_transitions = fixed_point_raise
    _f_transitions = fixed_point_lower
    _psi_rat = fixed_point_psi


def fock_constant(lam, params):
    """Diagonal constant carrying the rank-one fixed-point basis onto the
    additive Fock basis (zero shift).

    The cross-row ratio is oriented so that the map intertwines both the
    raising and lowering coefficients; the orientation is pinned by the
    intertwining test, which also fixes the one-box ratios uniquely.
    """
    h1, h2 = params.h1, params.h2
    c = Fraction(1)
    for i in range(1, len(lam) + 1):
        for p in range(0, pt.part(lam, i)):
            c = c * (-p * h1 + h2)
    for i in range(2, len(lam) + 1):
        for j in range(1, i):
            lj = pt.part(lam, j)
            for p in range(1, pt.part(lam, i) + 1):
                c = c * ((p - lj) * h1 + (i - j + 1) * h2) / ((p - lj) * h1 + (i - j) * h2)
    return c


# -- closed-form eigenvalue oracles ---------------------------------------

def gamma_sharp(lam, m, params, rows=None):
    """Rank-one additive eigenvalue of [e_i, f_j] with m = i+j, x = 0.

    Closed double sum over the first `rows` rows, rows >= len(lam) + 1 so
    that the first empty row participates.  The printed one-row-family form
    of this sum carries an ambiguous row-count convention; this version is
    pinned by stability (the value is unchanged when rows grows), which
    callers assert.
    """
    s1, s2 = params.h1, params.h2
    if rows is None:
        rows = len(lam) + 1
    if rows < len(lam) + 1:
        raise ValueError("row cutoff too small")
    y = [(pt.part(lam, i) - 1) * s1 + (i - 1) * s2 for i in range(1, rows + 1)]
    tot = Fraction(0)
    for i in range(1, rows + 1):
        yi = y[i - 1]
        t1 = yi ** m
        t2 = (yi + s1) ** m
        p1 = Fraction(1)
        p2 = Fraction(1)
        for j in range(1, rows + 1):
            if j == i:
                continue
            yj = y[j - 1]
            p1 = p1 * ((yi - yj + s2) * (yj - yi + s1 + s2)) / ((yi - yj) * (yj - yi + s1))
            p2 = p2 * ((yj - yi + s2) * (yi - yj + s1 + s2)) / ((yj - yi) * (yi - yj + s1))
        b1 = (yi + s1 + (1 - rows) * s2) / (-yi + rows * s2)
        b2 = (yi + 2 * s1 + (1 - rows) * s2) / (-yi - s1 + rows * s2)
        tot += t1 * p1 * b1 - t2 * p2 * b2
    return tot / s1 ** 2


def gamma_heart(mlam, s, params, r, cutoffs=None):
    """Rank-r multiplicative eigenvalue of [e_i, f_j] with s = i+j.

    Independent of the row cutoffs L_a > (first column length); callers
    assert this by recomputing at L_a + 1.
    """
    t1, t2 = params.q1, params.q2
    chis = params.chis
    if cutoffs is None:
        cutoffs = [len(mlam[a]) + 1 for a in range(r)]
    chi = {}
    for a in range(1, r + 1):
        for k in range(1, cutoffs[a - 1] + 2):
            chi[a, k] = t1 ** (pt.part(mlam[a - 1], k) - 1) * t2 ** (k - 1) / chis[a - 1]
    pref = t1 ** 2 * t2 ** 2 / (1 - t1) ** 2
    tot = 0
    for l in range(1, r + 1):
        Ll = cutoffs[l - 1]
        for j in range(1, Ll + 1):
            cj = chi[l, j]
            # first sum: remove-then-add at the end of row j
            term1 = pref * cj ** (s - r)
            term1 *= cj * (1 - cj * t2 ** (1 - Ll) * t1 * chis[l - 1]) / (cj - t2 ** Ll / chis[l - 1])
            for k in range(1, Ll + 1):
                if k == j:
                    continue
                ck = chi[l, k]
                term1 *= ((cj - t1 * t2 * ck) * (ck - t2 * cj)) / ((cj - t1 * ck) * (ck - cj))
            for a in range(1, r + 1):
                if a == l:
                    continue
                La = cutoffs[a - 1]
                term1 *= cj * (1 - cj * t2 ** (1 - La) * t1 * chis[a - 1]) / (cj - t2 ** La / chis[a - 1])
                for k in range(1, La + 1):
                    ck = chi[a, k]
                    term1 *= ((cj - t1 * t2 * ck) * (ck - t2 * cj)) / ((cj - t1 * ck) * (ck - cj))
            # second sum: add-then-remove one column to the right
            term2 = pref * (t1 * cj) ** (s - r)
            term2 *= cj * (1 - cj * t2 ** (1 - Ll) * t1 ** 2 * chis[l - 1]) / (cj - t2 ** Ll / (t1 * chis[l - 1]))
            for k in range(1, Ll + 1):
                if k == j:
                    continue
                ck = chi[l, k]
                term2 *= ((ck - t1 * t2 * cj) * (cj - t2 * ck)) / ((ck - t1 * cj) * (cj - ck))
            for a in range(1, r + 1):
                if a == l:
                    continue
                La = cutoffs[a - 1]
                term2 *= cj * (1 - cj * t2 ** (1 - La) * t1 ** 2 * chis[a - 1]) / (cj - t2 ** La / (t1 * chis[a - 1]))
                for k in range(1, La + 1):
                    ck = chi[a, k]
                    term2 *= ((ck - t1 * t2 * cj) * (cj - t2 * ck)) / ((ck - t1 * cj) * (cj - ck))
            tot += term1 - term2
    return tot


def gamma_spade(mlam, s, params, r, cutoffs=None):
    """Rank-r additive eigenvalue of [e_i, f_j] with s = i+j."""
    s1, s2 = params.h1, params.h2
    xs = params.xs
    if cutoffs is None:
        cutoffs = [len(mlam[a]) + 1 for a in range(r)]
    xr = {}
    for a in range(1, r + 1):
        for k in range(1, cutoffs[a - 1] + 2):
            xr[a, k] = (pt.part(mlam[a - 1], k) - 1) * s1 + (k - 1) * s2 - xs[a - 1]
    tot = 0
    for l in range(1, r + 1):
        Ll = cutoffs[l - 1]
        for j in range(1, Ll + 1):
            xj = xr[l, j]
            term1 = xj ** s / s1 ** 2
            term1 *= (xj + (1 - Ll) * s2 + s1 + xs[l - 1]) / (-xj + Ll * s2 - xs[l - 1])
            for k in range(1, Ll + 1):
                if k == j:
                    continue
                xk = xr[l, k]
                term1 *= ((xj - xk - s1 - s2) * (xk - xj - s2)) / ((xj - xk - s1) * (xk - xj))
            for a in range(1, r + 1):
                if a == l:
                    continue
                La = cutoffs[a - 1]
                term1 *= (xj + (1 - La) * s2 + s1 + xs[a - 1]) / (xj - La * s2 + xs[a - 1])
                for k in range(1, La + 1):
                    xk = xr[a, k]
                    term1 *= ((xj - xk - s1 - s2) * (xk - xj - s2)) / ((xj - xk - s1) * (xk - xj))
            term2 = (xj + s1) ** s / s1 ** 2
            term2 *= (xj + (1 - Ll) * s2 + 2 * s1 + xs[l - 1]) / (-xj + Ll * s2 - s1 - xs[l - 1])
            for k in range(1, Ll + 1):
                if k == j:
                    continue
                xk = xr[l, k]
                term2 *= ((xk - xj - s1 - s2) * (xj - xk - s2)) / ((xk - xj - s1) * (xj - xk))
            for a in range(1, r + 1):
                if a == l:
                    continue
                La = cutoffs[a - 1]
                term2 *= (xj + (1 - La) * s2 + 2 * s1 + xs[a - 1]) / (xj - La * s2 + s1 + xs[a - 1])
                for k in range(1, La + 1):
                    xk = xr[a, k]
                    term2 *= ((xk - xj - s1 - s2) * (xj - xk - s2)) / ((xk - xj - s1) * (xj - xk))
            tot += term1 - term2
    return tot


# -- admissibility and restricted tensor products --------------------------

class AdmissibleError(ValueError):
    pass


def check_admissible(module, labels):
    """Verify the diagonal eigenvalue is reconstructed from the raising and
    lowering data (the defining admissibility identity)."""
    sig3 = module.params.sigma3()
    for alpha in labels:
        rf = module.psi_rat(alpha)
        # build 1 + sig3 [ sum_f d*c/(z - pt) - sum_e c*d/(z - pt) ]
        terms = []
        for (tgt, d, ptf) in module.f_transitions(alpha):
            c_back = coeff_of(module.e_transitions(tgt), alpha)
            terms.append((sig3 * d * c_back, ptf))
        for (tgt, c, pte) in module.e_transitions(alpha):
            d_back = coeff_of(module.f_transitions(tgt), alpha)
            terms.append((-sig3 * c * d_back, pte))
        num, den = _sum_simple_poles(terms)
        if not rf.num * den == rf.den * num:
            raise AdmissibleError(f"diagonal data of {alpha!r} is not admissible")
    return True


def _sum_simple_poles(terms):
    """1 + sum c/(z - a) as a (num, den) polynomial pair."""
    from .scalars import Poly

    den = Poly([1])
    for _, a in terms:
        den = den * Poly([-a, 1])
    num = Poly(list(den.c))
    for i, (c, a) in enumerate(terms):
        part = Poly([c])
        for j, (_, b) in enumerate(terms):
            if j != i:
                part = part * Poly([-b, 1])
        num = num + part
    return num, den


def restrict_tensor(tensor, pred, levels, windows=None):
    """Restrict a tensor module to the labels satisfying pred.

    Decides between the two closure patterns: either nothing escapes the
    subset (submodule) or nothing enters it from outside (quotient acts on
    the subset); raises AdmissibleError when neither holds on the sampled
    label window.
    """
    sub_ok = True
    quot_ok = True
    sample = []
    for lv in levels:
        sample.extend(tensor.basis(lv))
    inside = [l for l in sample if pred(l)]
    outside = [l for l in sample if not pred(l)]
    for l in inside:
        for (tgt, c, p) in tensor.e_transitions(l) + tensor.f_transitions(l):
            if c and not pred(tgt):
                sub_ok = False
    for l in outside:
        for (tgt, c, p) in tensor.e_transitions(l) + tensor.f_transitions(l):
            if c and pred(tgt):
                quot_ok = False
    if not (sub_ok or quot_ok):
        raise AdmissibleError("subset is closed in neither direction")
    return RestrictedModule(tensor, pred), ("sub" if sub_ok else "quot")


class RestrictedModule(ModuleWrapper):
    def __init__(self, base, pred):
        super().__init__(base)
        self.pred = pred

    def basis(self, level):
        return [l for l in self.base.basis(level) if self.pred(l)]

    def _e_transitions(self, label):
        return [(t, c, p) for (t, c, p) in self.base.e_transitions(label) if self.pred(t)]

    def _f_transitions(self, label):
        return [(t, c, p) for (t, c, p) in self.base.f_transitions(label) if self.pred(t)]


def solve_fock_factorization_add(params, r, level_bound, modes=(0, 1, 2), order=6):
    """Additive Fock factorization: `solve_factorization` on the fixed-point
    module itself, with psi compared at z = infinity only."""
    return solve_factorization(CohomologyFixedPointModule(params, r), params, r,
                               level_bound, modes, order, directions=(+1,))
