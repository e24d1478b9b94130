"""The loop-to-additive bridge realized on module vectors over a truncated
series scalar ring.

All parameters are specialized along a single deformation direction
(h1, h2 and the framing shifts are rational multiples of one symbol), so
every identity becomes an exact statement about truncated Laurent series.
Diagonal data per basis label: the log of the diagonal eigenvalue, its
inverse Borel transform, and the glueing unit g built from it.  The module
keeps psi factored as (constant, zeros, poles), so the coefficients of
log psi are power sums of the poles minus power sums of the zeros, with no
series expansion or series logarithm.  The raising and lowering images
keep mode-k rows [(target, base * norm * exp(k * point) * g)], with the
glueing unit g evaluated on the post-action label, and act through the same
row code as every module (`repbase.apply_mode`).  The comparison map from
the renormalized K-theory module is the Fock-factorization solver
(`toroidal.solve_intertwiner`) run against the bridge.  All per-label and
per-row data is memoized on first use; constructing a bridge computes none
of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .params import series_yangian, series_toroidal
from .repbase import apply_mode, is_vec_zero, vsub
from .scalars import (TSeries, series_exp, series_log, series_sqrt,
                      expm1_over, is_zero_mod, ratfn_log_coeffs, ScalarDomainError)
from .yangian import CohomologyFixedPointModule
from .toroidal import KTheoryFixedPointModule, DiagonalTwist, solve_intertwiner

__all__ = [
    "inverse_borel",
    "gprime_series",
    "UpsilonBridge",
    "borel_kernel_identity",
    "comparison_module",
    "ch_solver",
    "limit_h3_diffop_identities",
    "limit_h3_module_check",
]


def inverse_borel(zser, order):
    """sum a_i z^{-i-1}  ->  sum a_i w^i / i!  (input: series in X = 1/z).

    The input must be supported in strictly negative z-powers.
    """
    if zser.is_zero():
        return TSeries(order, [], order)
    if zser.val < 1:
        raise ScalarDomainError("inverse Borel transform needs only z^{-i-1} terms")
    coeffs = []
    for i in range(order):
        c = zser.coeff(i + 1) if i + 1 < zser.trunc else Fraction(0)
        coeffs.append(c / factorial(i))
    return TSeries(0, coeffs, order)


def gprime_series(order):
    """Derivative of log(v / (e^{v/2} - e^{-v/2})) as a rational series."""
    # e^{v/2} - e^{-v/2} = v * s(v), s(0) = 1
    s = [Fraction(0)] * order
    for k in range(1, 2 * order + 2, 2):
        if k - 1 < order:
            s[k - 1] = Fraction(2, 2 ** k * factorial(k))
    sv = TSeries(0, s, order)
    g = -series_log(sv)
    # derivative
    dc = [(g.val + i) * c for i, c in enumerate(g.coeffs)]
    return TSeries(g.val - 1, dc, g.trunc - 1)


class UpsilonBridge:
    """Image operators on the rank-r additive fixed-point module over the
    series ring, with per-label Borel data."""

    def __init__(self, alpha, beta, xis, r, trunc=16, degenerate=False):
        self.params = series_yangian(alpha, beta, xis, trunc=trunc,
                                     degenerate=degenerate)
        self.trunc = trunc
        self.r = r
        self.module = CohomologyFixedPointModule(self.params, r)
        self.q3 = series_exp(self.params.h3)
        self.one_minus_q3 = 1 - self.q3
        self._inv_one_minus_q3 = None  # zero at a degenerate direction
        self.gpre = series_sqrt(expm1_over(self.params.h3).inv()) \
            if self.params.h3 else TSeries(0, [1], trunc)
        # the homogenized presentation rescales the raising/lowering family
        # so that the degree-zero bracket matches the diagonal exponential
        # family; only the product of the two normalizations is pinned
        self.e_norm = self.params.h1
        self.f_norm = -self.params.h2
        self.gprime = gprime_series(trunc + 2)
        self._kcache = {}
        self._gcache = {}
        self._bcache = {}
        self._alpha_inv = {}
        self._row_cache = {}

    # -- per-label diagonal data ------------------------------------------
    def kcoeffs(self, label):
        """Coefficients of log psi(z) = sum k_i z^{-i-1} on the label.

        k_i = (p_{i+1}(poles) - p_{i+1}(zeros))/(i+1) from the power sums
        of psi's factors (psi -> 1 at z = infinity).
        """
        if label not in self._kcache:
            self._kcache[label] = ratfn_log_coeffs(self.module.psi_rat(label), +1,
                                                   self.trunc)
        return self._kcache[label]

    def psi0(self, label):
        """Eigenvalue of the degree-zero diagonal mode: psi = 1 - h3 sum psi_i z^{-i-1}.

        The z^-1 coefficients of psi and of log psi agree, so psi_0 = -k_0/h3.
        """
        return -self.kcoeffs(label)[0] / self.params.h3

    def B_at(self, label, m):
        """Inverse Borel transform of log psi, evaluated at the integer m."""
        key = (label, m)
        if key not in self._bcache:
            tot = TSeries(self.trunc, [], self.trunc)
            for i, k in enumerate(self.kcoeffs(label)):
                if k and k.val < self.trunc:
                    tot = tot + k * Fraction(m ** i, factorial(i))
            self._bcache[key] = tot
        return self._bcache[key]

    def gamma_at(self, label, v):
        """gamma(v) = -B(-d/dv) G'(v) evaluated at a series point v."""
        ks = self.kcoeffs(label)
        gp = self.gprime
        tot = TSeries(self.trunc, [], self.trunc)
        vpow = [TSeries(0, [1], self.trunc)]
        for n in range(1, self.trunc + 1):
            vpow.append(vpow[-1] * v)
        for i, k in enumerate(ks):
            if not k or k.val >= self.trunc:
                continue
            # (-1)^i G'^{(i)}(v) = sum_n gp_{n+i} (n+i)!/n! v^n * (-1)^i
            acc = TSeries(self.trunc, [], self.trunc)
            for n in range(0, self.trunc - 1):
                if n + i >= gp.trunc:
                    break
                c = gp.coeff(n + i)
                if not c:
                    continue
                w = Fraction(factorial(n + i), factorial(n)) * c
                if n < len(vpow):
                    acc = acc + vpow[n] * w
            tot = tot + k * acc * Fraction((-1) ** i, factorial(i))
        return -tot

    def g_at(self, label, v, key=None):
        if key is not None and key in self._gcache:
            return self._gcache[key]
        val = self.gpre * series_exp(self.gamma_at(label, v) * Fraction(1, 2))
        if key is not None:
            self._gcache[key] = val
        return val

    # -- image operators ----------------------------------------------------
    def mode_row(self, kind, label, k):
        """[(target, base * norm * exp(k * point) * g)] over the 'e' or 'f'
        transitions of the label, computed once per (kind, label, k); the
        glueing unit is evaluated on the target."""
        key = (kind, label, k)
        row = self._row_cache.get(key)
        if row is None:
            if kind == "e":
                norm, ts = self.e_norm, self.module.e_transitions(label)
            else:
                norm, ts = self.f_norm, self.module.f_transitions(label)
            row = self._row_cache[key] = [
                (tgt, base * norm * series_exp(point * k)
                 * self.g_at(tgt, point, key=(kind, tgt, label)))
                for tgt, base, point in ts]
        return row

    def apply_e(self, k, vec):
        return apply_mode(self, "e", k, vec)

    def apply_f(self, k, vec):
        return apply_mode(self, "f", k, vec)

    def over_one_minus_q3(self, x):
        """x / (1 - q3), multiplying by the inverse computed on first use.

        A rational x is coerced as `x / (1 - q3)` coerces it, so the result
        and its truncation are those of the division."""
        if self._inv_one_minus_q3 is None:
            self._inv_one_minus_q3 = self.one_minus_q3.inv()
        return self.one_minus_q3._coerce(x) * self._inv_one_minus_q3

    def H_eigen(self, label, m):
        return self.over_one_minus_q3(self.B_at(label, m))

    def t_eigen(self, label, m):
        if m not in self._alpha_inv:
            q1, q2, q3 = (series_exp(self.params.h1), series_exp(self.params.h2), self.q3)
            alpha_m = (1 - q1 ** (-m)) * (1 - q2 ** (-m)) * (1 - q3 ** (-m)) / m
            self._alpha_inv[m] = alpha_m.inv()
        return self.B_at(label, m) * self._alpha_inv[m]

    def psi_pm_coeff(self, label, sign, k, kmax):
        """Mode k >= 0 of the reconstructed diagonal exponential family.

        Coefficients of the z-direction series live in the deformation ring,
        so scalar factors multiply coefficient-wise (never across levels).
        """
        key = ("psipm", label, sign, kmax)
        if key not in self._gcache:
            h3 = self.params.h3
            p0 = self.psi0(label)
            order = kmax + 1
            body = TSeries(order, [], order)
            for m in range(1, kmax + 1):
                b = self.B_at(label, sign * m) * sign
                if b:
                    body = body + TSeries(m, [b], order)
            pref = series_exp(-h3 * p0 * Fraction(sign, 2))
            ser = series_exp(body).map_coeffs(lambda c: c * pref)
            self._gcache[key] = ser
        return self._gcache[key].coeff(k)

    # -- audits --------------------------------------------------------------
    def audit_t3(self, level_bound, window, hmod):
        """[image e_i, image f_j] minus the reconstructed diagonal, termwise."""
        fails = []
        for level in range(level_bound + 1):
            for label in self.module.basis(level):
                v = {label: TSeries(0, [1], self.trunc)}
                for i in range(-window, window + 1):
                    ei = self.apply_e(i, v)
                    for j in range(-window, window + 1):
                        lhs = vsub(self.apply_e(i, self.apply_f(j, v)), self.apply_f(j, ei))
                        k = i + j
                        diag = self.psi_pm_coeff(label, +1, k, 2 * window) if k >= 0 else 0
                        diag2 = self.psi_pm_coeff(label, -1, -k, 2 * window) if k <= 0 else 0
                        rhs = self.over_one_minus_q3(diag - diag2)
                        if not is_vec_zero(vsub(lhs, {label: rhs}), hmod):
                            fails.append(("t3", label, i, j))
        return fails

    def audit_t4_ladder(self, level_bound, i_range, j_range, hmod):
        """Per-transition [image t_i, image e_j] = image e_{i+j}."""
        fails = []
        for level in range(level_bound + 1):
            for label in self.module.basis(level):
                v = {label: TSeries(0, [1], self.trunc)}
                for i in i_range:
                    if i == 0:
                        continue
                    for j in j_range:
                        lhs = {}
                        ej = self.apply_e(j, v)
                        for tgt, c in ej.items():
                            lhs[tgt] = c * (self.t_eigen(tgt, i) - self.t_eigen(label, i))
                        if not is_vec_zero(vsub(lhs, self.apply_e(i + j, v)), hmod):
                            fails.append(("t4t", label, i, j))
        return fails

    def audit_cubic(self, level_bound, hmod):
        """[e_0-image, [e_1-image, e_{-1}-image]] annihilates every vector."""
        fails = []
        for level in range(level_bound + 1):
            for label in self.module.basis(level):
                v = {label: TSeries(0, [1], self.trunc)}

                def inner(vv):
                    return vsub(self.apply_e(1, self.apply_e(-1, vv)),
                                self.apply_e(-1, self.apply_e(1, vv)))

                resid = vsub(self.apply_e(0, inner(v)), inner(self.apply_e(0, v)))
                if not is_vec_zero(resid, hmod):
                    fails.append(("cubic", label))
        return fails


def borel_kernel_identity(bridge, level_bound, worder, hmod):
    """Difference of Borel data across one box equals the three-fold
    hyperbolic kernel times the exponential of the content."""
    p = bridge.params
    fails = []
    for level in range(level_bound + 1):
        for label in bridge.module.basis(level):
            for (tgt, base, point) in bridge.module.e_transitions(label):
                for w in range(-worder, worder + 1):
                    if w == 0:
                        continue
                    lhs = bridge.B_at(tgt, w) - bridge.B_at(label, w)
                    rhs = TSeries(bridge.trunc, [], bridge.trunc)
                    for h in p.hs:
                        rhs = rhs + (series_exp(h * w) - series_exp(-h * w))
                    rhs = rhs * Fraction(1, w) * series_exp(point * w)
                    if not is_zero_mod(lhs - rhs, hmod):
                        fails.append((label, tgt, w))
    return fails


def borel_log_identity(order, gamma=Fraction(3, 7)):
    """B(log(1 - gamma/z)) == (1 - e^{gamma w})/w for a rational gamma."""
    lg = TSeries(order + 1, [], order + 1)
    for i in range(1, order + 1):
        lg = lg + TSeries(i, [-(gamma ** i) / i], order + 1)
    b = inverse_borel(lg, order)
    ew = series_exp(TSeries(1, [gamma], order + 1))
    rhs = (1 - ew).shift(-1)
    return (b - rhs).is_zero()


def comparison_module(params_t, r):
    """The renormalized series K-theory module that `ch_solver` compares with
    the bridge: e scaled by 1-q1, f by (1-q2)/T and psi by 1/T, where the
    unit T aligns it with the canonical central normalization (equal and
    opposite halves of the vacuum weight)."""
    T = params_t.fixed_psi_norm(r) * series_exp(params_t.yangian.h3 * Fraction(r, 2))
    return DiagonalTwist(KTheoryFixedPointModule(params_t, r),
                         e_scale=(1 - params_t.q1),
                         f_scale=(1 - params_t.q2) * T.inv(),
                         psi_scale=T.inv())


def ch_solver(alpha, beta, xis, r, level_bound, trunc=16, hmod=9):
    """Solve the diagonal comparison map from the renormalized series
    K-theory module to the additive module through the bridge images.

    Returns `solve_intertwiner`'s (constants, failures) modulo X^hmod, with
    the series one at the empty label, and further failures: the diagonal
    log-mode eigenvalue match and the central normalization.  Both read
    psi's factors: log-modes are power sums of its zeros and poles, and the
    vacuum weight is its constant.
    """
    bridge = UpsilonBridge(alpha, beta, xis, r, trunc=trunc)
    mk = comparison_module(series_toroidal(alpha, beta, xis, trunc=trunc), r)
    consts, fails = solve_intertwiner(mk, bridge, level_bound, (-1, 0, 1, 2), lambda x: x,
                                      TSeries(0, [1], trunc), hmod)
    for level in range(level_bound + 1):
        for mlam in mk.basis(level):
            psi = mk.psi_rat(mlam)
            # diagonal log-mode match: K-side exponential modes vs Borel data
            for m in (1, 2):
                for sgn in (+1, -1):
                    hk = bridge.over_one_minus_q3(ratfn_log_coeffs(psi, sgn, m)[m - 1] / sgn)
                    if not is_zero_mod(hk - bridge.H_eigen(mlam, sgn * m), hmod):
                        fails.append(("H-mode", sgn * m, mlam))
            # central normalization: vacuum weight halves match
            want = series_exp(-bridge.params.h3 * bridge.psi0(mlam) * Fraction(1, 2))
            if not is_zero_mod(psi.factors[0] - want, hmod):
                fails.append(("kappa", mlam))
    return consts, fails


def limit_h3_diffop_identities(trunc=10, xcap=8, hmod=9):
    """Exact degeneration identities inside the additive shift-operator ring
    over the series coefficient ring (deformation symbol h = X).

    For each k in (1, 2, -1): the exponential sum over the diagonal images
    resums to (q^-k - 1) e^{kx} - q^-k c, and the lowering images resum in
    normal order to -(shifted exponential) i.e. q^-k e^{kx} on each
    x-degree.  The raising resummation is definitional (x^j monomials sum
    to e^{kx} directly) and carries no content to check.
    """
    from math import comb

    from .scalars import h_gen

    h = h_gen(trunc)
    qinv = lambda k: series_exp(-h * k)
    fails = []
    for k in (1, 2, -1):
        # diagonal family: sum_i k^i/i! [(x-h)^i - x^i] on each x-degree
        for m in range(0, xcap + 1):
            tot = TSeries(trunc, [], trunc)
            for i in range(m, m + trunc + 1):
                c = Fraction(k ** i, factorial(i)) * comb(i, m)
                if c:
                    tot = tot + ((-h) ** (i - m)) * c
            tot = tot - Fraction(k ** m, factorial(m))
            want = (qinv(k) - 1) * Fraction(k ** m, factorial(m))
            if not is_zero_mod(tot - want, hmod):
                fails.append(("H-poly", k, m))
        # central part: -sum_i k^i/i! (-h)^i = -q^{-k}
        cent = TSeries(trunc, [], trunc)
        for i in range(0, trunc + 2):
            cent = cent + (-((-h) ** i)) * Fraction(k ** i, factorial(i))
        if not is_zero_mod(cent + qinv(k), hmod):
            fails.append(("H-central", k))
        # lowering family: sum_i k^i/i! (x-h)^i = q^{-k} e^{kx} degree-wise
        for m in range(0, xcap + 1):
            tot = TSeries(trunc, [], trunc)
            for i in range(m, m + trunc + 1):
                c = Fraction(k ** i, factorial(i)) * comb(i, m)
                if c:
                    tot = tot + ((-h) ** (i - m)) * c
            want = qinv(k) * Fraction(k ** m, factorial(m))
            if not is_zero_mod(tot - want, hmod):
                fails.append(("f-poly", k, m))
    return fails


def limit_h3_module_check(r, level_bound=2, trunc=10, hmod=8):
    """At the degenerate direction (h3 = 0) the glueing data trivializes:
    the Borel data vanishes and g == 1 on every label and support point.

    Matrix coefficients themselves blow up there (they carry 1/(h1+h2)
    factors), so this works purely through the diagonal data and the
    box-content support points.
    """
    from . import partitions as pt

    bridge = UpsilonBridge(1, -1, tuple(Fraction(1, 5 + 2 * a) for a in range(r)),
                           r, trunc=trunc, degenerate=True)
    p = bridge.params
    fails = []
    for level in range(level_bound + 1):
        for label in bridge.module.basis(level):
            for m in (1, 2, 3):
                if not is_zero_mod(bridge.B_at(label, m), hmod):
                    fails.append(("B", label, m))
            for (a, col, row) in pt.addable_boxes(label):
                point = (col - 1) * p.h1 + (row - 1) * p.h2 - p.xs[a - 1]
                tgt = pt.mp_add_box(label, a, row)
                g = bridge.g_at(tgt, point)
                if not is_zero_mod(g - 1, hmod):
                    fails.append(("g", label, tgt))
    return fails
