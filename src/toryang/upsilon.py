"""The loop-to-additive bridge realized on module vectors over a truncated
series scalar ring.

All parameters are specialized along a single deformation direction
(h1, h2 and the framing shifts are rational multiples of one symbol), so
every identity becomes an exact statement about truncated Laurent series.
Diagonal data per basis label: the log of the diagonal eigenvalue, its
inverse Borel transform, and the glueing unit g built from it.  The module
keeps psi factored as (constant, zeros, poles), so the coefficients of
log psi are power sums of the poles minus power sums of the zeros, with no
series expansion or series logarithm.  Raising and lowering images act
transition-by-transition with the glueing unit evaluated on the
post-action label.  All per-label and per-transition data is memoized on
first use; constructing a bridge computes none of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .params import series_yangian, series_toroidal
from .repbase import vsub
from .scalars import (TSeries, series_exp, series_sqrt, series_zlog,
                      expm1_over, is_zero_mod, ratfn_log_coeffs, ScalarDomainError)
from .yangian import CohomologyFixedPointModule
from .toroidal import KTheoryFixedPointModule, DiagonalTwist

__all__ = [
    "inverse_borel",
    "gprime_series",
    "UpsilonBridge",
    "borel_kernel_identity",
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
    g = -series_zlog(sv)
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
        self._mode_cache = {}

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
    def _mode_coeff(self, kind, label, tgt, base, point, k):
        """base * norm * exp(k * point) * g on one transition, memoized per
        (transition, k); the glueing unit is evaluated on the target."""
        key = (kind, label, tgt, k)
        if key not in self._mode_cache:
            norm = self.e_norm if kind == "e" else self.f_norm
            g = self.g_at(tgt, point, key=(kind, tgt, label))
            self._mode_cache[key] = base * norm * series_exp(point * k) * g
        return self._mode_cache[key]

    def apply_e(self, k, vec):
        out = {}
        for label, c in vec.items():
            for (tgt, base, point) in self.module.e_transitions(label):
                add = c * self._mode_coeff("e", label, tgt, base, point, k)
                out[tgt] = out.get(tgt, 0) + add
        return {t: c for t, c in out.items() if c}

    def apply_f(self, k, vec):
        out = {}
        for label, c in vec.items():
            for (tgt, base, point) in self.module.f_transitions(label):
                add = c * self._mode_coeff("f", label, tgt, base, point, k)
                out[tgt] = out.get(tgt, 0) + add
        return {t: c for t, c in out.items() if c}

    def H_eigen(self, label, m):
        return self.B_at(label, m) / self.one_minus_q3

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
                        rhs = (diag - diag2) / self.one_minus_q3
                        resid = vsub(lhs, {label: rhs})
                        for c in resid.values():
                            if not is_zero_mod(c, hmod):
                                fails.append(("t3", label, i, j))
                                break
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
                        rhs = self.apply_e(i + j, v)
                        resid = vsub(lhs, rhs)
                        for c in resid.values():
                            if not is_zero_mod(c, hmod):
                                fails.append(("t4t", label, i, j))
                                break
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
                for c in resid.values():
                    if not is_zero_mod(c, hmod):
                        fails.append(("cubic", label))
                        break
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


def kappa_series_twist(params_t, r):
    """Diagonal unit aligning the series K-theory module with the canonical
    central normalization (equal and opposite halves of the vacuum weight)."""
    h3 = params_t.yangian.h3
    return params_t.fixed_psi_norm(r) * series_exp(h3 * Fraction(r, 2))


def ch_solver(alpha, beta, xis, r, level_bound, trunc=16, hmod=9,
              modes=(-1, 0, 1, 2), hrange=(1, 2)):
    """Solve the diagonal comparison map from the renormalized series
    K-theory module to the additive module through the bridge images.

    Returns (constants, failures).  Verified: mode-independence of the
    one-box ratios, lowering consistency, and the diagonal (log-mode)
    eigenvalue match.
    """
    bridge = UpsilonBridge(alpha, beta, xis, r, trunc=trunc)
    pt = series_toroidal(alpha, beta, xis, trunc=trunc)
    q1, q2 = pt.q1, pt.q2
    T = kappa_series_twist(pt, r)
    mk = DiagonalTwist(KTheoryFixedPointModule(pt, r),
                       e_scale=(1 - q1),
                       f_scale=(1 - q2) * T.inv(),
                       psi_scale=T.inv())
    one = TSeries(0, [1], trunc)
    consts = {((),) * r: one}
    fails = []
    for level in range(level_bound):
        for mlam in bridge.module.basis(level):
            src = consts[mlam]
            ups = bridge.apply_e(0, {mlam: one})
            for (tgt, mc, mpnt) in mk.e_transitions(mlam):
                val = src * ups[tgt] / mc
                if tgt in consts:
                    if not is_zero_mod(consts[tgt] - val, hmod):
                        fails.append(("path-dependence", mlam, tgt))
                else:
                    consts[tgt] = val
    for level in range(level_bound + 1):
        for mlam in bridge.module.basis(level):
            src = consts[mlam]
            for k in modes:
                ups = bridge.apply_e(k, {mlam: one})
                for (tgt, mc, mpnt) in mk.e_transitions(mlam):
                    if tgt not in consts:
                        continue
                    lhs = consts[tgt] * mc * mpnt ** k
                    if not is_zero_mod(lhs - src * ups[tgt], hmod):
                        fails.append(("e-mode", k, mlam, tgt))
                upsf = bridge.apply_f(k, {mlam: one})
                for (tgt, mc, mpnt) in mk.f_transitions(mlam):
                    lhs = consts[tgt] * mc * mpnt ** k
                    if not is_zero_mod(lhs - src * upsf.get(tgt, 0), hmod):
                        fails.append(("f-mode", k, mlam, tgt))
            # diagonal log-mode match: K-side exponential modes vs Borel data
            for m in range(hrange[0], hrange[1] + 1):
                for sgn in (+1, -1):
                    ser = mk.psi_series(mlam, sgn, m + 1)
                    c0inv = ser.coeff(0).inv()
                    lg = series_zlog(ser.map_coeffs(lambda c: c * c0inv))
                    hk = lg.coeff(m) / (bridge.one_minus_q3 * sgn)
                    if not is_zero_mod(hk - bridge.H_eigen(mlam, sgn * m), hmod):
                        fails.append(("H-mode", sgn * m, mlam))
            # central normalization: vacuum weight halves match
            p0 = bridge.psi0(mlam)
            k_plus0 = mk.psi_series(mlam, +1, 1).coeff(0)
            want = series_exp(-bridge.params.h3 * p0 * Fraction(1, 2))
            if not is_zero_mod(k_plus0 - want, hmod):
                fails.append(("kappa", mlam))
    return consts, fails


def limit_h3_diffop_identities(scale=1, trunc=10, xcap=8, ks=(1, 2, -1), hmod=9):
    """Exact degeneration identities inside the additive shift-operator ring
    over the series coefficient ring (deformation symbol h = scale * X).

    For each k: the exponential sum over the diagonal images resums to
    (q^-k - 1) e^{kx} - q^-k c, and the lowering images resum in normal
    order to -(shifted exponential) i.e. q^-k e^{kx} on each x-degree.  The
    raising resummation is definitional (x^j monomials sum to e^{kx}
    directly) and carries no content to check.
    """
    from math import comb

    from .scalars import h_gen

    h = h_gen(trunc, Fraction(scale))
    qinv = lambda k: series_exp(-h * k)
    fails = []
    for k in ks:
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
