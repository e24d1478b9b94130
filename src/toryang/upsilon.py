"""The loop-to-additive bridge realized on module vectors over a truncated
series scalar ring.

All parameters are specialized along a single deformation direction
(h1, h2 and the framing shifts are rational multiples of one symbol), so
every identity becomes an exact statement about truncated Laurent series.
Diagonal data per basis label: the log of the diagonal eigenvalue, its
inverse Borel transform, and the glueing unit g built from it.  The module
keeps psi factored as (constant, zeros, poles), so the coefficients of
log psi are power sums of the poles minus power sums of the zeros, with no
series expansion or series logarithm; the power sums run on integer
numerators in the module's kept mode table (`Module.psi_modes`,
`scalars.RatFnModes`), where each root, a rational multiple of the
deformation symbol, keeps its powers as ints.  The inverse Borel transform
B(m) = sum_i k_i m^i/i! and the Borel sums D_n below share the label's
k-rows (`_krows`: each k_i's numerators over one denominator), and each
is one integer pass over them, with no Fraction built on the way.

The exponent gamma(v) = -B(-d/dv)G'(v) of the glueing unit is a double sum
over the Borel index i and the power n of the point v.  It is summed over
i first: per bridge, the label-independent weights (-1)^i C(n+i, i)
G'_{n+i}; per label, on integers, the series D_n = sum_i (-1)^i C(n+i, i)
G'_{n+i} k_i; per call, Horner's rule in v.  The (i, n) terms are those of
the double sum, and at a transition point every partial result is known
mod X^trunc or better, so the values and the truncation are those of the
double sum.  The bridge is a `repbase.Module`: its raising and lowering
transitions are the additive module's, each glued once as (target,
base * norm * g, point) with the glueing unit g evaluated on the
post-action label, and an additive support point acts multiplicatively,
its factor at mode k exp(k * point) (`point_power`).  So its rows, its
public actions and the rows the relation sweep compiles, each series its
own numerator over 1, are those of every module; t is read from its
eigenvalue `t_eigen`.  Its psi+- letters read the reconstructed diagonal
family over (1 - q3) (`psi_coeff`); it keeps no factored psi, so a psiy
letter raises ValueError.
The comparison map from the renormalized K-theory module is the
Fock-factorization solver (`toroidal.solve_intertwiner`) run against the
bridge.  The audits of T3, T4t and the e half of T6t are instance lists
run through the relation engine's sweep (`repbase.RelationSweep`), T3 as
on a module (`repbase._t3_terms`) with the coefficient 1 in place of
1/beta_1, since the bridge's psi+- carry the 1/(1 - q3).  psi+- is kept as
the list of its modes, each a series in the deformation symbol, from the
exponential recurrence on the Borel data (`psi_pm_coeff`), extended in
place when a larger mode is read; no series has series coefficients.
Per-label and per-row data follows the memo rule of `repbase`: it is
computed on first use and kept on the bridge, so constructing a bridge
computes none of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .params import series_yangian, series_toroidal
from .repbase import Module, RelationSweep, memoized, _ladder_instances, _nested, _t3_terms
from .scalars import (TSeries, series_exp, series_log, series_sqrt,
                      expm1_over, is_zero_mod, ScalarDomainError,
                      _int_content, _series)
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
    dc = [(g.val + i) * c for i, c in enumerate(g.nums)]
    return _series(g.val - 1, dc, g.den, g.trunc - 1)


class UpsilonBridge(Module):
    """Image operators on the rank-r additive fixed-point module over the
    series ring, with per-label Borel data: a `Module` whose e and f
    transitions are the additive module's, glued, and whose psi+- is the
    reconstructed diagonal family over 1 - q3."""

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

    # -- per-label diagonal data ------------------------------------------
    @memoized
    def kcoeffs(self, label):
        """Coefficients of log psi(z) = sum k_i z^{-i-1} on the label.

        k_i = (p_{i+1}(poles) - p_{i+1}(zeros))/(i+1) from the power sums
        of psi's factors (psi -> 1 at z = infinity), read from the module's
        mode table, which keeps them.
        """
        modes = self.module.psi_modes(label, +1)
        return [modes.log_coeff(n) for n in range(1, self.trunc + 1)]

    def psi0(self, label):
        """Eigenvalue of the degree-zero diagonal mode: psi = 1 - h3 sum psi_i z^{-i-1}.

        The z^-1 coefficients of psi and of log psi agree, so psi_0 = -k_0/h3.
        """
        return -self.kcoeffs(label)[0] / self.params.h3

    def _krows(self, label):
        """The label's k-rows, which `B_at` and `gamma_sums` read:
        (base, width, dk, {i: (offset, numerators, trunc)}) with
        k_i = X^(base+offset) sum_j numerators[j] X^j / dk mod X^trunc, for
        the nonzero k_i of valuation < trunc, and every offset + len(numerators)
        <= width; None when there is no such k_i.  Not kept: the readers
        keep their results, and the rows are cheap to rebuild from the kept
        `kcoeffs`."""
        T = self.trunc
        live = [(i, k) for i, k in enumerate(self.kcoeffs(label)) if k and k.val < T]
        if not live:
            return None
        base = min(k.val for _, k in live)
        width = max(k.val + len(k.nums) for _, k in live) - base
        dk = lcm(*[k.den for _, k in live])
        return base, width, dk, {i: (k.val - base, [c * (dk // k.den) for c in k.nums], k.trunc)
                                 for i, k in live}

    @memoized
    def B_at(self, label, m):
        """Inverse Borel transform of log psi, evaluated at the integer m:
        B(m) = sum_i k_i m^i/i!, summed on the k-rows over dk f!, f the
        largest i, known mod X^trunc or the least trunc of a k_i."""
        T = self.trunc
        krows = self._krows(label)
        if krows is None:
            return TSeries(T, [], T)
        base, width, dk, rows = krows
        f = factorial(max(rows))
        acc, trunc = [0] * width, T
        for i, (off, row, t) in rows.items():
            trunc = min(trunc, t)
            w = m ** i * (f // factorial(i))
            if w:
                for j, c in enumerate(row):
                    acc[off + j] += w * c
        return _series(base, acc, dk * f, trunc)

    @memoized
    def gamma_weights(self):
        """[(d_n, [(i, W_ni)]) for n = 0..trunc-2] with W_ni/d_n the rational
        (-1)^i C(n+i, i) G'_{n+i}, over the i < trunc with n + i inside G'
        and G'_{n+i} != 0.  The weights do not depend on the label."""
        gp, rows = self.gprime, []
        for n in range(self.trunc - 1):
            ws = [(i, (-1) ** i * comb(n + i, i) * gp.coeff(n + i))
                  for i in range(min(self.trunc, gp.trunc - n)) if gp.coeff(n + i)]
            nums, d = _int_content([w for _, w in ws])
            rows.append((d, [(i, a) for (i, _), a in zip(ws, nums)]))
        return rows

    @memoized
    def gamma_sums(self, label):
        """[-D_n for n = 0..trunc-2] on the label, None where no term enters:
        D_n = sum_i W_ni/d_n k_i over the weights and the k-rows (`_krows`),
        summed on integers (one TSeries per n, known mod X^trunc)."""
        krows = self._krows(label)
        out = []
        if krows is not None:
            base, width, dk, rows = krows
            for dw, ws in self.gamma_weights():
                acc, trunc, hit = [0] * width, self.trunc, False
                for i, w in ws:
                    if i in rows:
                        off, row, t = rows[i]
                        hit, trunc = True, min(trunc, t)
                        for j, c in enumerate(row):
                            acc[off + j] -= w * c
                out.append(_series(base, acc, dk * dw, trunc) if hit else None)
        return out

    def gamma_at(self, label, v):
        """gamma(v) = -B(-d/dv) G'(v) evaluated at a series point v.

        With B(w) = sum_i k_i w^i/i! and G'(v) = sum_m G'_m v^m,
        gamma(v) = -sum_i (-1)^i k_i/i! G'^(i)(v) = -sum_n D_n v^n with
        D_n = sum_i (-1)^i C(n+i, i) G'_{n+i} k_i.  The D_n are kept per
        label (`gamma_sums`), so a call is Horner's rule in v, capped at
        O(X^trunc).  It sums the same finite set of (i, n) terms as the
        double sum over i and n; for a point of valuation >= 0 known mod
        X^trunc (every transition point) and the k_i of `kcoeffs` (known mod
        X^trunc or better), every partial result of either order is known
        mod X^trunc or better, so both give the same coefficients mod X^trunc
        and the same truncation, trunc.
        """
        T = self.trunc
        acc = None
        for d in reversed(self.gamma_sums(label)):
            if acc is not None:
                acc = acc * v
            if d is not None:
                acc = d if acc is None else acc + d
        if acc is None:
            return TSeries(T, [], T)
        # above trunc only when D_0 is empty and the last step was a product
        return acc if acc.trunc <= T else _series(acc.val, acc.nums, acc.den, T)

    def g_at(self, label, v):
        """The glueing unit gpre * exp(gamma(v)/2) on the label."""
        return self.gpre * series_exp(self.gamma_at(label, v) * Fraction(1, 2))

    # -- the module: glued transitions acting through `point_power` -----------
    def basis(self, level):
        return self.module.basis(level)

    def _e_transitions(self, label):
        return [(tgt, base * self.e_norm * self.g_at(tgt, point), point)
                for tgt, base, point in self.module.e_transitions(label)]

    def _f_transitions(self, label):
        return [(tgt, base * self.f_norm * self.g_at(tgt, point), point)
                for tgt, base, point in self.module.f_transitions(label)]

    def point_power(self, point, mode):
        """An additive support point acts multiplicatively: exp(mode * point)."""
        return series_exp(point * mode)

    def _psi_rat(self, label):
        raise ValueError("the bridge keeps no factored psi; its psi+- letters read psi_pm_coeff")

    def psi_coeff(self, label, sign, k):
        """psi+-_k on the label over 1 - q3: the reconstructed diagonal family
        (`psi_pm_coeff`) through `over_one_minus_q3`; 0 when k < 0."""
        if k < 0:
            return 0
        return self.over_one_minus_q3(self.psi_pm_coeff(label, sign, k, k))

    def psi_y_eigenvalue(self, label, j):
        raise ValueError("the bridge has no psiy letters; it answers e, f, t and psi+-")

    # bound in the class body, where the traced benchmark looks them up
    apply_e = Module.apply_e
    apply_f = Module.apply_f

    @memoized
    def _inv_one_minus_q3(self):
        # raises at a degenerate direction, where 1 - q3 is zero
        return self.one_minus_q3.inv()

    def over_one_minus_q3(self, x):
        """x / (1 - q3), multiplying by the inverse of 1 - q3.

        A rational x is coerced as `x / (1 - q3)` coerces it, so the result
        and its truncation are those of the division."""
        return self.one_minus_q3._coerce(x) * self._inv_one_minus_q3()

    def H_eigen(self, label, m):
        return self.over_one_minus_q3(self.B_at(label, m))

    @memoized
    def _alpha_inv(self, m):
        """1 / alpha_m, alpha_m = (1 - q1^-m)(1 - q2^-m)(1 - q3^-m)/m."""
        q1, q2, q3 = (series_exp(self.params.h1), series_exp(self.params.h2), self.q3)
        return ((1 - q1 ** (-m)) * (1 - q2 ** (-m)) * (1 - q3 ** (-m)) / m).inv()

    def t_eigen(self, label, m):
        return self.B_at(label, m) * self._alpha_inv(m)

    def t_eigenvalue(self, label, m):
        return self.t_eigen(label, m)

    @memoized
    def _psi_pm_modes(self, label, sign):
        """(pref, [b_0, b_1, ...]) on the label, from b_0 = 1: the table that
        `psi_pm_coeff` extends in place."""
        return series_exp(-self.params.h3 * self.psi0(label) * Fraction(sign, 2)), [Fraction(1)]

    def psi_pm_coeff(self, label, sign, k, kmax):
        """Mode k, 0 <= k <= kmax, of the reconstructed diagonal exponential
        family (sign +1/-1) on the label, a series in the deformation symbol;
        the label's table of exponential modes (`_psi_pm_modes`) is extended
        to kmax.

        psi+-(z) = pref * exp(sum_m a_m z^(-sign m)) with a_m = sign B(sign m)
        and pref = exp(-sign h3 psi_0 / 2).  The exponential's modes b_k
        solve b' = a' b: b_0 = 1, k b_k = sum_{j=1..k} j a_j b_(k-j), on
        flat series; a zero a_j enters no term.
        """
        pref, b = self._psi_pm_modes(label, sign)
        if kmax >= len(b):
            a = {m: self.B_at(label, sign * m) * sign for m in range(1, kmax + 1)}
            for n in range(len(b), kmax + 1):
                b.append(sum(a[j] * b[n - j] * j for j in range(1, n + 1) if a[j])
                         * Fraction(1, n))
        return b[k] * pref

    # -- audits: instance lists through the relation sweep ---------------------
    def _sweep(self, tag, instances, level_bound, hmod):
        sweep = RelationSweep(self, instances, level_bound, hmod)
        return [(tag, label) + inst_id for inst_id, _, label, _ in sweep]

    def audit_t3(self, level_bound, window, hmod):
        """[image e_i, image f_j] = (psi+_{i+j} - psi-_{-(i+j)})/(1 - q3), with
        psi+- the reconstructed diagonal family: T3 with the coefficient 1
        (`repbase._t3_terms`), its psi+- letters read over 1 - q3
        (`psi_coeff`).  psi+-_0/(1 - q3) is known only mod X^(trunc - 2), so
        an hmod above that raises ScalarDomainError: a residual known to a
        lower order must not pass for zero mod X^hmod."""
        if hmod > self.trunc - 2:
            raise ScalarDomainError(f"audit_t3 at hmod {hmod}: psi+-_0/(1 - q3) is known "
                                    f"only mod X^{self.trunc - 2} at trunc {self.trunc}")
        W = range(-window, window + 1)
        return self._sweep("t3", [((i, j), _t3_terms(i, j, 1)) for i in W for j in W],
                           level_bound, hmod)

    def audit_t4_ladder(self, level_bound, i_range, j_range, hmod):
        """[image t_i, image e_j] = image e_{i+j} for i != 0."""
        return self._sweep("t4t", _ladder_instances("T4t", i_range, j_range),
                           level_bound, hmod)

    def audit_cubic(self, level_bound, hmod):
        """[e_0-image, [e_1-image, e_{-1}-image]] annihilates every vector."""
        return self._sweep("cubic", [((), _nested("e", (0, 1, -1)))], level_bound, hmod)


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
                    hk = bridge.over_one_minus_q3(mk.psi_modes(mlam, sgn).log_coeff(m) / sgn)
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
    from .scalars import h_gen

    h = h_gen(trunc)
    fails = []
    for k in (1, 2, -1):
        qinv = series_exp(-h * k)
        # x^m-coefficient of sum_i k^i/i! (x-h)^i, for each x-degree m
        sums = []
        for m in range(0, xcap + 1):
            tot = TSeries(trunc, [], trunc)
            for i in range(m, m + trunc + 1):
                c = Fraction(k ** i, factorial(i)) * comb(i, m)
                if c:
                    tot = tot + ((-h) ** (i - m)) * c
            sums.append(tot)
        # diagonal family: sum_i k^i/i! [(x-h)^i - x^i] on each x-degree
        for m, tot in enumerate(sums):
            tot = tot - Fraction(k ** m, factorial(m))
            want = (qinv - 1) * Fraction(k ** m, factorial(m))
            if not is_zero_mod(tot - want, hmod):
                fails.append(("H-poly", k, m))
        # central part: -sum_i k^i/i! (-h)^i = -q^{-k}
        cent = TSeries(trunc, [], trunc)
        for i in range(0, trunc + 2):
            cent = cent + (-((-h) ** i)) * Fraction(k ** i, factorial(i))
        if not is_zero_mod(cent + qinv, hmod):
            fails.append(("H-central", k))
        # lowering family: sum_i k^i/i! (x-h)^i = q^{-k} e^{kx} degree-wise
        for m, tot in enumerate(sums):
            want = qinv * Fraction(k ** m, factorial(m))
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
