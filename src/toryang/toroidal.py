"""Modules with explicit matrix coefficients, written once for both families.

All actions are stored through explicit matrix coefficients in distinguished
bases: the integer-indexed chain for the vector module, partitions for the
Fock module, and r-partitions for the fixed-point basis of the rank-r moduli
(K-theory for the multiplicative family, cohomology for the additive one).
Each formula is written over the family weights of the module's params
(`mono`, `gap`, `frame`, `unit` and the normalizations, see `params.py`), so
one body serves both families.  Infinite products over rows are evaluated
through their telescoped finite forms; stability under enlarging the row
cutoff is asserted in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from . import partitions as pt
from .repbase import Module, ModuleWrapper
from .scalars import RatFn, is_zero_mod

__all__ = [
    "VectorModule",
    "FockModule",
    "FixedPointModule",
    "KTheoryFixedPointModule",
    "DiagonalTwist",
    "TensorModule",
    "IllDefinedCoproductError",
    "fock_factorization_ratio",
    "solve_intertwiner",
    "solve_factorization",
    "solve_fock_factorization",
]


class IllDefinedCoproductError(ValueError):
    """A diagonal eigenvalue has a pole at a delta-support point."""


def _weight(p, a, b):
    """1 - q1^a q2^b, or a*h1 + b*h2."""
    return p.gap(p.mono(a, b, p.unit), p.unit)


class VectorModule(Module):
    """Basis [u]_j, j in Z."""

    integer_graded = True

    def __init__(self, params, u=None):
        self.params = params
        self.u = params.unit if u is None else u

    def basis(self, level):
        return [level]

    def _e_transitions(self, j):
        p = self.params
        return [(j + 1, 1 / _weight(p, 1, 0), p.mono(j, 0, self.u))]

    def _f_transitions(self, j):
        p = self.params
        return [(j - 1, p.lower_norm, p.mono(j - 1, 0, self.u))]

    def _psi_rat(self, j):
        p, u = self.params, self.u
        return RatFn.from_factors(1, [p.mono(j, 1, u), p.mono(j - 1, -1, u)],
                                  [p.mono(j, 0, u), p.mono(j - 1, 0, u)])


class FockModule(Module):
    """Basis |lam> over partitions; highest vector is the empty diagram."""

    def __init__(self, params, u=None):
        self.params = params
        self.u = params.unit if u is None else u

    def basis(self, level):
        return pt.enum_partitions(level)

    def _e_transitions(self, lam):
        p = self.params
        out = []
        for i in pt.addable_rows(lam):
            li = pt.part(lam, i)
            coeff = 1 / _weight(p, 1, 0)
            for j in range(1, i):
                d = li - pt.part(lam, j)
                coeff = coeff * (_weight(p, d, i - j - 1) * _weight(p, d + 1, i - j + 1)) / (
                    _weight(p, d, i - j) * _weight(p, d + 1, i - j))
            out.append((pt.add_box(lam, i), coeff, p.mono(li, i - 1, self.u)))
        return out

    def _f_transitions(self, lam):
        p = self.params
        out = []
        for i in pt.removable_rows(lam):
            li = pt.part(lam, i)
            d = pt.part(lam, i + 1) - li
            coeff = _weight(p, d, 0) / _weight(p, d + 1, 1)
            for j in range(i + 1, len(lam) + 1):
                dj, dj1 = pt.part(lam, j) - li, pt.part(lam, j + 1) - li
                coeff = coeff * (_weight(p, dj + 1, j - i + 1) * _weight(p, dj1, j - i)) / (
                    _weight(p, dj1 + 1, j - i + 1) * _weight(p, dj, j - i))
            out.append((pt.remove_box(lam, i), coeff * p.lower_norm,
                        p.mono(li - 1, i - 1, self.u)))
        return out

    def _psi_rat(self, lam):
        p, u = self.params, self.u
        l1 = pt.part(lam, 1)
        zeros = [p.mono(l1 - 1, -1, u)]
        poles = [p.mono(l1, 0, u)]
        for i in range(1, len(lam) + 1):
            li, li1 = pt.part(lam, i), pt.part(lam, i + 1)
            zeros += [p.mono(li, i, u), p.mono(li1 - 1, i - 1, u)]
            poles += [p.mono(li1, i, u), p.mono(li - 1, i - 1, u)]
        return RatFn.from_factors(1, zeros, poles)


class FixedPointModule(Module):
    """Fixed-point basis of the rank-r framed-sheaf moduli.

    The hooks are `fixed_point_raise`, `fixed_point_lower` and
    `fixed_point_psi`.  Each family's class binds them in its own body, so
    each keeps them as attributes of its own: the traced benchmark
    (`perfbench/layers.py`) times them per family class.
    """

    def __init__(self, params, r, margin=1):
        if len(params.framings) < r:
            raise ValueError("need r framing parameters")
        self.params = params
        self.r = r
        self.margin = margin  # extra rows beyond the diagram in cutoffs

    def basis(self, level):
        return pt.enum_multipartitions(self.r, level)

    def row_marker(self, mlam, a, k):
        """Content marker of the end of row k in component a (virtual past
        the diagram): q1^(lam_k - 1) q2^(k-1) / chi_a, or
        (lam_k - 1) h1 + (k-1) h2 - x_a."""
        return self.params.mono(pt.part(mlam[a - 1], k) - 1, k - 1, self.params.frame(a))

    def row_markers(self, mlam, a):
        """Markers of rows 1 .. K+1 of component a, K = its rows + margin."""
        return [self.row_marker(mlam, a, k)
                for k in range(1, len(mlam[a - 1]) + self.margin + 2)]


def fixed_point_raise(self, mlam):
    """One raising transition per addable box, supported at its content."""
    p = self.params
    out = []
    for (l, col, row) in pt.addable_boxes(mlam):
        tgt = pt.mp_add_box(mlam, l, row)
        x = self.row_marker(tgt, l, row)  # content of the added box
        coeff = p.fixed_raise_norm
        for a in range(1, self.r + 1):
            X = self.row_markers(tgt, a)
            coeff = coeff / p.gap(p.mono(1, 0, X[0]), x)
            for xk, xk1 in zip(X, X[1:]):
                coeff = coeff * p.gap(p.mono(1, 1, xk), x) / p.gap(p.mono(1, 0, xk1), x)
        out.append((tgt, coeff, x))
    return out


def fixed_point_lower(self, mlam):
    """One lowering transition per removable box, supported at its content."""
    p = self.params
    out = []
    for (l, col, row) in pt.removable_boxes(mlam):
        tgt = pt.mp_remove_box(mlam, l, row)
        x = self.row_marker(tgt, l, row)
        point = p.mono(1, 0, x)  # content of the removed box
        x11 = p.mono(1, 1, x)
        coeff = p.fixed_lower_norm(point, self.r)
        for a in range(1, self.r + 1):
            X = self.row_markers(tgt, a)
            coeff = coeff * p.gap(x11, X[0])
            for xk, xk1 in zip(X, X[1:]):
                coeff = coeff * p.gap(x11, xk1) / p.gap(point, xk)
        out.append((tgt, coeff, point))
    return out


def fixed_point_psi(self, mlam):
    """psi as (constant, zeros, poles) from the framings and the box contents."""
    p = self.params
    zeros, poles = [], []
    for a in range(1, self.r + 1):
        w = p.frame(a)
        zeros.append(p.mono(-1, -1, w))
        poles.append(w)
        for (i, j) in pt.boxes(mlam[a - 1]):
            c = p.mono(i - 1, j - 1, w)
            zeros += [p.mono(-1, 0, c), p.mono(0, -1, c), p.mono(1, 1, c)]
            poles += [p.mono(1, 0, c), p.mono(0, 1, c), p.mono(-1, -1, c)]
    return RatFn.from_factors(p.fixed_psi_norm(self.r), zeros, poles)


class KTheoryFixedPointModule(FixedPointModule):
    """Fixed-point basis of the rank-r framed-sheaf moduli, K-theory flavor."""

    _e_transitions = fixed_point_raise
    _f_transitions = fixed_point_lower
    _psi_rat = fixed_point_psi


class DiagonalTwist(ModuleWrapper):
    """Twist of a module: e, f, psi rescaled by fixed units.

    Covers the renormalized actions (e by 1-q1, f by 1-q2) and the
    framing-dependent twist used in the Fock factorization.
    """

    def __init__(self, base, e_scale=1, f_scale=1, psi_scale=1):
        super().__init__(base)
        self.e_scale = e_scale
        self.f_scale = f_scale
        self.psi_scale = psi_scale

    def _e_transitions(self, label):
        return [(t, c * self.e_scale, p) for (t, c, p) in self.base.e_transitions(label)]

    def _f_transitions(self, label):
        return [(t, c * self.f_scale, p) for (t, c, p) in self.base.f_transitions(label)]

    def _psi_rat(self, label):
        return self.base.psi_rat(label) * self.psi_scale


class TensorModule(Module):
    """Tensor product of two modules under the delta-evaluated coproduct.

    Raising acts as (raise) x 1 + (diagonal at support) x (raise); lowering
    mirrors it.  Works for both the multiplicative and additive families.
    """

    def __init__(self, w1, w2):
        self.w1 = w1
        self.w2 = w2
        self.params = w1.params

    def basis(self, level):
        out = []
        for k in _level_range(self.w1, level):
            for a in self.w1.basis(k):
                for b in self.w2.basis(level - k):
                    out.append((a, b))
        return out

    def _diag_eval(self, which, label, point, pair):
        try:
            return which.psi_rat(label).eval(point)
        except ZeroDivisionError:
            raise IllDefinedCoproductError(
                f"diagonal eigenvalue of {label!r} has a pole at the support "
                f"point of {pair!r}") from None

    def _e_transitions(self, label):
        l1, l2 = label
        out = [((t, l2), c, p) for (t, c, p) in self.w1.e_transitions(l1)]
        for (t, c, p) in self.w2.e_transitions(l2):
            g = self._diag_eval(self.w1, l1, p, (l2, t))
            out.append(((l1, t), c * g, p))
        return out

    def _f_transitions(self, label):
        l1, l2 = label
        out = [((l1, t), c, p) for (t, c, p) in self.w2.f_transitions(l2)]
        for (t, c, p) in self.w1.f_transitions(l1):
            g = self._diag_eval(self.w2, l2, p, (l1, t))
            out.append(((t, l2), c * g, p))
        return out

    def _psi_rat(self, label):
        l1, l2 = label
        return self.w1.psi_rat(l1) * self.w2.psi_rat(l2)


def _level_range(module, level, window=4):
    # vector modules live on all integers; graded modules on 0..level
    if getattr(module, "integer_graded", False):
        return range(-window + min(level, 0), window + max(level, 0) + 1)
    return range(0, level + 1)


def fock_tensor(params, r):
    """Tensor of Fock modules matching the rank-r fixed-point basis.

    Evaluation parameters are the framings' vacuum points `params.frame(a)`
    (1/chi_a, or -x_a): the delta-support points of the fixed-point module
    are the box contents t1^(i-1) t2^(j-1) / chi_a, and support points are
    basis-independent data, so the a-th factor must be the Fock module there.
    """
    mods = [FockModule(params, params.frame(a)) for a in range(1, r + 1)]
    m = mods[0]
    for nxt in mods[1:]:
        m = TensorModule(m, nxt)
    return m


def nest_label(mlam):
    """r-partition -> left-nested tensor label."""
    label = mlam[0]
    for lam in mlam[1:]:
        label = (label, lam)
    return label


def fock_factorization_ratio(params, r, mlam, box, trailing=0):
    """Closed-form one-box ratio  c_{lam+box}/c_lam  of the factorization map.

    box = (l, col, row).  One finite product per tensor slot: slots left of
    the receiving component contribute their diagonal weight at the support
    point over the raising normalization, slots to the right the inverse
    normalization, and the receiving slot compares the Fock and fixed-point
    raising coefficients.  `trailing` extra rows let tests assert cutoff
    stability of the telescoped row products.
    """
    q1, q2, q3 = params.q1, params.q2, params.q3
    l, col, row = box
    tgt = pt.mp_add_box(mlam, l, row)
    chi = q1 ** (col - 1) * q2 ** (row - 1) / params.chis[l - 1]

    def X(ml, b, k):
        return q1 ** (pt.part(ml[b - 1], k) - 1) * q2 ** (k - 1) / params.chis[b - 1]

    d = 1 - q3
    for b in range(1, l):
        K = len(mlam[b - 1]) + trailing
        d = d * (chi - X(mlam, b, 1) / q2) / chi
        for i in range(1, K + 1):
            d = d * (chi - X(mlam, b, i + 1) / q2) / (chi - X(mlam, b, i))
    for b in range(l + 1, r + 1):
        K = len(mlam[b - 1]) + trailing
        d = d * (chi - q1 * X(mlam, b, 1)) / chi
        for k in range(1, K + 1):
            d = d * (chi - q1 * X(mlam, b, k + 1)) / (chi - q1 * q2 * X(mlam, b, k))
    d = d / (1 - q1)
    for jp in range(1, row):
        xj = X(mlam, l, jp)
        d = d * ((chi - q1 * q2 * xj) * (chi - xj / q2)) / (
            (chi - q1 * xj) * (chi - xj))
    K = len(tgt[l - 1]) + trailing
    d = d * (chi - q1 * X(tgt, l, 1)) / chi
    for k in range(1, K + 1):
        d = d * (chi - q1 * X(tgt, l, k + 1)) / (chi - q1 * q2 * X(tgt, l, k))
    return d


def solve_intertwiner(mk, target, level_bound, modes, label, one, hmod=None):
    """Solve the diagonal change of basis from the module `mk` onto `target`,
    whose labels are `label(mk label)`, and check that it intertwines.

    Returns (constants, failures): constants maps mk's labels to scalars,
    `one` at the vacuum, solved breadth-first from raising mode 0; failures
    lists path dependence and the raising and lowering intertwining of every
    listed mode, with both sides read from `mode_row`.  The check is
    two-sided: an entry of the target's row whose label no transition of
    mk's row maps to must vanish, and is reported as "<kind>-extra"
    otherwise.  Comparisons are exact, or modulo X^hmod over a series ring.
    """
    consts = {mk.basis(0)[0]: one}
    failures = []
    for level in range(level_bound):
        for src in mk.basis(level):
            trow = dict(target.mode_row("e", label(src), 0))
            for (tgt, mc, _) in mk.e_transitions(src):
                val = consts[src] * trow[label(tgt)] / mc
                if tgt not in consts:
                    consts[tgt] = val
                elif not is_zero_mod(consts[tgt] - val, hmod):
                    failures.append(("path-dependence", src, tgt))
    for level in range(level_bound + 1):
        for src in mk.basis(level):
            for mode in modes:
                for kind in ("e", "f"):
                    trow = dict(target.mode_row(kind, label(src), mode))
                    row = mk.mode_row(kind, src, mode)
                    for tgt, mc in row:
                        if tgt in consts and not is_zero_mod(
                                consts[tgt] * mc - consts[src] * trow.get(label(tgt), 0), hmod):
                            failures.append((f"{kind}-intertwine", mode, src, tgt))
                    mapped = {label(tgt) for tgt, _ in row}
                    for tl, tc in trow.items():
                        if tl not in mapped and not is_zero_mod(tc, hmod):
                            failures.append((f"{kind}-extra", mode, src, tl))
    return consts, failures


def solve_factorization(mk, params, r, level_bound, modes, order,
                        directions=(+1, -1), ratio=None):
    """Solve the diagonal change of basis from the rank-r fixed-point module
    `mk` onto the r-fold Fock tensor `fock_tensor(params, r)`, either family.

    Returns `solve_intertwiner`'s (constants, failures), with value 1 at the
    empty label, and further failures: agreement of the diagonal series in
    every listed direction and, when `ratio` is given, agreement with the
    closed-form one-box ratio `ratio(params, r, mlam, box)`.
    """
    ft = fock_tensor(params, r)
    consts, failures = solve_intertwiner(mk, ft, level_bound, modes, nest_label,
                                         Fraction(1))
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            for box in pt.addable_boxes(mlam) if ratio else ():
                tgt = pt.mp_add_box(mlam, box[0], box[2])
                if tgt in consts and consts[tgt] / consts[mlam] != ratio(params, r, mlam, box):
                    failures.append(("closed-form-ratio", mlam, box))
            for direction in directions:
                a = mk.psi_series(mlam, direction, order)
                b = ft.psi_series(nest_label(mlam), direction, order)
                if not (a - b).is_zero():
                    failures.append(("psi-series", direction, mlam))
    return consts, failures


def solve_fock_factorization(params, r, level_bound):
    """Multiplicative Fock factorization: `solve_factorization` on the
    fixed-point module with f and psi divided by its psi constant
    T = `params.fixed_psi_norm(r)`, which makes its vacuum eigenvalue that
    of the Fock tensor, 1; with both expansions of psi and the closed-form
    one-box ratio."""
    T = params.fixed_psi_norm(r)
    mk = DiagonalTwist(KTheoryFixedPointModule(params, r),
                       f_scale=1 / T, psi_scale=1 / T)
    return solve_factorization(mk, params, r, level_bound, (-1, 0, 1, 2), 6,
                               ratio=fock_factorization_ratio)
