"""Modules for the multiplicative (quantum toroidal) family.

All actions are stored through explicit matrix coefficients in distinguished
bases: the integer-indexed chain for the vector module, partitions for the
Fock module, and r-partitions for the fixed-point basis of the rank-r moduli
K-theory.  Infinite products over rows are evaluated through their
telescoped finite forms; stability under enlarging the row cutoff is
asserted in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from . import partitions as pt
from .repbase import Module, vadd, vec, vscale
from .scalars import Poly, RatFn

__all__ = [
    "VectorModule",
    "FockModule",
    "KTheoryFixedPointModule",
    "DiagonalTwist",
    "TensorModule",
    "IllDefinedCoproductError",
    "fock_factorization_ratio",
    "solve_fock_factorization",
    "kappa_twist_constant",
]


class IllDefinedCoproductError(ValueError):
    """A diagonal eigenvalue has a pole at a delta-support point."""


class VectorModule(Module):
    """Basis [u]_j, j in Z."""

    integer_graded = True

    def __init__(self, params, u=Fraction(1)):
        super().__init__()
        self.params = params
        self.u = u

    def level(self, label):
        return label

    def basis(self, level):
        return [level]

    def _e_transitions(self, j):
        q1 = self.params.q1
        return [(j + 1, 1 / (1 - q1), q1 ** j * self.u)]

    def _f_transitions(self, j):
        q1 = self.params.q1
        return [(j - 1, 1 / (1 / q1 - 1), q1 ** (j - 1) * self.u)]

    def _psi_rat(self, j):
        q1, q2, q3 = self.params.qs
        u = self.u
        return RatFn.from_factors(
            1,
            [q1 ** j * q2 * u, q1 ** j * q3 * u],
            [q1 ** j * u, q1 ** (j - 1) * u],
        )


class FockModule(Module):
    """Basis |lam> over partitions; highest vector is the empty diagram."""

    def __init__(self, params, u=Fraction(1)):
        super().__init__()
        self.params = params
        self.u = u

    def level(self, lam):
        return pt.size(lam)

    def basis(self, level):
        return enum_p(level)

    def _e_transitions(self, lam):
        q1, q2 = self.params.q1, self.params.q2
        u = self.u
        out = []
        for i in pt.addable_rows(lam):
            li = pt.part(lam, i)
            coeff = 1 / (1 - q1)
            for j in range(1, i):
                lj = pt.part(lam, j)
                coeff = coeff * (
                    (1 - q1 ** (li - lj) * q2 ** (i - j - 1))
                    * (1 - q1 ** (li - lj + 1) * q2 ** (i - j + 1))
                ) / (
                    (1 - q1 ** (li - lj) * q2 ** (i - j))
                    * (1 - q1 ** (li - lj + 1) * q2 ** (i - j))
                )
            point = q1 ** li * q2 ** (i - 1) * u
            out.append((pt.add_box(lam, i), coeff, point))
        return out

    def _f_transitions(self, lam):
        q1, q2 = self.params.q1, self.params.q2
        u = self.u
        out = []
        for i in pt.removable_rows(lam):
            li = pt.part(lam, i)
            lnext = pt.part(lam, i + 1)
            coeff = (1 - q1 ** (lnext - li)) / (1 - q1 ** (lnext - li + 1) * q2)
            for j in range(i + 1, len(lam) + 1):
                lj = pt.part(lam, j)
                lj1 = pt.part(lam, j + 1)
                coeff = coeff * (
                    (1 - q1 ** (lj - li + 1) * q2 ** (j - i + 1))
                    * (1 - q1 ** (lj1 - li) * q2 ** (j - i))
                ) / (
                    (1 - q1 ** (lj1 - li + 1) * q2 ** (j - i + 1))
                    * (1 - q1 ** (lj - li) * q2 ** (j - i))
                )
            coeff = coeff / (1 / q1 - 1)
            point = q1 ** (li - 1) * q2 ** (i - 1) * u
            out.append((pt.remove_box(lam, i), coeff, point))
        return out

    def _psi_rat(self, lam):
        q1, q2 = self.params.q1, self.params.q2
        u = self.u
        l1 = pt.part(lam, 1)
        zeros = [q1 ** (l1 - 1) / q2 * u]
        poles = [q1 ** l1 * u]
        for i in range(1, len(lam) + 1):
            li, li1 = pt.part(lam, i), pt.part(lam, i + 1)
            zeros += [q1 ** li * q2 ** i * u, q1 ** (li1 - 1) * q2 ** (i - 1) * u]
            poles += [q1 ** li1 * q2 ** i * u, q1 ** (li - 1) * q2 ** (i - 1) * u]
        return RatFn.from_factors(1, zeros, poles)


def enum_p(level):
    return pt.enum_partitions(level)


class KTheoryFixedPointModule(Module):
    """Fixed-point basis of the rank-r framed-sheaf moduli, K-theory flavor."""

    def __init__(self, params, r, margin=1):
        super().__init__()
        if len(params.chis) < r:
            raise ValueError("need r framing parameters")
        self.params = params
        self.r = r
        self.margin = margin  # extra rows beyond the diagram in cutoffs

    def level(self, mlam):
        return pt.mp_size(mlam)

    def basis(self, level):
        return pt.enum_multipartitions(self.r, level)

    def chi_row(self, mlam, a, k):
        """Content marker of the end of row k in component a (virtual at 0)."""
        q1, q2 = self.params.q1, self.params.q2
        lam = mlam[a - 1]
        return q1 ** (pt.part(lam, k) - 1) * q2 ** (k - 1) / self.params.chis[a - 1]

    def _e_transitions(self, mlam):
        q1, q2 = self.params.q1, self.params.q2
        pref = 1 / (1 - 1 / (q1 * q2))
        out = []
        for (l, col, row) in pt.addable_boxes(mlam):
            tgt = pt.mp_add_box(mlam, l, row)
            chi = self.chi_row(tgt, l, row)  # content of the added box
            coeff = pref
            for a in range(1, self.r + 1):
                K = len(tgt[a - 1]) + self.margin
                coeff = coeff / (1 - q1 * self.chi_row(tgt, a, 1) / chi)
                for k in range(1, K + 1):
                    xk = self.chi_row(tgt, a, k)
                    xk1 = self.chi_row(tgt, a, k + 1)
                    coeff = coeff * (1 - q1 * q2 * xk / chi) / (1 - q1 * xk1 / chi)
            out.append((tgt, coeff, chi))
        return out

    def _f_transitions(self, mlam):
        q1, q2 = self.params.q1, self.params.q2
        pref = 1 / (1 - 1 / (q1 * q2))
        out = []
        for (l, col, row) in pt.removable_boxes(mlam):
            tgt = pt.mp_remove_box(mlam, l, row)
            chi = self.chi_row(tgt, l, row)
            point = q1 * chi  # content of the removed box
            coeff = pref * point ** (-self.r)
            for a in range(1, self.r + 1):
                K = len(tgt[a - 1]) + self.margin
                coeff = coeff * (1 - q1 * q2 * chi / self.chi_row(tgt, a, 1))
                for k in range(1, K + 1):
                    xk = self.chi_row(tgt, a, k)
                    xk1 = self.chi_row(tgt, a, k + 1)
                    coeff = coeff * (1 - q1 * q2 * chi / xk1) / (1 - q1 * chi / xk)
            out.append((tgt, coeff, point))
        return out

    def _psi_rat(self, mlam):
        q1, q2, q3 = self.params.qs
        chis = self.params.chis
        r = self.r
        const = (-1) ** r * (q1 * q2) ** (r + 1)
        zeros, poles = [], []
        for a in range(1, r + 1):
            const = const * chis[a - 1]
            zeros.append(q3 / chis[a - 1])
            poles.append(1 / chis[a - 1])
            for box in pt.boxes(mlam[a - 1]):
                c = pt.content_mult(box, q1, q2, chis[a - 1])
                zeros += [c / q1, c / q2, c / q3]
                poles += [c * q1, c * q2, c * q3]
        return RatFn.from_factors(const, zeros, poles)


class DiagonalTwist(Module):
    """Twist of a module: e, f, psi rescaled by fixed units.

    Covers the renormalized actions (e by 1-q1, f by 1-q2) and the
    framing-dependent twist used in the Fock factorization.
    """

    def __init__(self, base, e_scale=1, f_scale=1, psi_scale=1):
        super().__init__()
        self.base = base
        self.toroidal = base.toroidal
        self.e_scale = e_scale
        self.f_scale = f_scale
        self.psi_scale = psi_scale

    def __getattr__(self, name):
        return getattr(self.base, name)

    def level(self, label):
        return self.base.level(label)

    def basis(self, level):
        return self.base.basis(level)

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
        super().__init__()
        self.w1 = w1
        self.w2 = w2
        self.toroidal = w1.toroidal

    def level(self, label):
        l1, l2 = label
        return self.w1.level(l1) + self.w2.level(l2)

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


def kappa_twist_constant(params, r):
    """Unit T with f -> f/T, psi -> psi/T matching the r-fold Fock tensor.

    Pinned by requiring equal vacuum eigenvalues of the diagonal current on
    the twisted fixed-point module and on the tensor of Fock modules.
    """
    q1, q2 = params.q1, params.q2
    T = (-1) ** r * (q1 * q2) ** (r + 1)
    for a in range(r):
        T = T * params.chis[a]
    return T


def fock_tensor(params, r):
    """Tensor of Fock modules matching the rank-r fixed-point basis.

    Evaluation parameters are the inverse framings: the delta-support points
    of the fixed-point module are the box contents t1^(i-1) t2^(j-1) / chi_a,
    and support points are basis-independent data, so the a-th factor must
    be the Fock module at 1/chi_a.
    """
    mods = [FockModule(params, 1 / params.chis[a]) for a in range(r)]
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


def solve_fock_factorization(params, r, level_bound, modes=(-1, 0, 1, 2), order=6):
    """Solve the diagonal change of basis onto the r-fold Fock tensor.

    Returns (constants, report): constants maps r-partitions to scalars with
    value 1 at the empty label; report lists any consistency failures
    (raising/lowering intertwining for every listed mode, diagonal-series
    agreement, and agreement with the closed-form one-box ratio).
    """
    T = kappa_twist_constant(params, r)
    mk = DiagonalTwist(KTheoryFixedPointModule(params, r),
                       f_scale=1 / T, psi_scale=1 / T)
    ft = fock_tensor(params, r)
    consts = {((),) * r: Fraction(1)}
    failures = []
    # breadth-first solve from the vacuum using raising mode 0
    for level in range(level_bound):
        for mlam in pt.enum_multipartitions(r, level):
            c_src = consts[mlam]
            tlabel = nest_label(mlam)
            ttrans = {t: (c, pnt) for (t, c, pnt) in ft.e_transitions(tlabel)}
            for (tgt, mc, mp_) in mk.e_transitions(mlam):
                tc, tp = ttrans[nest_label(tgt)]
                val = c_src * tc / mc
                if tgt in consts:
                    if consts[tgt] != val:
                        failures.append(("path-dependence", mlam, tgt))
                else:
                    consts[tgt] = val
    # full verification sweep
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            c_src = consts[mlam]
            tlabel = nest_label(mlam)
            # closed-form ratio check
            for box in pt.addable_boxes(mlam):
                tgt = pt.mp_add_box(mlam, box[0], box[2])
                if tgt in consts:
                    want = fock_factorization_ratio(params, r, mlam, box)
                    if consts[tgt] / c_src != want:
                        failures.append(("closed-form-ratio", mlam, box))
            for mode in modes:
                ttrans = {t: c * pnt ** mode for (t, c, pnt) in ft.e_transitions(tlabel)}
                for (tgt, mc, mp_) in mk.e_transitions(mlam):
                    if level + 1 > level_bound or tgt not in consts:
                        continue
                    lhs = consts[tgt] * mc * mp_ ** mode
                    rhs = c_src * ttrans[nest_label(tgt)]
                    if lhs != rhs:
                        failures.append(("e-intertwine", mode, mlam, tgt))
                ftrans = {t: c * pnt ** mode for (t, c, pnt) in ft.f_transitions(tlabel)}
                for (tgt, mc, mp_) in mk.f_transitions(mlam):
                    lhs = consts[tgt] * mc * mp_ ** mode
                    rhs = c_src * ftrans.get(nest_label(tgt), 0)
                    if lhs != rhs:
                        failures.append(("f-intertwine", mode, mlam, tgt))
            for direction in (+1, -1):
                a = mk.psi_series(mlam, direction, order)
                b = ft.psi_series(tlabel, direction, order)
                if not (a - b).is_zero():
                    failures.append(("psi-series", direction, mlam))
    return consts, failures
