"""Horizontal realization: boson Fock space, vertex-operator modes, vacuum
matrix coefficients, and their stable-subalgebra membership.

The quarter-power of the third parameter is kept rational by construction:
the parameter pack is built from a generic rational rho with q3 = rho^4.
Boson states are monomials in the creation modes, labelled by partitions;
all vertex-operator modes are finite-rank between graded pieces, so every
computation here is exact.  The bracket check `tt3_check` is one instance
per mode pair, run through the relation engine's sweep
(`repbase.RelationSweep`) over the boson states (`BosonStates`); the sweep
compiles each e and f row once from `BosonStates.mode_row` and each psi+-
row from the mode on one state, through the hook every swept object
answers (`BosonStates.sweep_row`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb, factorial

from .multipoly import MPoly, _mpoly
from .params import ToroidalParams
from .partitions import enum_partitions
from .repbase import RelationSweep, _int_row, vsum
from .scalars import _exact
from .shuffle import ShuffleElement, _kernel_factor

__all__ = [
    "horizontal_params",
    "boson_kappa",
    "boson_apply",
    "VertexSpec",
    "etilde_spec",
    "ftilde_spec",
    "psitilde_spec",
    "apply_vertex_mode",
    "BosonStates",
    "tt3_check",
    "matrix_coeff_series",
    "closed_form_series",
    "horizontal_tensor_coeff",
    "single_factor_closed_form",
]


def horizontal_params(rho=Fraction(2), q1=Fraction(3), G=12):
    """Parameters with a rational fourth root of q3 = rho^4 adjoined from
    the start (q2 is then forced by q1 q2 q3 = 1)."""
    rho, q1 = _exact(rho), _exact(q1)
    q3 = rho ** 4
    q2 = 1 / (q1 * q3)
    p = ToroidalParams(q1, q2, (), G=G)
    p.rho = rho
    return p


def boson_kappa(params, n):
    """[a_n, a_-n] = n (1 - q1^n)/(1 - q2^-n) on the vacuum module."""
    n = abs(n)
    return n * (1 - params.q1 ** n) / (1 - params.q2 ** (-n))


def boson_apply(params, n, vec):
    """Apply a single boson mode to a state dict partition -> scalar."""
    if n == 0:
        return dict(vec)

    def terms():
        for mu, c in vec.items():
            if n < 0:
                yield tuple(sorted(mu + (-n,), reverse=True)), c
            else:
                mult = mu.count(n)
                if mult:
                    lst = list(mu)
                    lst.remove(n)
                    yield tuple(lst), c * mult * boson_kappa(params, n)
    return vsum(terms())


class VertexSpec:
    """c * exp(sum u_n a_{-n} z^n) * exp(sum v_n a_n z^{-n})."""

    def __init__(self, c, u, v):
        self.c = c
        self.u = u  # creation coefficients, keyed by n >= 1
        self.v = v  # annihilation coefficients


def etilde_spec(params, c):
    q2 = params.q2
    return VertexSpec(c,
                      lambda n: (1 - q2 ** n) / n,
                      lambda n: -(1 - q2 ** (-n)) / n)


def ftilde_spec(params, c):
    q2, rho = params.q2, params.rho
    return VertexSpec(1 / c,
                      lambda n: -(1 - q2 ** n) * rho ** (2 * n) / n,
                      lambda n: (1 - q2 ** (-n)) * rho ** (2 * n) / n)


def psitilde_spec(params, sign):
    q2, q3, rho = params.q2, params.q3, params.rho
    if sign > 0:
        return VertexSpec(Fraction(1),
                          lambda n: Fraction(0),
                          lambda n: -(1 - q2 ** (-n)) * (1 - q3 ** n) / (rho ** n * n))
    return VertexSpec(Fraction(1),
                      lambda n: (1 - q2 ** n) * (1 - q3 ** n) / (rho ** n * n),
                      lambda n: Fraction(0))


def apply_vertex_mode(params, spec, k, vec):
    """Mode z^{-k} of the vertex operator applied to a state dict; exact.
    The per-mode constants v(n) kappa(n) by n, its t-th power and
    u(n)^t / t! by (n, t) are computed once per call, in caches local to it."""
    from collections import Counter

    @cache
    def vk(n):
        return spec.v(n) * boson_kappa(params, n)

    @cache
    def down(n, t):
        return vk(n) ** t

    @cache
    def up(n, t):
        return spec.u(n) ** t / factorial(t)

    def terms():
        for mu, c0 in vec.items():
            choices = [[(n, m, t) for t in range(m + 1)] for n, m in sorted(Counter(mu).items())]
            for pick in iproduct(*choices) if choices else [()]:
                acoef = c0 * spec.c
                removed = 0
                rest = []
                for n, m, t in pick:
                    if t:
                        acoef = acoef * comb(m, t) * down(n, t)
                    removed += n * t
                    rest.extend([n] * (m - t))
                created_weight = removed - k
                if not acoef or created_weight < 0:
                    continue
                # the empty partition of weight 0 leaves the base state as is
                for nu in enum_partitions(created_weight):
                    ccoef = acoef
                    for n, t in sorted(Counter(nu).items()):
                        ccoef = ccoef * up(n, t)
                    yield tuple(sorted(rest + list(nu), reverse=True)), ccoef
    return vsum(terms())


class BosonStates:
    """The boson Fock space as a module for the relation sweep: level d holds
    the partitions of d, and e, f and psi+- act by the vertex-operator
    modes, psi- at index n being the mode z^n.  The sweep, and with it
    `repbase.apply_word`, reads e and f from `mode_row`, the mode on one
    state, and psi+- from `apply_psi`."""

    def __init__(self, params, c):
        self.params = params
        self.specs = {"e": etilde_spec(params, c), "f": ftilde_spec(params, c)}
        psi = {sign: psitilde_spec(params, sign) for sign in (+1, -1)}
        self.apply_psi = lambda sign, n, vec: apply_vertex_mode(params, psi[sign], sign * n, vec)
        self.basis = enum_partitions

    def mode_row(self, kind, label, k):
        """[(target, c)]: mode k of the 'e' or 'f' vertex operator on the
        state `label`; any other kind raises ValueError."""
        if kind not in self.specs:
            raise ValueError(f"unknown row kind {kind!r}; expected 'e' or 'f'")
        return list(apply_vertex_mode(self.params, self.specs[kind], k, {label: 1}).items())

    def sweep_row(self, letter, label):
        """The letter on the state `label`, compiled for the relation sweep
        (`repbase.RelationSweep`): e and f from `mode_row`, psi+- from its
        vertex mode on the state."""
        gen, k = letter
        if gen == "e" or gen == "f":
            return _int_row(self.mode_row(gen, label, k))
        if gen == "psi+" or gen == "psi-":
            return _int_row(self.apply_psi(+1 if gen == "psi+" else -1, k, {label: 1}).items())
        raise ValueError(f"the boson states have no {gen} letter")


def tt3_check(params, c, window=2, degree_cap=2):
    """Modewise degree-truncated audit of the raising/lowering bracket
    against the shifted diagonal families:

        N [e~_i, f~_j] = gamma^{(i-j)/2} psi+_{i+j} - gamma^{(j-i)/2} psi-_{-(i+j)}

    The normalization N = (1 - q3^-1)/((1-q1)(1-q2)) is pinned by the
    vacuum matrix element of the bracket (the contraction kernel has
    residues (1-1/q1)(1-1/q2)/(1-q3) at its two poles); it differs from the
    three-factor prefactor one might expect by the unit
    (1-q1)(1-1/q1)(1-q2)(1-1/q2).  gamma^{(i-j)/2} acts by rho^{i-j}.  Each
    (i, j) is one instance of the relation sweep over the boson states of
    degree <= degree_cap; returns (mu, i, j) for every failing state mu.
    """
    q1, q2, q3 = params.qs
    rho = params.rho
    beta1 = (1 - 1 / q3) / ((1 - q1) * (1 - q2))
    W = range(-window, window + 1)
    # psi+ has no mode z^n and psi- no mode z^-n for n > 0: those words act by 0
    instances = [((i, j), [(beta1, [("e", i), ("f", j)]), (-beta1, [("f", j), ("e", i)]),
                           (-rho ** (i - j), [("psi+", i + j)]),
                           (rho ** (j - i), [("psi-", -(i + j))])])
                 for i in W for j in W]
    sweep = RelationSweep(BosonStates(params, c), instances, degree_cap)
    return [(mu, i, j) for (i, j), _, mu, _ in sweep]


def matrix_coeff_series(params, c, n, order):
    """Vacuum expectation of n raising currents, times the pairwise kernel,
    as a truncated series in the consecutive ratios (n-1 variables)."""
    e = etilde_spec(params, c)
    vac = ()
    results = {}

    # walk operators right to left; d = degree before the current operator,
    # ds = intermediate degrees (d_1 .. d_{n-1}) collected so far
    def rec(pos, d, vec, ds, budget):
        if pos == 0:
            if d == 0 and vac in vec:
                results[ds] = results.get(ds, Fraction(0)) + vec[vac]
            return
        lo, hi = (0, 0) if pos == 1 else (0, order - budget)
        for d_next in range(lo, hi + 1):
            nv = apply_vertex_mode(params, e, d - d_next, vec)
            nv = {mu: cc for mu, cc in nv.items() if sum(mu) == d_next}
            if nv:
                nds = ((d_next,) + ds) if pos > 1 else ds
                rec(pos - 1, d_next, nv, nds,
                    budget + (d_next if pos > 1 else 0))

    rec(n, 0, {vac: Fraction(1)}, (), 0)
    kern = _kernel_series_product(params, n, order)
    return _truncate_total(MPoly(n - 1, results) * kern, order)


def _kernel_series_product(params, n, order):
    q1, q2, q3 = params.qs
    # omega-series S(y) = (1-q1 y)(1-q2 y)(1-q3 y)/(1-y)^3 to the order
    coef = [Fraction(0)] * (order + 1)
    e1, e2, e3 = q1 + q2 + q3, q1 * q2 + q1 * q3 + q2 * q3, Fraction(1)
    num = [Fraction(1), -e1, e2, -e3]
    for k in range(order + 1):
        tot = Fraction(0)
        for t in range(0, min(3, k) + 1):
            tot += num[t] * comb(k - t + 2, 2)
        coef[k] = tot
    out = MPoly.const(n - 1, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = _truncate_total(out * _ratio_series(n, i, j, coef), order)
    return out


def _ratio_series(n, i, j, coef):
    """sum_k coef[k] y^k in the n - 1 consecutive ratios, where
    y = z_j / z_i = u_i u_{i+1} ... u_{j-1}."""
    return MPoly(n - 1, {(0,) * i + (k,) * (j - i) + (0,) * (n - 1 - j): c
                         for k, c in enumerate(coef)})


def _truncate_total(p, order):
    return _mpoly(p.n, {e: c for e, c in p.nums.items() if sum(e) <= order}, p.den)


def closed_form_series(params, c, n, order):
    """The product formula for the vacuum coefficient, expanded in ratios."""
    q3 = params.q3
    pref = (-q3) ** (-(n * (n - 1) // 2))
    out = MPoly.const(n - 1, pref * c ** n)
    for i in range(n):
        for j in range(i + 1, n):
            # (1 - q3 y)(y - q3)/(1 - y)^2 expanded in y = z_j/z_i
            coef = []
            for k in range(order + 1):
                tot = Fraction(0)
                for t, numc in ((0, -q3), (1, 1 + q3 ** 2), (2, -q3)):
                    if k - t >= 0:
                        tot += numc * (k - t + 1)
                coef.append(tot)
            out = _truncate_total(out * _ratio_series(n, i, j, coef), order)
    return out


def single_factor_closed_form(params, c, n):
    """The vacuum coefficient of one factor as an exact shuffle element."""
    q3 = params.q3
    num = MPoly.const(n, (-q3) ** (-(n * (n - 1) // 2)) * c ** n)
    for i in range(n):
        for j in range(i + 1, n):
            zi, zj = MPoly.var(n, i), MPoly.var(n, j)
            num = num * (zi - q3 * zj) * (zj - q3 * zi)
    return ShuffleElement("m", n, num)


def horizontal_tensor_coeff(cs, n, params):
    """Vacuum coefficient of n raising currents on an m-fold product of
    vertex modules, as an exact shuffle element (sum over slot assignments)."""
    m = len(cs)
    q3 = params.q3
    total = MPoly.zero(n)
    for f in iproduct(range(m), repeat=n):
        term = MPoly.const(n, Fraction(1))
        for i in f:
            term = term * cs[i]
        for i in range(n):
            for j in range(i + 1, n):
                if f[i] == f[j]:
                    zi, zj = MPoly.var(n, i), MPoly.var(n, j)
                    term = term * (zi - q3 * zj) * (zi - zj / q3) * (zi - zj)
                elif f[i] > f[j]:
                    term = term * _kernel_factor("m", n, i, j, params)
                else:
                    term = term * -_kernel_factor("m", n, j, i, params)
        total = total + term
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    num = total.div_vandermonde(pairs)
    return ShuffleElement("m", n, num)
