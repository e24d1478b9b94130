"""The three benchmark workloads, each a closed loop over the library's
public functions with exact verdicts.

A workload has three parts:

- `setup(tp, yp)` takes the certified toroidal and yangian points and
  builds the modules and bridges.  It returns the state that `run` needs.
- `run(state)` makes the checked calls and returns a list of `Check`s.
- `control(tp, yp)` runs one deliberately perturbed case and returns True
  when the library reports it as failing.

Library functions are always reached through their module (`rb.apply_word`,
not a name bound here), so the traced run's wrappers see every call.

Parameter points come from the seed.  Point 0 of seed s is
`sample_generic_params(s, ...)`; seed 0 uses the library's default points
instead.  Point i > 0 samples with the string seed "s/i".
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add
from typing import NamedTuple

__all__ = ["Check", "WORKLOADS", "point_params", "describe_point"]


class Check(NamedTuple):
    name: str
    ok: bool
    instances: int


def point_params(seed, index, r=2):
    """(ToroidalParams, YangianParams) with r framings for point `index`."""
    from toryang import params as pm

    if seed == 0 and index == 0:
        return pm.default_toroidal(r), pm.default_yangian(r)
    key = seed if index == 0 else f"{seed}/{index}"
    return (pm.sample_generic_params(key, "toroidal", r=r),
            pm.sample_generic_params(key, "yangian", r=r))


def describe_point(tp, yp):
    return {"q1": str(tp.q1), "q2": str(tp.q2), "chis": [str(c) for c in tp.chis],
            "h1": str(yp.h1), "h2": str(yp.h2), "xs": [str(x) for x in yp.xs]}


def _labels(module, level_bound):
    return [lab for level in range(level_bound + 1) for lab in module.basis(level)]


# -- relations-rank2 ---------------------------------------------------------

REL_LEVEL = 1
REL_WINDOW = 3


def relations_setup(tp, yp):
    from toryang import toroidal, yangian

    return {"jobs": [("M2", toroidal.KTheoryFixedPointModule(tp, 2), tp, "T"),
                     ("V2", yangian.CohomologyFixedPointModule(yp, 2), yp, "Y")]}


def relations_run(state):
    from toryang import repbase as rb

    checks = []
    for name, module, params, family in state["jobs"]:
        rels = rb.RELATION_BUILDERS_T if family == "T" else rb.RELATION_BUILDERS_Y
        for rel in rels:
            rep = rb.check_relation(module, rel, params, REL_LEVEL, window=REL_WINDOW)
            checks.append(Check(f"{name}:{rel}", rep.ok, rep.checked))
    return checks


def relations_control(tp, yp):
    from toryang import repbase as rb, toroidal

    module = rb.PerturbedModule(toroidal.KTheoryFixedPointModule(tp, 2), "psi")
    return not rb.check_relation(module, "T3", tp, 1, window=1).ok


# -- series-bridge -----------------------------------------------------------

BRIDGE_DIRECTION = (13, 1)
BRIDGE_LEVEL = 0
BRIDGE_TRUNC = 14
BRIDGE_HMOD = 9
T3_WINDOW = 2
LADDER_I = range(-2, 3)
LADDER_J = range(-1, 2)
KERNEL_ORDER = 3
CH_LEVEL = 1
CH_POINTS_PER_LABEL = 2 * 4 + 2 * 2 + 1  # e and f at modes -1..2, H at +-1, +-2, kappa


def bridge_setup(tp, yp):
    from toryang import upsilon

    shifts = yp.xs
    return {"shifts": shifts,
            "bridges": [upsilon.UpsilonBridge(*BRIDGE_DIRECTION, shifts[:r], r,
                                              trunc=BRIDGE_TRUNC) for r in (1, 2)]}


def bridge_run(state):
    from toryang import upsilon

    checks = []
    L, hmod = BRIDGE_LEVEL, BRIDGE_HMOD
    for br in state["bridges"]:
        labels = _labels(br.module, L)
        tag = f"r{br.r}"
        edges = sum(len(br.module.e_transitions(lab)) for lab in labels)
        fails = upsilon.borel_kernel_identity(br, L, KERNEL_ORDER, hmod=hmod)
        checks.append(Check(f"{tag}:borel-kernel", not fails, edges * 2 * KERNEL_ORDER))
        fails = br.audit_t3(L, T3_WINDOW, hmod=hmod)
        checks.append(Check(f"{tag}:t3", not fails, len(labels) * (2 * T3_WINDOW + 1) ** 2))
        fails = br.audit_t4_ladder(L, LADDER_I, LADDER_J, hmod=hmod)
        n_i = sum(1 for i in LADDER_I if i)
        checks.append(Check(f"{tag}:ladder", not fails, len(labels) * n_i * len(LADDER_J)))
        fails = br.audit_cubic(L, hmod=hmod)
        checks.append(Check(f"{tag}:cubic", not fails, len(labels)))
    shifts = state["shifts"][:1]
    _, fails = upsilon.ch_solver(*BRIDGE_DIRECTION, shifts, 1, CH_LEVEL,
                                 trunc=BRIDGE_TRUNC, hmod=hmod)
    ch_labels = _labels(state["bridges"][0].module, CH_LEVEL)
    checks.append(Check("r1:comparison-map", not fails, len(ch_labels) * CH_POINTS_PER_LABEL))
    return checks


def bridge_control(tp, yp):
    from toryang import upsilon

    br = upsilon.UpsilonBridge(*BRIDGE_DIRECTION, yp.xs[:1], 1, trunc=BRIDGE_TRUNC)
    br.gpre = br.gpre * Fraction(17, 16)
    return bool(br.audit_t3(1, 1, hmod=BRIDGE_HMOD))


# -- shuffle-algebra ---------------------------------------------------------

SHUFFLE_DEGREE = {"m": 4, "a": 3}  # additive degree-4 stars cost 4x the multiplicative
LIMIT_WINDOW = 3
HALL_BOUND = 3
HORIZONTAL_ORDER = 6
WHITTAKER_LEVEL = 1


def shuffle_setup(tp, yp):
    from toryang import horizontal, params as pm

    return {"tp": tp, "yp": yp,
            "tp1": pm.ToroidalParams(tp.q1, tp.q2, tp.chis[:1]),
            "yp0": pm.YangianParams(yp.h1, yp.h2, ()),
            "hp": horizontal.horizontal_params()}


def _quadratic_image_m(tp1, i, j):
    """Multiplicative quadratic relation image at (i, j)."""
    from toryang import shuffle as sh

    cs = (1, -tp1.sigma1(), tp1.sigma2(), -1)
    return reduce(add, (sh.star(sh.x_power("m", a), sh.x_power("m", b), tp1) * c
                        for k, c in enumerate(cs)
                        for a, b in ((i + 3 - k, j + k), (j + 3 - k, i + k))))


def _quadratic_image_a(yp0, i, j, s2):
    """Additive quadratic relation image at (i, j) with sigma2 taken as s2."""
    from toryang import shuffle as sh

    comm = [(1, (i + 3, j)), (-3, (i + 2, j + 1)), (3, (i + 1, j + 2)),
            (-1, (i, j + 3)), (s2, (i + 1, j)), (-s2, (i, j + 1))]
    terms = [sh.star_commutator(sh.x_power("a", a), sh.x_power("a", b), yp0) * c
             for c, (a, b) in comm]
    terms += [sh.star(sh.x_power("a", a), sh.x_power("a", b), yp0) * -yp0.sigma3()
              for a, b in ((i, j), (j, i))]
    return reduce(add, terms)


def _cubic_image(flavor, p, mid, last, idx):
    """Symmetrized nested commutator [x_a, [x_{b+mid}, x_{c+last}]] over idx."""
    from toryang import shuffle as sh

    x = sh.x_power
    return reduce(add, (sh.star_commutator(
        x(flavor, a), sh.star_commutator(x(flavor, b + mid), x(flavor, c + last), p), p)
        for a, b, c in permutations(idx)))


def _battery(tp1, yp0):
    """Criterion 5: wheel, membership, commutativity, relation images."""
    from toryang import shuffle as sh

    checks = []
    for flavor, p in (("m", tp1), ("a", yp0)):
        gens = {}
        degree = SHUFFLE_DEGREE[flavor]
        for j in range(1, degree):
            gens[("K", j)] = sh.K_element(flavor, j, p)
            gens[("L", j)] = sh.L_element(flavor, j, p)
        checks.append(Check(f"{flavor}:wheel",
                            all(sh.wheel_check(g, p) for g in gens.values()), len(gens)))
        checks.append(Check(f"{flavor}:membership",
                            all(sh.stable_membership(g) for g in gens.values()), len(gens)))
        pairs = [(a, b) for a in gens for b in gens
                 if a[1] + b[1] <= degree and a <= b]
        ok = all(sh.star_commutator(gens[a], gens[b], p).is_zero() for a, b in pairs)
        checks.append(Check(f"{flavor}:commutativity", ok, len(pairs)))

    idx_m = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    ok = all(_quadratic_image_m(tp1, i, j).is_zero() for i, j in idx_m)
    checks.append(Check("m:quadratic-image", ok, len(idx_m)))
    idx_a = [(i, j) for i in (0, 1) for j in (0, 1)]
    ok = all(_quadratic_image_a(yp0, i, j, yp0.sigma2()).is_zero() for i, j in idx_a)
    checks.append(Check("a:quadratic-image", ok, len(idx_a)))
    for flavor, p, mid, last, idxs in (
            ("m", tp1, 1, -1, ((0, 0, 0), (1, 0, -1), (1, 1, 0))),
            ("a", yp0, 0, 1, ((0, 0, 0), (0, 1, 2), (1, 1, 0)))):
        ok = all(_cubic_image(flavor, p, mid, last, idx).is_zero() for idx in idxs)
        checks.append(Check(f"{flavor}:cubic-image", ok, len(idxs)))
    return checks


def _limits(q, h):
    """Criterion 6: limit-algebra audits, closed forms, nested constants."""
    from toryang import diffops as do

    checks = [Check("theta-m-relations", not do.check_theta_m_relations(q, LIMIT_WINDOW), 1),
              Check("theta-a-relations", not do.check_theta_a_relations(h, LIMIT_WINDOW), 1)]
    cache = {}
    points = [(k, l) for k in range(-HALL_BOUND, HALL_BOUND + 1)
              for l in range(-HALL_BOUND, HALL_BOUND + 1) if (k, l) != (0, 0)]
    ok = all((do.hall_image(k, l, q, cache) - do.pick_closed_form(k, l, q)).is_zero()
             for k, l in points)
    checks.append(Check("pick-closed-forms", ok, len(points)))
    nested = [(N, n) for N in range(2, 7) for n in (3, 4)]
    ok = all(do.nested_ratio_multiplicative(N, n, q)[0] and do.nested_ratio_additive(N, n, h)[0]
             for N, n in nested)
    checks.append(Check("nested-ratios", ok, 2 * len(nested)))
    ok = all(do.serre_multiple_m(n, q) and do.serre_multiple_a(n, h) for n in (3, 4, 5))
    checks.append(Check("serre-multiples", ok, 6))
    return checks


def _horizontal(hp):
    """Criterion 9: vacuum product formula and two-factor membership."""
    from toryang import horizontal as hz, shuffle as sh

    c1 = (1 - hp.q3) * Fraction(1, 5)
    c2 = (1 - hp.q3) * Fraction(2, 7)
    ok = all(hz.matrix_coeff_series(hp, c1, n, HORIZONTAL_ORDER)
             == hz.closed_form_series(hp, c1, n, HORIZONTAL_ORDER) for n in (2, 3))
    checks = [Check("product-formula", ok, 2)]
    t = hz.horizontal_tensor_coeff([c1, c2], 2, hp)
    ok = (sh.wheel_check(t, hp) and sh.stable_membership(t)
          and sh.limit_scaled(t, 1, +1).exists and sh.limit_scaled(t, 1, -1).exists)
    checks.append(Check("tensor-membership", ok, 1))
    return checks


def _whittaker(tp, yp):
    """Criterion 8 at WHITTAKER_LEVEL: label independence and constants."""
    from toryang import partitions as pt, whittaker as wh

    checks = []
    for flavor, p in (("K", tp), ("H", yp)):
        const = wh.C_constant if flavor == "K" else wh.D_constant
        for r in (1, 2):
            labels = sum(len(pt.enum_multipartitions(r, lv)) for lv in range(WHITTAKER_LEVEL + 1))
            for n in (1, 2, 3):
                for j in range(r + 1):
                    val, fails = wh.whittaker_eigencheck(flavor, r, n, j, WHITTAKER_LEVEL, p)
                    want = const(j, n, r, p)
                    ok = not fails and (want is None or val == want)
                    checks.append(Check(f"whittaker:{flavor}:r{r}:n{n}:j{j}", ok, labels))
    return checks


def shuffle_run(state):
    return (_battery(state["tp1"], state["yp0"])
            + _limits(state["tp"].q1, state["yp"].h1)
            + _horizontal(state["hp"])
            + _whittaker(state["tp"], state["yp"]))


def shuffle_control(tp, yp):
    """The additive quadratic image with its sigma2 commutators scaled by 17/16."""
    from toryang import params as pm

    yp0 = pm.YangianParams(yp.h1, yp.h2, ())
    return not _quadratic_image_a(yp0, 0, 0, yp0.sigma2() * Fraction(17, 16)).is_zero()


class Workload(NamedTuple):
    setup: object
    run: object
    control: object
    scale: dict
    expected_instances: int


WORKLOADS = {
    "relations-rank2": Workload(
        relations_setup, relations_run, relations_control,
        {"level": REL_LEVEL, "window": REL_WINDOW, "rank": 2}, 1461),
    "series-bridge": Workload(
        bridge_setup, bridge_run, bridge_control,
        {"level": BRIDGE_LEVEL, "ranks": [1, 2], "trunc": BRIDGE_TRUNC, "hmod": BRIDGE_HMOD,
         "t3_window": T3_WINDOW, "comparison_level": CH_LEVEL,
         "direction": list(BRIDGE_DIRECTION)}, 120),
    "shuffle-algebra": Workload(
        shuffle_setup, shuffle_run, shuffle_control,
        {"degree": SHUFFLE_DEGREE, "limit_window": LIMIT_WINDOW, "hall_bound": HALL_BOUND,
         "horizontal_order": HORIZONTAL_ORDER, "whittaker_level": WHITTAKER_LEVEL}, 217),
}
