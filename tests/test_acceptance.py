"""Acceptance gate: every criterion runs at its stated scale with exact
(zero-residual) tolerances and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Scales follow the package contract: generic prime-power parameter
points, exact rational (or truncated-series) arithmetic throughout, no
floating point anywhere.

One deliberate scope note: the degree-three symmetrized relation families
are swept over their low-mode triples; all other instances are linear
combinations of these under the log-mode ladder relations, which the same
sweep checks at the full mode window.
"""

import time
from fractions import Fraction

import pytest

from toryang import partitions as pt
from toryang.params import default_toroidal, default_yangian
from toryang.repbase import (RELATION_BUILDERS_T, RELATION_BUILDERS_Y, PerturbedModule,
                             check_relation, vec)


def report(num, ok, text):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


PT1 = default_toroidal(r=1)
PT2 = default_toroidal(r=2)
PT3 = default_toroidal(r=3)
PY0 = default_yangian(r=0)
PY1 = default_yangian(r=1)
PY1Z = default_yangian(r=1, zero_x=True)
PY2 = default_yangian(r=2)
PY3 = default_yangian(r=3)


# The second parameter point of the criteria that sweep it: a certified
# generic sample at a fixed seed, so runs stay deterministic.
SECOND_POINT_SEED = 7


def test_criterion_1_relation_suites():
    """Defining relations on all primary modules, window 3, levels <= 4, at
    the default point and at a sampled second point."""
    from toryang.params import sample_generic_params
    from toryang.toroidal import FockModule, KTheoryFixedPointModule, VectorModule
    from toryang.yangian import AFockModule, AVectorModule, CohomologyFixedPointModule

    t0 = time.time()
    ok = True
    seed = SECOND_POINT_SEED
    points = [("default", PT1, PT2, PY0, PY1, PY2),
              (f"seed {seed}",
               *(sample_generic_params(seed, "toroidal", r=r) for r in (1, 2)),
               *(sample_generic_params(seed, "yangian", r=r) for r in (0, 1, 2)))]
    for point, pt1, pt2, py0, py1, py2 in points:
        jobs = [
            ("V(u)", VectorModule(pt1, Fraction(1, 5)), pt1, RELATION_BUILDERS_T, 4),
            ("F(u)", FockModule(pt1, Fraction(1, 5)), pt1, RELATION_BUILDERS_T, 4),
            ("M^1", KTheoryFixedPointModule(pt1, 1), pt1, RELATION_BUILDERS_T, 4),
            ("M^2", KTheoryFixedPointModule(pt2, 2), pt2, RELATION_BUILDERS_T, 4),
            ("aV(u)", AVectorModule(py0, Fraction(1, 5)), py0, RELATION_BUILDERS_Y, 4),
            ("aF(u)", AFockModule(py0, Fraction(1, 5)), py0, RELATION_BUILDERS_Y, 4),
            ("V^1", CohomologyFixedPointModule(py1, 1), py1, RELATION_BUILDERS_Y, 4),
            ("V^2", CohomologyFixedPointModule(py2, 2), py2, RELATION_BUILDERS_Y, 4),
        ]
        for name, module, params, rels, L in jobs:
            tm = time.time()
            for rel in rels:
                rep = check_relation(module, rel, params, L, window=3)
                if not rep.ok:
                    ok = False
                    print(f"  {point} {name} {rel}: {rep.counterexample}")
            assert time.time() - tm < 120, f"{point} {name} exceeded the per-module budget"
        # the negative control trips at this point too
        perturbed = PerturbedModule(KTheoryFixedPointModule(pt2, 2), "psi")
        ok &= not check_relation(perturbed, "T3", pt2, 1, window=1).ok
    report(1, ok, f"relation suites, window 3, levels <= 4, two points ({time.time()-t0:.0f}s)")


def test_criterion_2_gamma_eigenvalues():
    """Diagonal commutator eigenvalues: rank-1 closed forms for |lam| <= 6
    and the rank-2 forms to level 4, module vs closed-form oracle."""
    from math import comb

    from toryang.yangian import CohomologyFixedPointModule, gamma_sharp, gamma_spade

    t0 = time.time()
    s1, s2 = PY1Z.h1, PY1Z.h2
    V1 = CohomologyFixedPointModule(PY1Z, 1)
    ok = True

    def gmod(module, mlam, m):
        v = vec(mlam)
        ef = module.apply_e(m, module.apply_f(0, v))
        fe = module.apply_f(0, module.apply_e(m, v))
        return ef.get(mlam, 0) - fe.get(mlam, 0)

    for n in range(0, 7):
        for lam in pt.enum_partitions(n):
            ok &= gmod(V1, (lam,), 0) == -1 / (s1 * s2) == gamma_sharp(lam, 0, PY1Z)
            ok &= gmod(V1, (lam,), 1) == 0 == gamma_sharp(lam, 1, PY1Z)
            ok &= gmod(V1, (lam,), 2) == 2 * n == gamma_sharp(lam, 2, PY1Z)
    s1, s2 = PY2.h1, PY2.h2
    xs = PY2.xs
    V2 = CohomologyFixedPointModule(PY2, 2)
    for n in range(0, 5):
        for mlam in pt.enum_multipartitions(2, n):
            g0, g1, g2 = (gmod(V2, mlam, m) for m in (0, 1, 2))
            ok &= g0 == -2 / (s1 * s2)
            ok &= g1 == (sum(xs) - comb(2, 2) * (s1 + s2)) / (s1 * s2)
            ok &= g2 == 2 * n - (sum(x * x for x in xs) - (s1 + s2) * sum(xs)
                                 + comb(2, 3) * (s1 + s2) ** 2) / (s1 * s2)
            ok &= all(gamma_spade(mlam, m, PY2, 2) == g
                      for m, g in ((0, g0), (1, g1), (2, g2)))
    report(2, ok, f"gamma eigenvalue closed forms ({time.time()-t0:.0f}s)")


def test_criterion_3_psi_leading_terms():
    """Diagonal series leading coefficients through z^-3 for ranks <= 3."""
    from math import comb

    from toryang.yangian import CohomologyFixedPointModule

    t0 = time.time()
    ok = True
    for r, p in ((1, PY1), (2, PY2), (3, PY3)):
        V = CohomologyFixedPointModule(p, r)
        s3, sig3, xs = p.h3, p.sigma3(), p.xs[:r]
        for n in range(0, 4):
            for mlam in pt.enum_multipartitions(r, n):
                s = V.psi_series(mlam, +1, 4)
                ok &= s.coeff(1) == -r * s3
                ok &= s.coeff(2) == s3 * sum(xs) + comb(r, 2) * s3 ** 2
                ok &= s.coeff(3) == (2 * sig3 * n - s3 * sum(x * x for x in xs)
                                     - (r - 1) * s3 ** 2 * sum(xs)
                                     - comb(r, 3) * s3 ** 3)
    report(3, ok, f"diagonal series leading terms, r <= 3, levels <= 3 ({time.time()-t0:.0f}s)")


def test_criterion_4_fock_factorizations():
    """Both diagonal factorization maps onto Fock tensors, solved and fully
    verified to level 3 at rank 2, including one-box-ratio path independence."""
    from toryang.toroidal import solve_fock_factorization
    from toryang.yangian import solve_fock_factorization_add

    t0 = time.time()
    ok = True
    for r, p in ((1, PT1), (2, PT2)):
        consts, fails = solve_fock_factorization(p, r, 3)
        ok &= not fails and consts[((),) * r] == 1
    for r, p in ((1, PY1), (2, PY2)):
        consts, fails = solve_fock_factorization_add(p, r, 3)
        ok &= not fails and consts[((),) * r] == 1
    report(4, ok, f"Fock-tensor factorizations, r <= 2, level 3 ({time.time()-t0:.0f}s)")


def test_criterion_5_shuffle():
    """Wheel condition, stable-subalgebra membership, pairwise commutativity
    to degree 4 (both flavors), and vanishing of the quadratic and cubic
    relation images under the arity-one assignment."""
    from itertools import permutations

    from toryang.shuffle import (K_element, L_element, star, star_commutator,
                                 stable_membership, wheel_check, x_power)

    t0 = time.time()
    ok = True
    for flavor, p in (("m", PT1), ("a", PY0)):
        gens = {}
        for j in (1, 2, 3):
            gens[("K", j)] = K_element(flavor, j, p)
            gens[("L", j)] = L_element(flavor, j, p)
        ok &= all(wheel_check(g, p) for g in gens.values())
        ok &= all(stable_membership(g) for g in gens.values())
        for (na, ia) in gens:
            for (nb, ib) in gens:
                if ia + ib <= 4 and (na, ia) <= (nb, ib):
                    ok &= star_commutator(gens[(na, ia)], gens[(nb, ib)], p).is_zero()
    # quadratic family images
    s1m, s2m = PT1.sigma1(), PT1.sigma2()
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            acc = None
            for k, c in enumerate((1, -s1m, s2m, -1)):
                for (a, b) in ((i + 3 - k, j + k), (j + 3 - k, i + k)):
                    term = star(x_power("m", a), x_power("m", b), PT1) * c
                    acc = term if acc is None else acc + term
            ok &= acc.is_zero()
    s2, s3 = PY0.sigma2(), PY0.sigma3()
    for i in (0, 1):
        for j in (0, 1):
            acc = None
            for c, (a, b) in [(1, (i + 3, j)), (-3, (i + 2, j + 1)),
                              (3, (i + 1, j + 2)), (-1, (i, j + 3)),
                              (s2, (i + 1, j)), (-s2, (i, j + 1))]:
                term = star_commutator(x_power("a", a), x_power("a", b), PY0) * c
                acc = term if acc is None else acc + term
            for (a, b) in ((i, j), (j, i)):
                acc = acc - star(x_power("a", a), x_power("a", b), PY0) * s3
            ok &= acc.is_zero()
    # cubic family images
    for flavor, p, mid, last, idxs in (
            ("m", PT1, 1, -1, ((0, 0, 0), (1, 0, -1), (1, 1, 0))),
            ("a", PY0, 0, 1, ((0, 0, 0), (0, 1, 2), (1, 1, 0)))):
        for idx in idxs:
            acc = None
            for (a, b, c) in permutations(idx):
                inner = star_commutator(x_power(flavor, b + mid),
                                        x_power(flavor, c + last), p)
                term = star_commutator(x_power(flavor, a), inner, p)
                acc = term if acc is None else acc + term
            ok &= acc.is_zero()
    dt = time.time() - t0
    assert dt < 180, "shuffle budget exceeded"
    report(5, ok, f"shuffle wheel/membership/commutativity/images ({dt:.0f}s)")


def test_criterion_6_limit_algebras():
    """Shift-operator relation audits, lattice-element closed forms against
    the recursion for |k|, |l| <= 3, and the nested commutator constants."""
    from toryang.diffops import (check_theta_a_relations, check_theta_m_relations,
                                 hall_image, nested_ratio_additive,
                                 nested_ratio_multiplicative, pick_closed_form,
                                 serre_multiple_a, serre_multiple_m)

    t0 = time.time()
    q, h = PT1.q1, PY0.h1
    ok = check_theta_m_relations(q, window=3) == []
    ok &= check_theta_a_relations(h, window=3) == []
    cache = {}
    for k in range(-3, 4):
        for l in range(-3, 4):
            if (k, l) != (0, 0):
                ok &= (hall_image(k, l, q, cache) - pick_closed_form(k, l, q)).is_zero()
    for N in range(2, 7):
        for n in (3, 4):
            ok &= nested_ratio_multiplicative(N, n, q)[0]
            ok &= nested_ratio_additive(N, n, h)[0]
    ok &= all(serre_multiple_m(n, q) and serre_multiple_a(n, h) for n in (3, 4, 5))
    report(6, ok, f"limit algebra audits and closed forms ({time.time()-t0:.0f}s)")


def test_criterion_7_bridge():
    """Series-ring bridge: kernel identity, bracket/ladder/cubic audits on
    the rank <= 2 modules at level <= 3 with residuals zero through order 8,
    the comparison-map constants at level 3, and the degenerate-direction
    match."""
    from toryang.upsilon import (UpsilonBridge, borel_kernel_identity,
                                 borel_log_identity, ch_solver,
                                 limit_h3_diffop_identities,
                                 limit_h3_module_check)

    t0 = time.time()
    HMOD = 9  # residuals vanish modulo the ninth power of the deformation symbol
    ok = borel_log_identity(8)
    br1 = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=14)
    br2 = UpsilonBridge(13, 1, (Fraction(1, 5), Fraction(1, 7)), 2, trunc=14)
    ok &= borel_kernel_identity(br1, 3, 3, hmod=HMOD) == []
    for br, L in ((br1, 3), (br2, 3)):
        ok &= br.audit_t3(L, 2, hmod=HMOD) == []
        ok &= br.audit_t4_ladder(L, range(-2, 3), range(-1, 2), hmod=HMOD) == []
        ok &= br.audit_cubic(L, hmod=HMOD) == []
    consts, fails = ch_solver(13, 1, (Fraction(1, 5),), 1, 3, trunc=14, hmod=HMOD)
    ok &= not fails
    ok &= limit_h3_diffop_identities(trunc=12, xcap=8, hmod=HMOD) == []
    ok &= limit_h3_module_check(1, level_bound=2, trunc=12, hmod=8) == []
    report(7, ok, f"bridge audits mod order 9, comparison map, degeneration ({time.time()-t0:.0f}s)")


def test_criterion_8_whittaker():
    """Eigenvector property (label independence) for both flavors, r <= 2,
    n <= 3, j <= r, levels <= 4, with the closed-form constants, at the
    default point and at a sampled second point."""
    from toryang.params import sample_generic_params
    from toryang.whittaker import C_constant, D_constant, whittaker_eigencheck

    t0 = time.time()
    ok = True
    seed = SECOND_POINT_SEED
    points = [("default", {("K", 1): PT1, ("K", 2): PT2, ("H", 1): PY1, ("H", 2): PY2}),
              (f"seed {seed}",
               {(flavor, r): sample_generic_params(seed, family, r=r)
                for flavor, family in (("K", "toroidal"), ("H", "yangian")) for r in (1, 2)})]
    for point, packs in points:
        for (flavor, r), p in packs.items():
            for n in (1, 2, 3):
                for j in range(r + 1):
                    val, fails = whittaker_eigencheck(flavor, r, n, j, 4, p)
                    if fails:
                        ok = False
                        print(f"  {point} {flavor} r={r} n={n} j={j}: {fails[:2]}")
                    want = (C_constant if flavor == "K" else D_constant)(j, n, r, p)
                    if want is not None and val != want:
                        ok = False
                        print(f"  {point} {flavor} r={r} n={n} j={j}: value {val} != {want}")
            # the negative control trips on every pack at this point
            _, fails = whittaker_eigencheck(flavor, r, 1, 0, 4, p, perturb=True)
            if not any(f[0] == "label-dependence" for f in fails):
                ok = False
                print(f"  {point} {flavor} r={r}: perturbed lowering coefficient not detected")
    dt = time.time() - t0
    assert dt < 300, "whittaker budget exceeded"
    report(8, ok, f"eigenvector property and constants, r <= 2, n <= 3, L <= 4, "
                  f"two points ({dt:.0f}s)")


def test_criterion_9_horizontal():
    """Vacuum coefficient product formula at orders 6 (n = 2, 3) and the
    stable-subalgebra membership of the two-factor coefficient."""
    from toryang.horizontal import (closed_form_series, horizontal_params,
                                    horizontal_tensor_coeff, matrix_coeff_series)
    from toryang.shuffle import limit_scaled, stable_membership, wheel_check

    t0 = time.time()
    p = horizontal_params()
    c1 = (1 - p.q3) * Fraction(1, 5)
    c2 = (1 - p.q3) * Fraction(2, 7)
    ok = True
    for n in (2, 3):
        ok &= matrix_coeff_series(p, c1, n, 6) == closed_form_series(p, c1, n, 6)
    t = horizontal_tensor_coeff([c1, c2], 2, p)
    ok &= wheel_check(t, p) and stable_membership(t)
    ok &= limit_scaled(t, 1, +1).exists and limit_scaled(t, 1, -1).exists
    report(9, ok, f"horizontal product formula and membership ({time.time()-t0:.0f}s)")


def test_criterion_10_negative_controls():
    """Each suite must fail (exit 1 with a counterexample) under a deliberate
    single-coefficient perturbation."""
    from toryang.cli import run

    t0 = time.time()
    ok = True
    cfgs = [
        {"suite": "relations", "flavor": "toroidal", "module": "fock",
         "L": 2, "I": 1, "perturb": "psi"},
        {"suite": "shuffle", "L": 3, "perturb": True},
        {"suite": "limits", "L": 2, "perturb": True},
        {"suite": "whittaker", "r": 1, "n": 1, "L": 1, "perturb": True},
        {"suite": "upsilon", "L": 1, "N": 12, "perturb": True},
        {"suite": "horizontal", "L": 1, "N": 4, "perturb": True},
    ]
    for cfg in cfgs:
        code, rep = run(cfg)
        failing = [c for c in rep["checks"] if c["status"] == "fail"]
        if code != 1 or not failing:
            ok = False
            print(f"  control did not trip: {cfg}")
    report(10, ok, f"negative controls trip every suite ({time.time()-t0:.0f}s)")
