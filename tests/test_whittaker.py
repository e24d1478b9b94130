from fractions import Fraction

import pytest

from toryang import partitions as pt
from toryang.params import default_toroidal, default_yangian, sample_generic_params
from toryang.repbase import PerturbedModule, coeff_of
from toryang.shuffle import K_element
from toryang.toroidal import KTheoryFixedPointModule
from toryang.yangian import CohomologyFixedPointModule
from toryang.whittaker import (C_constant, D_constant, _extensions, _two_in_a_row,
                               box_chain, chain_contents, fixed_weight, shuffle_matrix_coeff,
                               whittaker_eigencheck, whittaker_sum)

PK1 = default_toroidal(r=1)
PK2 = default_toroidal(r=2)
PH1 = default_yangian(r=1)
PH2 = default_yangian(r=2)


def test_empty_weight_is_one():
    assert fixed_weight(((),), PK1) == 1
    assert fixed_weight(((), ()), PH2) == 1


def test_single_box_weights():
    assert fixed_weight(((1,),), PK1) == 1 / ((1 - PK1.q1) * (1 - PK1.q2))
    assert fixed_weight(((1,),), PH1) == 1 / (PH1.h1 * PH1.h2)


def reference_weight(mlam, flavor, params):
    """Product of 1/(1 - w), resp. 1/w, over the tangent character evaluated
    by the per-family evaluators of `partitions`."""
    weights = pt.tangent_character(mlam)
    if flavor == "K":
        vals = [(sign, 1 - w) for sign, w in
                pt.eval_mult(weights, params.q1, params.q2, params.chis)]
    else:
        vals = pt.eval_add(weights, params.h1, params.h2, params.xs)
    out = Fraction(1)
    for sign, f in vals:
        out = out / f if sign > 0 else out * f
    return out


@pytest.mark.parametrize("flavor", ["K", "H"])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("point", ["default", "sampled"])
def test_fixed_weight_is_the_product_over_the_tangent_character(flavor, r, point):
    family = "toroidal" if flavor == "K" else "yangian"
    if point == "default":
        params = default_toroidal(r) if flavor == "K" else default_yangian(r)
    else:
        params = sample_generic_params(7, family, r=r)
    for level in range(4):
        for mlam in pt.enum_multipartitions(r, level):
            assert fixed_weight(mlam, params) == \
                reference_weight(mlam, flavor, params), mlam


def bott_lefschetz_consistency(flavor, r, level_bound, params):
    """One-box duality: the weight ratio times the mode-zero lowering
    coefficient equals the transposed raising coefficient (mode -r with the
    K weights; mode 0 with the cohomological ones up to the rank sign).
    """
    module = fixed_point_module(flavor, params, r)
    fails = []
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            w_lo = fixed_weight(mlam, params)
            for (a, i, jrow) in pt.addable_boxes(mlam):
                big = pt.mp_add_box(mlam, a, jrow)
                w_hi = fixed_weight(big, params)
                f0 = coeff_of(module.f_transitions(big), mlam)
                if flavor == "K":
                    e_tr = [(t, c * p ** (-r)) for (t, c, p) in module.e_transitions(mlam)]
                else:
                    sign = (-1) ** (r - 1)
                    e_tr = [(t, c * sign) for (t, c, p) in module.e_transitions(mlam)]
                ecoeff = dict(e_tr)[big]
                if (w_hi / w_lo) * f0 != ecoeff:
                    fails.append((mlam, big))
    return fails


def test_bott_lefschetz_duality():
    assert bott_lefschetz_consistency("K", 1, 4, PK1) == []
    assert bott_lefschetz_consistency("K", 2, 3, PK2) == []
    assert bott_lefschetz_consistency("H", 1, 4, PH1) == []
    assert bott_lefschetz_consistency("H", 2, 3, PH2) == []


def test_chain_orders_are_valid():
    small = ((1,), (2,))
    big = ((2, 1), (3, 1))
    for order in ("canonical", "reverse-component"):
        boxes, chain = box_chain(small, big, order=order)
        assert chain[0] == small and chain[-1] == big
        assert len(boxes) == 4
        for lab in chain:
            for lam in lab:
                assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


@pytest.mark.parametrize("small, big", [
    (((2,),), ((1,),)),            # big lies inside small
    (((1,),), ((1,),)),            # nothing to add is a valid empty chain
    (((2, 1),), ((1, 1, 1),)),     # neither contains the other
    (((),), ((), (1,))),           # different ranks
    (((), ()), ((1,),)),
])
def test_box_chain_rejects_a_big_label_that_does_not_contain_small(small, big):
    if small == big:
        assert box_chain(small, big) == ([], [small])
        return
    for order in ("canonical", "reverse-component"):
        with pytest.raises(ValueError):
            box_chain(small, big, order=order)


def test_single_box_coefficient_reduces_to_lowering_mode():
    module = KTheoryFixedPointModule(PK1, 1)
    F = K_element("m", 1, PK1, power=0)
    val = shuffle_matrix_coeff(F, ((1,),), ((),), module, PK1)
    f0 = module.f_transitions(((1,),))[0][1]
    assert val == f0


def test_two_boxes_same_row_vanish():
    module = KTheoryFixedPointModule(PK1, 1)
    F = K_element("m", 2, PK1, power=0)
    val = shuffle_matrix_coeff(F, ((2,),), ((),), module, PK1)
    assert val == 0


def test_two_chain_orders_agree_rank2():
    module = KTheoryFixedPointModule(PK2, 2)
    F = K_element("m", 2, PK2, power=0)
    small = ((), ())
    big = ((1,), (1,))
    a = shuffle_matrix_coeff(F, big, small, module, PK2)
    b = shuffle_matrix_coeff(F, big, small, module, PK2,
                             order="reverse-component")
    assert a == b != 0


class TestEigenvalues:
    def test_k_rank1(self):
        t1, t2 = PK1.q1, PK1.q2
        val, fails = whittaker_eigencheck("K", 1, 1, 1, 3, PK1)
        assert not fails
        assert val == -t1 * t2 / ((1 - t1) * (1 - t2))
        val, fails = whittaker_eigencheck("K", 1, 2, 0, 2, PK1)
        assert not fails

    def test_k_rank2_intermediate_zero(self):
        val, fails = whittaker_eigencheck("K", 2, 1, 1, 2, PK2)
        assert not fails and val == 0
        val, fails = whittaker_eigencheck("K", 2, 2, 1, 2, PK2)
        assert not fails and val == 0

    def test_h_rank1(self):
        s1, s2 = PH1.h1, PH1.h2
        val, fails = whittaker_eigencheck("H", 1, 1, 0, 3, PH1)
        assert not fails
        assert val == 1 / (s1 * s2) == D_constant(0, 1, 1, PH1)
        val, fails = whittaker_eigencheck("H", 1, 1, 1, 3, PH1)
        assert not fails
        assert val == -PH1.xs[0] / (s1 * s2)

    def test_h_rank2_zero_and_subleading(self):
        val, fails = whittaker_eigencheck("H", 2, 2, 0, 2, PH2)
        assert not fails and val == 0
        val, fails = whittaker_eigencheck("H", 2, 2, 1, 2, PH2)
        assert not fails and val == D_constant(1, 2, 2, PH2)

    def test_h_top_family_independence_only(self):
        val, fails = whittaker_eigencheck("H", 1, 2, 1, 2, PH1)
        assert not fails
        assert D_constant(1, 2, 1, PH1) is None

    def test_negative_control(self):
        val, fails = whittaker_eigencheck("H", 1, 1, 0, 2, PH1, perturb=True)
        assert any(f[0] == "label-dependence" for f in fails)


def test_c_constant_examples():
    t1, t2 = PK2.q1, PK2.q2
    assert C_constant(1, 1, 2, PK2) == 0
    assert C_constant(2, 1, 2, PK2) == -t1 * t2 / ((1 - t1) * (1 - t2))
    c0 = C_constant(0, 1, 1, PK1)
    assert c0 == -(t1 * t2 * PK1.chis[0]) / ((1 - t1) * (1 - t2))


# -- the chain memo against a memo-free reference ----------------------------

def reference_matrix_coeff(F, big, small, module, flavor, params, order):
    """shuffle_matrix_coeff written out: F at the chain contents over
    prod_{a<b} (c_a - c_b)^2 omega(c_a, c_b), times the mode-zero lowering
    coefficients along the chain."""
    boxes, chain = box_chain(small, big, order=order)
    if flavor == "K":
        contents = [pt.content_mult((i, j), params.q1, params.q2, params.chis[a - 1])
                    for (a, i, j) in boxes]
    else:
        contents = [pt.content_add((i, j), params.h1, params.h2, params.xs[a - 1])
                    for (a, i, j) in boxes]
    den = Fraction(1)
    for a in range(len(contents)):
        for b in range(a + 1, len(contents)):
            x, y = contents[a], contents[b]
            if flavor == "K":
                q1, q2, q3 = params.qs
                omega = (x - q1 * y) * (x - q2 * y) * (x - q3 * y) / (x - y) ** 3
            else:
                h1, h2, h3 = params.hs
                omega = (x - y - h1) * (x - y - h2) * (x - y - h3) / (x - y) ** 3
            den *= (x - y) ** 2 * omega
    val = F.num.eval(contents) / den
    for k in range(len(chain) - 1, 0, -1):
        val *= coeff_of(module.f_transitions(chain[k]), chain[k - 1])
    return val


def contains(big, small):
    return all(pt.part(lb, j) >= pt.part(la, j)
               for la, lb in zip(small, big) for j in range(1, len(la) + 1))


def chain_pairs(r, level):
    labels = [lab for lv in range(level + 1) for lab in pt.enum_multipartitions(r, lv)]
    return [(small, big) for small in labels for big in labels
            if sum(map(sum, big)) > sum(map(sum, small)) and contains(big, small)]


def fixed_point_module(flavor, params, r):
    cls = KTheoryFixedPointModule if flavor == "K" else CohomologyFixedPointModule
    return cls(params, r)


@pytest.mark.parametrize("flavor", ["K", "H"])
@pytest.mark.parametrize("r", [1, 2])
def test_matrix_coeff_matches_memo_free_reference(flavor, r):
    seed = f"chain-memo/{flavor}/{r}"
    params = sample_generic_params(seed, "toroidal" if flavor == "K" else "yangian", r=r)
    module = fixed_point_module(flavor, params, r)
    ref_module = fixed_point_module(flavor, params, r)
    nonzero = 0
    for small, big in chain_pairs(r, 2):
        n = sum(map(sum, big)) - sum(map(sum, small))
        for j in range(r + 1):
            F = K_element("m" if flavor == "K" else "a", n, params, power=j)
            for order in ("canonical", "reverse-component"):
                want = reference_matrix_coeff(F, big, small, ref_module, flavor, params, order)
                for _ in range(2):  # cold, then warm
                    got = shuffle_matrix_coeff(F, big, small, module, params, order)
                    assert got == want, (small, big, j, order)
                nonzero += want != 0
    assert nonzero


@pytest.mark.parametrize("flavor", ["K", "H"])
def test_packs_with_the_same_labels_keep_their_own_values(flavor):
    family = "toroidal" if flavor == "K" else "yangian"
    packs = [sample_generic_params(f"two-packs/{flavor}/{i}", family, r=2) for i in (0, 1)]
    small, big = ((), ()), ((1,), (1,))
    vals = []
    for params in packs:
        F = K_element("m" if flavor == "K" else "a", 2, params, power=1)
        module = fixed_point_module(flavor, params, 2)
        got = shuffle_matrix_coeff(F, big, small, module, params)
        want = reference_matrix_coeff(F, big, small, fixed_point_module(flavor, params, 2),
                                      flavor, params, "canonical")
        assert got == want
        vals.append(got)
    assert vals[0] != vals[1]


@pytest.mark.parametrize("flavor", ["K", "H"])
def test_control_trips_after_a_clean_run_on_the_same_pack(flavor):
    family = "toroidal" if flavor == "K" else "yangian"
    params = sample_generic_params(f"clean-then-perturbed/{flavor}", family, r=1)
    _, fails = whittaker_eigencheck(flavor, 1, 1, 0, 2, params)
    assert not fails
    _, fails = whittaker_eigencheck(flavor, 1, 1, 0, 2, params, perturb=True)
    assert any(f[0] == "label-dependence" for f in fails)
    _, fails = whittaker_eigencheck(flavor, 1, 1, 0, 2, params)
    assert not fails


def test_skipped_chains_vanish_at_their_contents():
    # whittaker_sum skips an extension that puts two boxes in one row of a
    # component: the factor (x_a - q1 x_b), resp. (x_a - x_b - h1), of the
    # pairwise-product numerator vanishes at two such neighbours.  Their
    # kernel denominator is zero too, so F is evaluated at the contents
    # directly rather than through shuffle_matrix_coeff.
    skipped = 0
    for flavor, packs in (("m", (PK1, PK2)), ("a", (PH1, PH2))):
        for r, params in enumerate(packs, 1):
            for n in (1, 2, 3):
                for level in range(2):
                    for small in pt.enum_multipartitions(r, level):
                        for big in _extensions(small, n):
                            if not _two_in_a_row(small, big):
                                continue
                            skipped += 1
                            for order in ("canonical", "reverse-component"):
                                boxes, _ = box_chain(small, big, order=order)
                                contents = chain_contents(boxes, params)
                                for power in range(r + 1):
                                    F = K_element(flavor, n, params, power=power)
                                    assert F.num.eval(contents) == 0, (flavor, small, big)
    assert skipped == 70


# -- the kept sum against a memo-free schoolbook ------------------------------

def reference_sum(mlam, F, module, flavor, params):
    """whittaker_sum written out: over every extension of mlam by F.n boxes
    with no two new boxes in one row of a component, the tangent-character
    weight ratio times `reference_matrix_coeff`; and the extensions whose
    two chain orders disagree (rank > 1)."""
    total, dependent = Fraction(0), []
    for big in pt.enum_multipartitions(len(mlam), sum(map(sum, mlam)) + F.n):
        if not contains(big, mlam) or any(pt.part(lb, j) - pt.part(la, j) >= 2
                                          for la, lb in zip(mlam, big)
                                          for j in range(1, len(lb) + 1)):
            continue
        ratio = reference_weight(big, flavor, params) / reference_weight(mlam, flavor, params)
        coeff = reference_matrix_coeff(F, big, mlam, module, flavor, params, "canonical")
        if len(mlam) > 1 and coeff != reference_matrix_coeff(F, big, mlam, module, flavor,
                                                             params, "reverse-component"):
            dependent.append(big)
        total += ratio * coeff
    return total, dependent


@pytest.mark.parametrize("flavor", ["K", "H"])
@pytest.mark.parametrize("r", [1, 2])
def test_whittaker_sum_matches_memo_free_reference(flavor, r):
    family = "toroidal" if flavor == "K" else "yangian"
    params = sample_generic_params(f"kept-sum/{flavor}/{r}", family, r=r)
    module = fixed_point_module(flavor, params, r)
    ref_module = fixed_point_module(flavor, params, r)
    labels = [lab for lv in range(3) for lab in pt.enum_multipartitions(r, lv)]
    Fs = [K_element("m" if flavor == "K" else "a", n, params, power=j)
          for n in (1, 2, 3) for j in range(r + 1)]

    def check(module, ref_module):
        vals = {}
        for i, F in enumerate(Fs):
            fvals = {}
            for mlam in labels:
                want = reference_sum(mlam, F, ref_module, flavor, params)
                assert whittaker_sum(mlam, F, params, module) == want, (mlam, F.n)  # cold
                assert whittaker_sum(mlam, F, params, module, fvals) == want  # warm
                vals[mlam, i] = want
        return vals

    clean = check(module, ref_module)
    # a perturbed wrapper of the warm module keeps its own sums
    perturbed = check(PerturbedModule(module, "f"), PerturbedModule(ref_module, "f"))
    assert any(perturbed[k][0] != clean[k][0] for k in clean)
    if r > 1:
        assert any(perturbed[k][1] for k in perturbed)
    assert check(module, ref_module) == clean
