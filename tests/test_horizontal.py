import hashlib
from fractions import Fraction

from toryang.horizontal import (apply_vertex_mode, boson_apply, boson_kappa,
                                closed_form_series, etilde_spec, ftilde_spec,
                                horizontal_params, horizontal_tensor_coeff,
                                matrix_coeff_series, psitilde_spec,
                                single_factor_closed_form, tt3_check)
from toryang.multipoly import MPoly
from toryang.shuffle import limit_scaled, stable_membership, wheel_check

P = horizontal_params()
C1 = (1 - P.q3) * Fraction(1, 5)
C2 = (1 - P.q3) * Fraction(2, 7)
VAC = {(): Fraction(1)}


def test_params_quarter_root():
    assert P.rho ** 4 == P.q3
    assert P.q1 * P.q2 * P.q3 == 1


class TestBoson:
    def test_creation(self):
        assert boson_apply(P, -2, VAC) == {(2,): 1}
        v = boson_apply(P, -1, boson_apply(P, -2, VAC))
        assert v == {(2, 1): 1}

    def test_annihilation_and_bracket(self):
        assert boson_apply(P, 1, VAC) == {}
        v = boson_apply(P, 2, boson_apply(P, -2, VAC))
        assert v == {(): boson_kappa(P, 2)}
        # multiplicity counting: a_1 on (1,1)
        v = boson_apply(P, 1, {(1, 1): Fraction(1)})
        assert v == {(1,): 2 * boson_kappa(P, 1)}

    def test_bracket_on_general_states(self):
        for m in (1, 2, 3):
            for state in ({(2, 1): Fraction(1)}, {(3, 1, 1): Fraction(2)}):
                lhs = boson_apply(P, m, boson_apply(P, -m, state))
                rhs_comm = boson_apply(P, -m, boson_apply(P, m, state))
                diff = {k: lhs.get(k, 0) - rhs_comm.get(k, 0)
                        for k in set(lhs) | set(rhs_comm)}
                diff = {k: v for k, v in diff.items() if v}
                want = {k: boson_kappa(P, m) * v for k, v in state.items()}
                assert diff == want


class TestVertexModes:
    def test_e0_on_vacuum(self):
        e = etilde_spec(P, C1)
        assert apply_vertex_mode(P, e, 0, VAC) == {(): C1}

    def test_psi_plus_mode0_is_identity(self):
        pp = psitilde_spec(P, +1)
        assert apply_vertex_mode(P, pp, 0, VAC) == {(): 1}
        assert apply_vertex_mode(P, pp, 0, {(2, 1): Fraction(3)}) \
            .get((2, 1)) == 3

    def test_modes_shift_degree(self):
        e = etilde_spec(P, C1)
        out = apply_vertex_mode(P, e, -2, VAC)
        assert out and all(sum(mu) == 2 for mu in out)
        f = ftilde_spec(P, C1)
        out = apply_vertex_mode(P, f, 1, {(2,): Fraction(1)})
        assert all(sum(mu) == 1 for mu in out)


def test_tt3_modewise():
    assert tt3_check(P, C1, window=2, degree_cap=2) == []


def test_tt3_detects_wrong_normalization():
    q1, q2, q3 = P.qs
    # scaling the lowering family breaks the bracket audit
    fails = []
    e = etilde_spec(P, C1)
    f = ftilde_spec(P, C1)
    f.c = f.c * Fraction(17, 16)
    pp = psitilde_spec(P, +1)
    lhs = apply_vertex_mode(P, e, 1, apply_vertex_mode(P, f, -1, VAC))
    rhs = apply_vertex_mode(P, f, -1, apply_vertex_mode(P, e, 1, VAC))
    norm = (1 - 1 / q3) / ((1 - q1) * (1 - q2))
    bracket = {k: (lhs.get(k, 0) - rhs.get(k, 0)) * norm for k in set(lhs) | set(rhs)}
    want = {kk: v * P.rho ** 2 for kk, v in apply_vertex_mode(P, pp, 0, VAC).items()}
    want[()] -= P.rho ** (-2)
    assert bracket[()] != want[()]


class TestVacuumCoefficients:
    def test_n1_reduces_to_constant(self):
        assert matrix_coeff_series(P, C1, 1, 4) == MPoly.const(0, C1)

    def test_product_formula_orders(self):
        for n in (2, 3):
            got = matrix_coeff_series(P, C1, n, 6)
            want = closed_form_series(P, C1, n, 6)
            assert got == want, n

    def test_symmetry_through_both_expansions(self):
        # expanding the manifestly symmetric product both ways and matching
        # the operator series in each region
        a = matrix_coeff_series(P, C1, 2, 6)
        assert a == closed_form_series(P, C1, 2, 6)


class TestTensorCoefficient:
    def test_single_factor_matches_product_formula(self):
        for n in (2, 3):
            t = horizontal_tensor_coeff([C1], n, P)
            s = single_factor_closed_form(P, C1, n)
            assert t.num == s.num

    def test_two_factor_membership(self):
        t = horizontal_tensor_coeff([C1, C2], 2, P)
        assert wheel_check(t, P)
        assert stable_membership(t)
        assert t.num.is_symmetric()

    def test_two_factor_limits_match_both_ends(self):
        t = horizontal_tensor_coeff([C1, C2], 2, P)
        up = limit_scaled(t, 1, +1)
        dn = limit_scaled(t, 1, -1)
        assert up.exists and dn.exists

    def test_zero_currents_unit(self):
        t = horizontal_tensor_coeff([C1, C2], 0, P)
        assert t.n == 0 and t.num.d.get((), None) is not None


# Recorded before the Vandermonde division ran on integers, with the hashing
# scheme of tests/test_shuffle.py's star digests: sha256 of the repr of the
# sorted (exponent strings, coefficient string) tuples of the numerator.
TENSOR_DIGESTS = {
    2: "61fe673565bf464acefbaa3f9f3d47fc4734e1da0f3ad0e3caec2b93f1700de2",
    3: "e551268e3eeeedf48eae731da9795d0aa0438bcdf4e6c389e6fb6d5f7562f8b4",
}


def numerator_digest(num):
    rows = tuple(sorted((tuple(str(k) for k in e), str(c)) for e, c in num.d.items()))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_two_factor_numerators_match_recorded_digest():
    for n, digest in TENSOR_DIGESTS.items():
        assert numerator_digest(horizontal_tensor_coeff([C1, C2], n, P).num) == digest


def test_tt3_check_reports_a_scaled_lowering_constant(monkeypatch):
    import toryang.horizontal as hz

    def scaled(params, c):
        spec = ftilde_spec(params, c)
        spec.c = spec.c * Fraction(17, 16)
        return spec

    monkeypatch.setattr(hz, "ftilde_spec", scaled)
    fails = tt3_check(P, C1, window=2, degree_cap=2)
    # count and ends recorded with the hand-written bracket loop
    assert len(fails) == 70
    assert fails[0] == ((), -2, -2) and fails[-1] == ((2,), 2, 0)
