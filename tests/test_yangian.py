from fractions import Fraction
from math import comb

import pytest

from toryang import partitions as pt
from toryang.params import YangianParams, default_yangian
from toryang.repbase import (RELATION_BUILDERS_Y, PerturbedModule, check_relation, vec,
                             y_relation_instances)
from toryang.scalars import RatFn, ratfn_expand
from toryang.toroidal import TensorModule
from toryang.yangian import (AdmissibleError, AFockModule, AVectorModule,
                             CohomologyFixedPointModule, check_admissible,
                             fock_constant, gamma_heart, gamma_sharp,
                             gamma_spade, restrict_tensor,
                             solve_fock_factorization_add)

from reference import apply_word, word_images

P0 = default_yangian(r=0)
P1 = default_yangian(r=1)
P1Z = YangianParams(Fraction(13), Fraction(1), (Fraction(0),))
P2 = default_yangian(r=2)
P3 = default_yangian(r=3)


def gamma_mod(module, mlam, i, j):
    v = vec(mlam)
    ef = module.apply_e(i, module.apply_f(j, v))
    fe = module.apply_f(j, module.apply_e(i, v))
    return ef.get(mlam, 0) - fe.get(mlam, 0)


class TestVector:
    def test_modes_and_charge(self):
        u = Fraction(1, 5)
        V = AVectorModule(P0, u)
        assert V.apply_e(2, vec(0)) == {1: u ** 2 / P0.h1}
        assert V.apply_f(3, vec(1)) == {0: -u ** 3 / P0.h1}
        sig3 = P0.sigma3()
        # central charge (0, 1/h1)
        for j in (-1, 0, 2):
            s = V.psi_series(j, +1, 3)
            assert s.coeff(1) / sig3 == 0
            assert s.coeff(2) / sig3 == 1 / P0.h1

    def test_relations(self):
        V = AVectorModule(P0, Fraction(1, 5))
        for rel in ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6"):
            assert check_relation(V, rel, P0, 2, window=2).ok


class TestFock:
    def test_e_on_vacuum(self):
        u = Fraction(1, 5)
        F = AFockModule(P0, u)
        for k in (0, 3):
            assert F.apply_e(k, vec(())) == {(1,): u ** k / P0.h1}

    def test_psi_vacuum_and_charge(self):
        u = Fraction(1, 5)
        F = AFockModule(P0, u)
        s = F.psi_series((), +1, 4)
        h3 = P0.h3
        sig3 = P0.sigma3()
        assert s.coeff(1) == -h3 and s.coeff(2) == -h3 * u and s.coeff(3) == -h3 * u ** 2
        # central charge (-1/(h1 h2), -u/(h1 h2))
        assert s.coeff(1) / sig3 == -1 / (P0.h1 * P0.h2)
        assert s.coeff(2) / sig3 == -u / (P0.h1 * P0.h2)

    def test_relations(self):
        F = AFockModule(P0, Fraction(1, 5))
        for rel in ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6"):
            assert check_relation(F, rel, P0, 3, window=2).ok

    def test_shift_automorphism_binomial_matrix_identity(self):
        # mode-k coefficients at evaluation u are the binomially shifted
        # mode coefficients at evaluation 0
        u = Fraction(2, 7)
        F0, Fu = AFockModule(P0, Fraction(0)), AFockModule(P0, u)
        for lam in pt.enum_partitions(3):
            t0 = {t: (c, p) for t, c, p in F0.e_transitions(lam)}
            for (t, c, p) in Fu.e_transitions(lam):
                c0, p0 = t0[t]
                assert c == c0 and p == p0 + u
                for k in (1, 2, 3):
                    assert c * p ** k == sum(
                        comb(k, m) * u ** (k - m) * c0 * p0 ** m for m in range(k + 1))


class TestFixedPoint:
    def test_relations_rank2(self):
        V = CohomologyFixedPointModule(P2, 2)
        for rel in ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6"):
            assert check_relation(V, rel, P2, 2, window=2).ok

    def test_relation_memo_matches_direct_words(self):
        V = CohomologyFixedPointModule(P2, 2)
        image = word_images(V)
        for rel in RELATION_BUILDERS_Y:
            for _, terms in y_relation_instances(rel, 3, P2):
                for level in range(3):
                    for label in V.basis(level):
                        for _, word in terms:
                            assert image(label, tuple(word)) == \
                                apply_word(V, word, vec(label))

    def test_rank1_gammas(self):
        V = CohomologyFixedPointModule(P1Z, 1)
        s1, s2 = P1Z.h1, P1Z.h2
        for n in range(0, 7):
            for lam in pt.enum_partitions(n):
                assert gamma_mod(V, (lam,), 0, 0) == -1 / (s1 * s2)
                assert gamma_mod(V, (lam,), 1, 0) == 0
                assert gamma_mod(V, (lam,), 2, 0) == 2 * n

    def test_gamma_sharp_oracle_and_stability(self):
        s1, s2 = P1Z.h1, P1Z.h2
        for n in range(0, 7):
            for lam in pt.enum_partitions(n):
                assert gamma_sharp(lam, 0, P1Z) == -1 / (s1 * s2)
                assert gamma_sharp(lam, 1, P1Z) == 0
                g2 = gamma_sharp(lam, 2, P1Z)
                assert g2 == 2 * n
                assert gamma_sharp(lam, 2, P1Z, rows=len(lam) + 3) == g2

    def test_gamma_rank2_closed_forms(self):
        V = CohomologyFixedPointModule(P2, 2)
        s1, s2 = P2.h1, P2.h2
        xs = P2.xs
        for n in range(0, 4):
            for mlam in pt.enum_multipartitions(2, n):
                g0 = gamma_mod(V, mlam, 0, 0)
                g1 = gamma_mod(V, mlam, 1, 0)
                g2 = gamma_mod(V, mlam, 2, 0)
                assert g0 == Fraction(-2) / (s1 * s2)
                assert g1 == (sum(xs) - comb(2, 2) * (s1 + s2)) / (s1 * s2)
                assert g2 == 2 * n - (sum(x * x for x in xs)
                                      - (s1 + s2) * sum(xs)
                                      + comb(2, 3) * (s1 + s2) ** 2) / (s1 * s2)
                for m in (0, 1, 2, 3):
                    assert gamma_spade(mlam, m, P2, 2) == gamma_mod(V, mlam, m, 0)

    def test_gamma_heart_matches_multiplicative_module(self):
        from toryang.params import default_toroidal
        from toryang.toroidal import KTheoryFixedPointModule

        tp = default_toroidal(r=2)
        M = KTheoryFixedPointModule(tp, 2)
        for n in range(0, 3):
            for mlam in pt.enum_multipartitions(2, n):
                for m in (0, 1, 2):
                    got = gamma_heart(mlam, m, tp, 2)
                    assert got == gamma_mod(M, mlam, m, 0)
                    stab = gamma_heart(mlam, m, tp, 2,
                                       cutoffs=[len(mlam[0]) + 2, len(mlam[1]) + 2])
                    assert stab == got

    def test_psi_leading_terms(self):
        # z^-1, z^-2, z^-3 coefficients for ranks up to 3
        for r, p in ((1, P1), (2, P2), (3, P3)):
            V = CohomologyFixedPointModule(p, r)
            s3 = p.h3
            sig3 = p.sigma3()
            xs = p.xs[:r]
            for n in range(0, 4):
                for mlam in pt.enum_multipartitions(r, n):
                    s = V.psi_series(mlam, +1, 4)
                    assert s.coeff(0) == 1
                    assert s.coeff(1) == -r * s3
                    assert s.coeff(2) == s3 * sum(xs) + comb(r, 2) * s3 ** 2
                    assert s.coeff(3) == (2 * sig3 * n - s3 * sum(x * x for x in xs)
                                          - (r - 1) * s3 ** 2 * sum(xs)
                                          - comb(r, 3) * s3 ** 3)

    def test_psi3_cup_product_form(self):
        V = CohomologyFixedPointModule(P1Z, 1)
        sig3 = P1Z.sigma3()
        s1, s2 = P1Z.h1, P1Z.h2
        for n in range(0, 5):
            for lam in pt.enum_partitions(n):
                psi3 = V.psi_series((lam,), +1, 5).coeff(4) / sig3
                contents = sum(pt.content_add(b, s1, s2) for b in pt.boxes(lam))
                assert psi3 == 6 * contents + 2 * (s1 + s2) * n


class TestFockConstants:
    def test_base_cases(self):
        assert fock_constant((), P1Z) == 1
        assert fock_constant((1,), P1Z) == P1Z.h2

    def test_intertwining(self):
        V = CohomologyFixedPointModule(P1Z, 1)
        F = AFockModule(P1Z, Fraction(0))
        for n in range(0, 6):
            for lam in pt.enum_partitions(n):
                cf = fock_constant(lam, P1Z)
                for (src_trans, fock_trans) in (
                        (V.e_transitions((lam,)), F.e_transitions(lam)),
                        (V.f_transitions((lam,)), F.f_transitions(lam))):
                    table = {t: (c, p) for t, c, p in fock_trans}
                    for (tgt, c, p) in src_trans:
                        cc, pp = table[tgt[0]]
                        assert pp == p
                        assert fock_constant(tgt[0], P1Z) * c == cf * cc


# modules whose diagonal data is admissible, with the levels checked
ADMISSIBLE = {
    "aV": (lambda: AVectorModule(P0, Fraction(1, 5)), range(-2, 3)),
    "aF": (lambda: AFockModule(P0, Fraction(1, 5)), range(3)),
    "V1": (lambda: CohomologyFixedPointModule(P1, 1), range(3)),
    "V2": (lambda: CohomologyFixedPointModule(P2, 2), range(3)),
}


class TestAdmissible:
    def test_vector_and_fock_admissible(self):
        assert check_admissible(AVectorModule(P0, Fraction(1, 5)), range(-2, 3))
        labels = [l for n in range(4) for l in pt.enum_partitions(n)]
        assert check_admissible(AFockModule(P0, Fraction(1, 5)), labels)

    def test_every_point_up_to_the_degree_bound_is_read(self):
        # psi = 2(z - 1)/(z - 2) and no transitions: P S = R Q holds at z = 0
        # and fails at z = 1 = D, the last point the degree bound asks for
        class Bare:
            params = P0

            def psi_rat(self, label):
                return RatFn.from_factors(2, (1,), (2,))

            def e_transitions(self, label):
                return []

            f_transitions = e_transitions

        with pytest.raises(AdmissibleError):
            check_admissible(Bare(), [0])

    @pytest.mark.parametrize("name", ADMISSIBLE)
    def test_each_perturbation_breaks_admissibility(self, name):
        build, levels = ADMISSIBLE[name]
        labels = [l for lv in levels for l in build().basis(lv)]
        assert check_admissible(build(), labels)
        for kind in PerturbedModule.KINDS:
            with pytest.raises(AdmissibleError):
                check_admissible(PerturbedModule(build(), kind), labels)

    def test_tensor_psi_and_audit(self):
        u = Fraction(1, 5)
        W = TensorModule(AVectorModule(P0, u), AVectorModule(P0, u - P0.h3))
        a = W.psi_rat((0, 0))
        b1 = AVectorModule(P0, u).psi_rat(0)
        b2 = AVectorModule(P0, u - P0.h3).psi_rat(0)
        for direction in (+1, -1):
            assert ratfn_expand(a, direction, 6) == ratfn_expand(b1 * b2, direction, 6)
        assert check_relation(W, "Y3", P0, 1, window=2).ok

    def test_restriction_staircase(self):
        u = Fraction(1, 5)
        W = TensorModule(AVectorModule(P0, u), AVectorModule(P0, u - P0.h3))
        R, mode = restrict_tensor(W, lambda lab: lab[0] > lab[1], range(-3, 4))
        assert mode == "sub"
        assert check_relation(R, "Y3", P0, 1, window=2).ok
        assert check_relation(R, "Y1", P0, 1, window=1).ok

    def test_restriction_failure(self):
        u = Fraction(1, 5)
        # generic second evaluation: the staircase is closed in neither direction
        W = TensorModule(AVectorModule(P0, u), AVectorModule(P0, Fraction(3, 7)))
        with pytest.raises(AdmissibleError):
            restrict_tensor(W, lambda lab: lab[0] > lab[1], range(-2, 3))


class TestFactorizationAdd:
    def test_rank1_reduces_to_fock_constants(self):
        consts, fails = solve_fock_factorization_add(P1Z, 1, 3)
        assert not fails
        for lam in pt.enum_partitions(3):
            assert consts[(lam,)] == fock_constant(lam, P1Z) / fock_constant((), P1Z)

    def test_rank2(self):
        consts, fails = solve_fock_factorization_add(P2, 2, 3)
        assert not fails
        assert consts[((), ())] == 1
