from fractions import Fraction

import pytest

from toryang.params import default_toroidal
from toryang.repbase import (PerturbedModule, RELATION_BUILDERS_T, RELATION_BUILDERS_Y,
                             check_relation, t_relation_instances, vec, vsum,
                             y_relation_instances)
from toryang.toroidal import (FixedPointModule, FockModule, IllDefinedCoproductError,
                              KTheoryFixedPointModule, TensorModule,
                              VectorModule, fock_factorization_ratio,
                              fock_tensor, nest_label,
                              solve_fock_factorization, DiagonalTwist)
from toryang import partitions as pt
from toryang.params import default_yangian
from toryang.scalars import series_log
from toryang.yangian import CohomologyFixedPointModule

from reference import apply_word, word_images

P1 = default_toroidal(r=1)
P2 = default_toroidal(r=2)


def commutator_diag(module, mlam, i, j):
    v = vec(mlam)
    ef = module.apply_e(i, module.apply_f(j, v))
    fe = module.apply_f(j, module.apply_e(i, v))
    return ef.get(mlam, 0) - fe.get(mlam, 0)


class TestVector:
    def test_e_mode_coefficient(self):
        V = VectorModule(P1, Fraction(1, 5))
        for k in (-2, 0, 3):
            out = V.apply_e(k, vec(0))
            assert out == {1: (Fraction(1, 5)) ** k / (1 - P1.q1)}

    def test_relations(self):
        V = VectorModule(P1)
        for rel in ("T0", "T1", "T2", "T3", "T4t", "T5t", "T6", "T6t"):
            assert check_relation(V, rel, P1, 2, window=2).ok


class TestFock:
    def test_e_on_vacuum(self):
        F = FockModule(P1, Fraction(1, 5))
        for k in (0, 2):
            out = F.apply_e(k, vec(()))
            assert out == {(1,): Fraction(1, 5) ** k / (1 - P1.q1)}

    def test_f_kills_vacuum(self):
        F = FockModule(P1)
        assert F.apply_f(0, vec(())) == {}

    def test_psi_on_vacuum_telescopes(self):
        F = FockModule(P1, Fraction(1, 5))
        rat = F.psi_rat(())
        # (z - q3 u)/(z - u)
        u = Fraction(1, 5)
        import random

        rnd = random.Random(0)
        for _ in range(4):
            z = Fraction(rnd.randint(2, 60), rnd.randint(1, 7))
            assert rat.eval(z) == (z - P1.q3 * u) / (z - u)

    def test_relations(self):
        F = FockModule(P1)
        for rel in ("T0", "T1", "T2", "T3", "T4t", "T5t", "T6", "T6t"):
            assert check_relation(F, rel, P1, 3, window=2).ok

    def test_shift_twist_scales_modes(self):
        # the module at evaluation u has e_k coefficients u^k times those at 1
        F1 = FockModule(P1, Fraction(1))
        Fu = FockModule(P1, Fraction(3, 7))
        for lam in pt.enum_partitions(3):
            t1 = {t: (c, p) for t, c, p in F1.e_transitions(lam)}
            for (t, c, p) in Fu.e_transitions(lam):
                c1, p1 = t1[t]
                assert c == c1 and p == p1 * Fraction(3, 7)


def multipartition_counts(r, top):
    """Coefficients of prod_k (1 - x^k)^(-r) up to x^top: the series 1 times
    r geometric factors 1/(1 - x^k) for each k."""
    c = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(r):
            for n in range(k, top + 1):
                c[n] += c[n - k]
    return c


def test_multipartition_counts_match_the_known_values():
    assert multipartition_counts(1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert multipartition_counts(2, 6) == [1, 2, 5, 10, 20, 36, 65]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_fixed_point_basis_counts_the_r_multipartitions(r):
    M = FixedPointModule(default_toroidal(r=3), r)
    assert [len(M.basis(n)) for n in range(7)] == multipartition_counts(r, 6)


def test_fock_bases_count_the_partitions_and_their_tensor_the_pairs():
    # the Fock tensor's levels split over 0..n, so they count 2-multipartitions
    assert [len(FockModule(P1, Fraction(1, 5)).basis(n)) for n in range(7)] == \
        multipartition_counts(1, 6)
    assert [len(fock_tensor(P2, 2).basis(n)) for n in range(7)] == multipartition_counts(2, 6)


@pytest.mark.parametrize("flavor", ["toroidal", "yangian"])
def test_relation_checks_count_every_label_and_instance(flavor):
    """Each relation check of the CLI's default `relations` suite (vector
    and Fock modules at u = 1/5, fixed-point modules of rank 1 and 2, levels
    <= 3, window 2) reports as `checked` its instance count times the labels
    at levels <= 3, counted independently: one per level on the vector
    chain, the r-multipartitions of n on the Fock (r = 1) and fixed-point
    bases."""
    if flavor == "toroidal":
        params, fixed_point = default_toroidal(r=2), KTheoryFixedPointModule
        build, relations = t_relation_instances, RELATION_BUILDERS_T
    else:
        params, fixed_point = default_yangian(r=2), CohomologyFixedPointModule
        build, relations = y_relation_instances, RELATION_BUILDERS_Y
    modules = [(VectorModule(params, Fraction(1, 5)), [1] * 4),
               (FockModule(params, Fraction(1, 5)), multipartition_counts(1, 3))]
    modules += [(fixed_point(params, r), multipartition_counts(r, 3)) for r in (1, 2)]
    for module, counts in modules:
        for rel in relations:
            rep = check_relation(module, rel, params, 3, window=2)
            assert rep.ok and rep.checked == sum(counts) * len(build(rel, 2, params)), \
                (type(module).__name__, rel)


def test_tensor_of_vector_modules_sweeps_nine_plus_abs_n_splittings():
    # level n of V x V pairs [u]_k with [u]_(n-k) for k in the window
    # -4 + min(n, 0) .. 4 + max(n, 0)
    V = VectorModule(P1)
    T = TensorModule(V, V)
    assert [len(T.basis(n)) for n in range(-3, 4)] == [9 + abs(n) for n in range(-3, 4)]


class TestFixedPoint:
    def test_psi_vacuum_constant(self):
        M = KTheoryFixedPointModule(P2, 2)
        ser = M.psi_series(((), ()), +1, 1)
        want = (P2.q1 * P2.q2) ** 3 * P2.chis[0] * P2.chis[1]  # (-1)^r = +1
        assert ser.coeff(0) == want

    def test_psi_plus_minus_constants(self):
        M = KTheoryFixedPointModule(P2, 2)
        for mlam in pt.enum_multipartitions(2, 2):
            plus0 = M.psi_series(mlam, +1, 1).coeff(0)
            minus0 = M.psi_series(mlam, -1, 1).coeff(0)
            assert plus0 == (P2.q1 * P2.q2) ** 3 * P2.chis[0] * P2.chis[1]
            assert minus0 == (P2.q1 * P2.q2) * P2.chis[0] * P2.chis[1]

    def test_cutoff_stability(self):
        M = KTheoryFixedPointModule(P2, 2)
        M2 = KTheoryFixedPointModule(P2, 2, margin=3)
        for mlam in (((2, 1), (1,)), ((3,), ()), ((1, 1, 1), (2,))):
            assert M.e_transitions(mlam) == M2.e_transitions(mlam)
            assert M.f_transitions(mlam) == M2.f_transitions(mlam)

    def test_commutator_diagonal_depends_on_sum(self):
        M = KTheoryFixedPointModule(P2, 2)
        for mlam in (((), ()), ((1,), (1,))):
            assert commutator_diag(M, mlam, 1, 0) == commutator_diag(M, mlam, 0, 1)
            assert commutator_diag(M, mlam, 2, -1) == commutator_diag(M, mlam, 0, 1)

    def test_commutator_off_diagonal_vanishes(self):
        M = KTheoryFixedPointModule(P2, 2)
        v = vec(((1,), ()))
        ef = M.apply_e(1, M.apply_f(0, v))
        fe = M.apply_f(0, M.apply_e(1, v))
        diff = {k: ef.get(k, 0) - fe.get(k, 0) for k in set(ef) | set(fe)}
        assert all(not c for k, c in diff.items() if k != ((1,), ()))

    def test_relations(self):
        M = KTheoryFixedPointModule(P2, 2)
        for rel in ("T0", "T1", "T3", "T4t", "T6t"):
            assert check_relation(M, rel, P2, 2, window=2).ok

    def test_t_ladder(self):
        # [t_1, e_j] = e_{1+j} tested directly through the log-mode eigenvalues
        M = KTheoryFixedPointModule(P1, 1)
        for mlam in pt.enum_multipartitions(1, 2):
            for (tgt, c, p) in M.e_transitions(mlam):
                for m in (1, 2, -1):
                    dt = M.t_eigenvalue(tgt, m) - M.t_eigenvalue(mlam, m)
                    assert dt == p ** m

    def test_t_eigenvalue_two_routes(self):
        # log-series extraction against the root-data formula
        V = VectorModule(P1, Fraction(1, 5))
        q1, q2, q3 = P1.qs
        u = Fraction(1, 5)
        for j in (-1, 0, 2):
            for m in (1, 2, 3):
                got = V.t_eigenvalue(j, m)
                zeros = [q1 ** j * q2 * u, q1 ** j * q3 * u]
                poles = [q1 ** j * u, q1 ** (j - 1) * u]
                want = (sum(z ** m for z in zeros) - sum(p ** m for p in poles)) / P1.beta(m)
                assert got == want


class TestNegativeControl:
    def test_perturbed_psi_fails_t3(self):
        F = PerturbedModule(FockModule(P1), "psi")
        rep = check_relation(F, "T3", P1, 2, window=1)
        assert not rep.ok
        assert rep.counterexample["level"] <= 1

    def test_perturbed_e_fails_t1(self):
        F = PerturbedModule(FockModule(P1), "e")
        assert not check_relation(F, "T1", P1, 2, window=1).ok

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PerturbedModule(FockModule(P1), "bogus")


def first_failure_by_direct_words(module, relation, params, level_bound, window):
    """Reference sweep: every word applied afresh to every basis vector."""
    instances = t_relation_instances(relation, window, params)
    for level in range(level_bound + 1):
        for label in module.basis(level):
            for inst_id, terms in instances:
                acc = {}
                for coeff, word in terms:
                    if coeff:
                        image = apply_word(module, word, vec(label))
                        acc = vsum(((k, c * coeff) for k, c in image.items()), acc)
                if acc:
                    return {"instance": inst_id, "level": level, "label": label,
                            "residual": {str(k): repr(c) for k, c in acc.items()}}
    return None


class TestRelationEngine:
    """check_relation's suffix memo and the per-module mode rows."""

    def test_memo_matches_direct_words(self):
        M = KTheoryFixedPointModule(P2, 2)
        image = word_images(M)
        for rel in RELATION_BUILDERS_T:
            for _, terms in t_relation_instances(rel, 3, P2):
                for level in range(3):
                    for label in M.basis(level):
                        for _, word in terms:
                            assert image(label, tuple(word)) == \
                                apply_word(M, word, vec(label))

    def test_perturbed_e_keeps_its_own_rows(self):
        M = KTheoryFixedPointModule(P2, 2)
        Pe = PerturbedModule(M, "e")
        label = M.basis(0)[0]
        base_row = M.mode_row("e", label, 2)
        assert Pe.mode_row("e", label, 2) != base_row
        assert M.mode_row("e", label, 2) == [(t, c * p ** 2)
                                             for t, c, p in M.e_transitions(label)]
        assert not check_relation(Pe, "T1", P2, 1, window=1).ok
        assert check_relation(M, "T1", P2, 1, window=1).ok

    def test_perturbed_psi_counterexample_matches_direct_words(self):
        Pp = PerturbedModule(KTheoryFixedPointModule(P2, 2), "psi")
        for rel in RELATION_BUILDERS_T:
            rep = check_relation(Pp, rel, P2, 1, window=1)
            assert rep.counterexample == first_failure_by_direct_words(Pp, rel, P2, 1, 1)
            assert rep.ok == (rep.counterexample is None)
        assert not check_relation(Pp, "T3", P2, 1, window=1).ok


def log_coeff_via_series(module, label, sign, n):
    """Reference route: the z^-n (sign +1) or z^n (sign -1) coefficient of
    the log of the expanded psi series over its constant."""
    s = module.psi_series(label, sign, n + 1)
    return series_log(s / s.coeff(0)).coeff(n)


def t_eigenvalue_via_log_series(module, label, m, beta):
    """Reference route: `log_coeff_via_series` at the sign of m, over beta(m)."""
    coeff = log_coeff_via_series(module, label, +1 if m > 0 else -1, abs(m))
    return (-coeff if m > 0 else coeff) * m / beta(m)


class TestFactoredPsi:
    """The log modes of psi from power sums of its factors against the
    log-of-series route, on every kind of module that carries psi, and
    Module.t_eigenvalue from them on every module of the multiplicative
    family, the one with t letters."""

    def modules(self):
        Y2 = default_yangian(r=2)
        M2 = KTheoryFixedPointModule(P2, 2)
        return [
            (M2, 2),
            (CohomologyFixedPointModule(Y2, 2), 2),
            (fock_tensor(P2, 2), 2),
            (DiagonalTwist(M2, e_scale=3, f_scale=Fraction(1, 7),
                           psi_scale=Fraction(-5, 11)), 1),
            (PerturbedModule(M2, "psi"), 1),
        ]

    def test_t_eigenvalue_matches_log_series(self):
        for module, levels in self.modules():
            for level in range(levels + 1):
                for label in module.basis(level):
                    assert module.psi_rat(label).factors is not None
                    for m in (1, 2, 3, -1, -2, -3):
                        sign, n = (+1 if m > 0 else -1), abs(m)
                        assert module.psi_modes(label, sign).log_coeff(n) == \
                            log_coeff_via_series(module, label, sign, n)
                        if module.params is P2:
                            got = module.t_eigenvalue(label, m)
                            assert got == t_eigenvalue_via_log_series(module, label, m, P2.beta)

    def test_tensor_psi_concatenates_factors(self):
        T = fock_tensor(P2, 2)
        label = nest_label(((1,), (2,)))
        a = T.w1.psi_rat((1,)).factors
        b = T.w2.psi_rat((2,)).factors
        c, zeros, poles = T.psi_rat(label).factors
        assert c == a[0] * b[0]
        assert zeros == a[1] + b[1] and poles == a[2] + b[2]


class TestTensor:
    def test_psi_multiplicative(self):
        T = fock_tensor(P2, 2)
        vac = nest_label(((), ()))
        a = T.psi_series(vac, +1, 4)
        b1 = FockModule(P2, 1 / P2.chis[0]).psi_series((), +1, 4)
        b2 = FockModule(P2, 1 / P2.chis[1]).psi_series((), +1, 4)
        assert (a - b1 * b2).is_zero()

    def test_e_support_on_double_vacuum(self):
        T = fock_tensor(P2, 2)
        assert len(T.e_transitions(nest_label(((), ())))) == 2

    def test_relation_audit(self):
        T = fock_tensor(P2, 2)
        for rel in ("T3", "T6t"):
            assert check_relation(T, rel, P2, 2, window=2).ok

    def test_ill_defined_pairing_raises(self):
        # equal evaluation parameters put a diagonal pole on a support point
        bad = TensorModule(FockModule(P1, Fraction(1, 5)),
                           FockModule(P1, Fraction(1, 5)))
        with pytest.raises(IllDefinedCoproductError):
            bad.e_transitions(((), ()))


class TestFactorization:
    def test_rank1_and_rank2(self):
        for r, params in ((1, P1), (2, P2)):
            consts, fails = solve_fock_factorization(params, r, 3)
            assert not fails
            assert consts[((),) * r] == 1
            assert len(consts) == len(
                [m for n in range(4) for m in pt.enum_multipartitions(r, n)])

    def test_closed_form_ratio_cutoff_stability(self):
        mlam = ((1,), (2,))
        for box in pt.addable_boxes(mlam):
            a = fock_factorization_ratio(P2, 2, mlam, box)
            b = fock_factorization_ratio(P2, 2, mlam, box, trailing=2)
            assert a == b

    def test_twist_constant_matches_vacuum_weights(self):
        T = P2.fixed_psi_norm(2)
        mk = DiagonalTwist(KTheoryFixedPointModule(P2, 2),
                           f_scale=1 / T, psi_scale=1 / T)
        assert mk.psi_series(((), ()), +1, 1).coeff(0) == 1


class ExtraEntry:
    """`target` with one more entry in one of its rows."""

    def __init__(self, target, key, entry):
        self.target, self.key, self.entry = target, key, entry

    def mode_row(self, kind, label, mode):
        row = self.target.mode_row(kind, label, mode)
        return row + [self.entry] if (kind, label, mode) == self.key else row


class TestTwoSidedIntertwiner:
    # a target-row entry that no transition of the source maps to must vanish
    def test_fock_factorization_reports_an_extra_target_entry(self):
        from toryang.toroidal import solve_intertwiner

        T = P2.fixed_psi_norm(2)
        mk = DiagonalTwist(KTheoryFixedPointModule(P2, 2), f_scale=1 / T, psi_scale=1 / T)
        ft = fock_tensor(P2, 2)
        modes = (-1, 0, 1, 2)
        _, fails = solve_intertwiner(mk, ft, 2, modes, nest_label, Fraction(1))
        assert fails == []
        src, far = ((1,), ()), nest_label(((1,), (1, 1)))
        target = ExtraEntry(ft, ("e", nest_label(src), 1), (far, Fraction(1, 3)))
        _, fails = solve_intertwiner(mk, target, 2, modes, nest_label, Fraction(1))
        assert fails == [("e-extra", 1, src, far)]

    def test_bridge_reports_an_extra_target_entry(self):
        from toryang.params import series_toroidal
        from toryang.scalars import TSeries
        from toryang.toroidal import solve_intertwiner
        from toryang.upsilon import UpsilonBridge, comparison_module

        trunc, hmod, xis = 12, 8, (Fraction(1, 5),)
        br = UpsilonBridge(13, 1, xis, 1, trunc=trunc)
        mk = comparison_module(series_toroidal(13, 1, xis, trunc=trunc), 1)
        one = TSeries(0, [1], trunc)
        src, far = ((1,),), ((3,),)
        for extra, want in ((TSeries(hmod, [1], trunc), []),
                            (TSeries(hmod - 1, [1], trunc), [("f-extra", 2, src, far)])):
            target = ExtraEntry(br, ("f", src, 2), (far, extra))
            _, fails = solve_intertwiner(mk, target, 2, (-1, 0, 1, 2),
                                         lambda x: x, one, hmod)
            assert fails == want
