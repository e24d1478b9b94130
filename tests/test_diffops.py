import hashlib
from fractions import Fraction

from toryang import diffops
from toryang.diffops import (HOp, QOp, beta_constant, check_theta_a_relations,
                             check_theta_m_relations, hall_image, jacobi_hop,
                             jacobi_qop, lambda_constant,
                             lattice_interior_count, nested_ratio_additive,
                             nested_ratio_multiplicative, pick_closed_form,
                             pick_printed_central, serre_multiple_a,
                             serre_multiple_m, theta_a_e, theta_a_f,
                             theta_a_psi, theta_m_H, theta_m_e, theta_m_f,
                             theta_m_kappa)
from toryang.params import default_toroidal, default_yangian

Q = Fraction(2)
H = Fraction(3)


def test_defining_bracket():
    # [Z, D] = (1 - q) Z D in normal order
    z = QOp.monomial(Q, 1, 0)
    d = QOp.monomial(Q, 0, 1)
    assert z.bracket(d) == QOp(Q, {(1, 1): 1 - Q})


def test_zd_bracket_formula():
    # [Z^i D, Z^j D] = (q^j - q^i) Z^{i+j} D^2
    for i, j in ((1, 2), (0, -1), (-2, 3)):
        a = QOp.monomial(Q, i, 1)
        b = QOp.monomial(Q, j, 1)
        assert a.bracket(b) == QOp(Q, {(i + j, 2): Q ** j - Q ** i})


def test_cocycle_branch_evaluation():
    # opposite shift powers produce the central term
    a = QOp.monomial(Q, 1, 1)
    b = QOp.monomial(Q, -1, -1)
    got = a.bracket(b)
    assert got.central == Q ** (1 * (-1) + (-1) * (1 + (-1)))  # single i=-1 term


def test_ef_bracket_with_center():
    # [e_i, f_j] image: (q^{-i-j} - 1) Z^{i+j} - q^{-i-j} c
    for i, j in ((0, 0), (2, -2), (1, 2)):
        got = theta_m_e(Q, i).bracket(theta_m_f(Q, j))
        k = i + j
        if k == 0:
            assert got == theta_m_kappa(Q).scale(-1)
        else:
            assert got == theta_m_H(Q, k)


def test_theta_m_full_audit():
    assert check_theta_m_relations(Q, window=2) == []


def test_theta_a_full_audit():
    assert check_theta_a_relations(H, window=2) == []


def test_theta_a_psi_images():
    # (x-h)^j - x^j - (-h)^j c
    p = theta_a_psi(H, 2)
    assert p.poly(0) == {0: H * H, 1: -2 * H}
    assert p.central == -H * H
    assert theta_a_psi(H, 0).central == -1


def test_jacobi_identities():
    assert jacobi_qop(Q, [((1, 2), (0, -2), (-1, 1)), ((2, -1), (1, 1), (-3, 0)),
                          ((0, 1), (0, -1), (1, 0)), ((1, 3), (2, -3), (-1, 0))])
    assert jacobi_hop(H, [((1, 2), (0, -2), (1, 1)), ((2, -1), (1, 1), (3, 0)),
                          ((0, 1), (0, -1), (1, 0))])


class TestPick:
    def test_interior_counts(self):
        assert lattice_interior_count(1, 1) == 0
        assert lattice_interior_count(2, 1) == 0
        assert lattice_interior_count(1, 5) == 0
        assert lattice_interior_count(2, 2) == 0
        assert lattice_interior_count(3, 3) == 1

    def test_recursion_matches_closed_forms(self):
        cache = {}
        for k in range(-3, 4):
            for l in range(-3, 4):
                if (k, l) == (0, 0):
                    continue
                got = hall_image(k, l, Q, cache)
                assert (got - pick_closed_form(k, l, Q)).is_zero(), (k, l)

    def test_degree_one_column_is_plain(self):
        assert pick_closed_form(1, 4, Q) == QOp(Q, {(4, 1): 1})
        assert (hall_image(-1, -2, Q) - theta_m_f(Q, -2)).is_zero()

    def test_row_elements_central_correction(self):
        # the row element carries a central correction; the recursion and the
        # consistent closed form agree, while the printed coefficient differs
        # from them by exactly (1 - q)
        got = pick_closed_form(0, 2, Q)
        assert got.central != 0
        assert pick_printed_central(2, Q) / got.central == 1 - Q


class TestNestedRatios:
    def test_multiplicative_constants(self):
        assert lambda_constant(2, 3, Q) == -Q / (Q + 1) ** 2
        for N in range(2, 7):
            for n in (3, 4):
                ok, _ = nested_ratio_multiplicative(N, n, Q)
                assert ok, (N, n)

    def test_additive_constants(self):
        assert beta_constant(5, 3) == Fraction(1, 5)
        assert beta_constant(2, 3) == -1
        for N in range(2, 7):
            for n in (3, 4):
                ok, _ = nested_ratio_additive(N, n, H)
                assert ok, (N, n)

    def test_perturbed_constant_detected(self):
        from toryang.diffops import _nested_bracket

        A = _nested_bracket([theta_m_e(Q, 1), theta_m_e(Q, 0), theta_m_e(Q, 1)])
        B = _nested_bracket([theta_m_e(Q, 0), theta_m_e(Q, 0), theta_m_e(Q, 2)])
        lam = lambda_constant(2, 3, Q) * Fraction(17, 16)
        assert not (A - B.scale(lam)).is_zero()


def test_serre_multiples():
    for n in (3, 4, 5):
        assert serre_multiple_m(n, Q)
        assert serre_multiple_a(n, H)


def test_images_lie_in_limit_span():
    # over the series ring q = exp(h), image coefficients carry the
    # valuations of the distinguished spanning set
    from toryang.diffops import in_limit_span
    from toryang.scalars import h_gen, series_exp

    qs = series_exp(h_gen(10))
    e = theta_m_e(qs, 2)
    f = theta_m_f(qs, -1)
    Hk = theta_m_H(qs, 3)
    assert in_limit_span(e) and in_limit_span(f) and in_limit_span(Hk)
    assert in_limit_span(e.bracket(theta_m_e(qs, 0)))
    assert in_limit_span(Hk.bracket(e))
    assert in_limit_span(e.bracket(f))
    # a bare multiplication operator with unit coefficient is outside
    assert not in_limit_span(QOp.monomial(qs, 2, 0, 1))


def test_bracket_is_mul_commutator_plus_cocycle():
    from toryang.diffops import _cocycle_q

    pairs = [((1, 2), (3, -2)), ((0, 1), (2, -1)), ((2, 0), (1, 3)),
             ((1, -1), (-1, 1))]
    for (m1, m2) in pairs:
        a, b = QOp.monomial(Q, *m1), QOp.monomial(Q, *m2)
        direct = a.bracket(b)
        via_mul = a.mul(b) - b.mul(a)
        assert direct.terms == via_mul.terms
        assert direct.central == _cocycle_q(Q, m1[0], m1[1], m2[0], m2[1])
    ha, hb = HOp.monomial(H, 2, 1), HOp.monomial(H, 1, -1)
    direct = ha.bracket(hb)
    via = ha.mul(hb) - hb.mul(ha)
    assert direct.terms == via.terms


def test_normal_ordering_defining_relation():
    # shift before multiplication picks up the shifted argument
    d = QOp.monomial(Q, 0, 1)
    z = QOp.monomial(Q, 1, 0)
    assert d.mul(z) == QOp(Q, {(1, 1): Q})   # D Z = q Z D
    sh = HOp.monomial(H, 0, 1)
    x = HOp.monomial(H, 1, 0)
    got = sh.mul(x)
    assert got.poly(1) == {1: 1, 0: H}       # S x = (x + h) S


def test_hall_image_cache_shared_across_q():
    cache = {}
    for q in (Q, Fraction(5, 3)):
        for k, l in ((2, 1), (0, 2), (-2, 1), (3, 0)):
            assert (hall_image(k, l, q, cache) - hall_image(k, l, q)).is_zero(), (q, k, l)


# Failure lists of both audits at window 3, criterion 6's point, with one
# generator image scaled by 17/16: e_0 in the multiplicative audit and f_1
# in the additive one.  Recorded before the audits shared their brackets;
# the digest is sha256 of the repr of the pair of lists.
SCALED_AUDIT_DIGEST = "a138cfcab6ae8fd255ff49ee658147b63863556ae7db2562a6743ef0acd3e5ed"


def test_scaled_generator_audit_failures_match_recorded_digest(monkeypatch):
    theta_m_e0, theta_a_f0 = diffops.theta_m_e, diffops.theta_a_f
    scale = Fraction(17, 16)
    monkeypatch.setattr(diffops, "theta_m_e",
                        lambda q, i: theta_m_e0(q, i).scale(scale) if i == 0 else theta_m_e0(q, i))
    monkeypatch.setattr(diffops, "theta_a_f",
                        lambda h, j: theta_a_f0(h, j).scale(scale) if j == 1 else theta_a_f0(h, j))
    q, h = default_toroidal(r=1).q1, default_yangian(r=0).h1
    fm = check_theta_m_relations(q, window=3)
    fa = check_theta_a_relations(h, window=3)
    assert (len(fm), len(fa)) == (55, 16)
    assert hashlib.sha256(repr((fm, fa)).encode()).hexdigest() == SCALED_AUDIT_DIGEST
