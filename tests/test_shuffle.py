import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from toryang import shuffle
from toryang.multipoly import MPoly
from toryang.params import (ToroidalParams, YangianParams, default_toroidal,
                            default_yangian)
from toryang.shuffle import (K_element, L_element, L_element_symmetrized,
                             ShuffleElement, alpha, hall_theta, hall_u,
                             limit_scaled, limit_shifted, stable_membership,
                             star, star_commutator, unit, wheel_check, x_power)

PM = default_toroidal()
PA = default_yangian()


def test_two_term_symmetrization_oracle():
    # hand computation of x^0 * x^0 through the rational-function route
    q1, q2, q3 = PM.qs
    x1, x2 = MPoly.var(2, 0), MPoly.var(2, 1)
    num21 = (x2 - q1 * x1) * (x2 - q2 * x1) * (x2 - q3 * x1)
    num12 = (x1 - q1 * x2) * (x1 - q2 * x2) * (x1 - q3 * x2)
    hand = (num12 - num21).div_linear(0, 1)
    assert star(x_power("m", 0), x_power("m", 0), PM).num == hand


def test_unit_law_plain_multiplicity():
    F = K_element("m", 2, PM)
    assert star(F, unit("m"), PM).num == F.num * 2  # 2! * 0!
    assert star(unit("m"), F, PM).num == F.num * 2


def test_arity_one_associativity():
    for powers in ((1, 0, -1), (2, -1, 0), (0, 0, 1)):
        A, B, C = (x_power("m", p) for p in powers)
        lhs = star(star(A, B, PM), C, PM)
        rhs = star(A, star(B, C, PM), PM)
        assert lhs.num == rhs.num
    for powers in ((1, 0, 2), (0, 1, 1)):
        A, B, C = (x_power("a", p) for p in powers)
        assert star(star(A, B, PA), C, PA).num == star(A, star(B, C, PA), PA).num


def test_coset_vs_plain_ratio():
    F, G = K_element("m", 2, PM), x_power("m", 0)
    plain = star(F, G, PM)
    coset = star(F, G, PM, convention="coset")
    assert plain.num == coset.num * 2  # 2! * 1!


class TestWheel:
    def test_vacuous_below_arity_three(self):
        assert wheel_check(x_power("m", 5), PM)
        assert wheel_check(K_element("m", 2, PM), PM)

    def test_pairwise_generators_pass(self):
        assert wheel_check(K_element("m", 3, PM), PM)
        assert wheel_check(K_element("a", 3, PA), PA)
        assert wheel_check(K_element("m", 4, PM, power=1), PM)

    def test_constant_fails(self):
        assert not wheel_check(ShuffleElement("m", 3, MPoly.const(3, 1)), PM)
        assert not wheel_check(ShuffleElement("a", 3, MPoly.const(3, 1)), PA)

    def test_star_preserves_wheel(self):
        gens = [x_power("m", i) for i in (-1, 0, 1)]
        cube = star(gens[0], star(gens[1], gens[2], PM), PM)
        assert wheel_check(cube, PM)
        quad = star(cube, x_power("m", 0), PM)
        assert wheel_check(quad, PM)
        acube = star(x_power("a", 0), star(x_power("a", 1), x_power("a", 0), PA), PA)
        assert wheel_check(acube, PA)


class TestLimits:
    def test_k2_limit_value_from_leading_coefficients(self):
        # the degree-ratio oracle freezes the one-variable limit of the
        # pairwise generator: top coefficient -q1 x2^2 over x2^2
        lim = limit_scaled(K_element("m", 2, PM), 1, +1)
        assert lim.exists
        assert lim.top == MPoly.monomial(2, (0, 2), -PM.q1)

    def test_linear_additive_divergence(self):
        assert not limit_shifted(x_power("a", 1), 1).exists

    def test_memberships(self):
        for n in (1, 2, 3):
            assert stable_membership(K_element("m", n, PM))
            assert stable_membership(K_element("a", n, PA))
        # powered family stays stable only at zero power
        assert stable_membership(K_element("m", 2, PM, power=0))

    def test_nonmember(self):
        assert not stable_membership(x_power("a", 1))


class TestLElements:
    def test_base_cases(self):
        assert L_element("m", 1, PM).num == MPoly.monomial(1, (0,))
        assert L_element("a", 1, PA).num == MPoly.monomial(1, (0,))

    def test_l2_properties(self):
        L2 = L_element("m", 2, PM)
        assert wheel_check(L2, PM) and stable_membership(L2)
        L2a = L_element("a", 2, PA)
        assert wheel_check(L2a, PA) and stable_membership(L2a)

    def test_closed_form_proportionality(self):
        # nested commutators against the antisymmetrized closed form; the
        # plain-sum convention shows up as a reported nonzero scalar
        for n, expected_ratio in ((2, Fraction(-1)), (3, Fraction(2))):
            nested = L_element("m", n, PM)
            closed = L_element_symmetrized(n, PM)
            ratio = nested.scalar_ratio(closed)
            assert ratio == expected_ratio


class TestCommutativity:
    def test_pairwise_degree_four(self):
        for flavor, p in (("m", PM), ("a", PA)):
            gens = {}
            for j in (1, 2, 3):
                gens[("K", j)] = K_element(flavor, j, p)
                gens[("L", j)] = L_element(flavor, j, p)
            for (na, ia) in gens:
                for (nb, ib) in gens:
                    if ia + ib <= 4 and (na, ia) <= (nb, ib):
                        assert star_commutator(
                            gens[(na, ia)], gens[(nb, ib)], p).is_zero()

    def test_k_star_k_limits_finite(self):
        prod = star(K_element("m", 1, PM), K_element("m", 2, PM), PM)
        for k in (1, 2, 3):
            assert limit_scaled(prod, k, +1).exists


class TestRelationImages:
    def test_cubic_images_vanish(self):
        from itertools import permutations

        def sym3(flavor, p, idx, mid, last):
            acc = None
            for (a, b, c) in permutations(idx):
                inner = star_commutator(x_power(flavor, b + mid),
                                        x_power(flavor, c + last), p)
                t = star_commutator(x_power(flavor, a), inner, p)
                acc = t if acc is None else acc + t
            return acc

        assert sym3("m", PM, (0, 0, 0), 1, -1).is_zero()
        assert sym3("m", PM, (1, 0, -1), 1, -1).is_zero()
        assert sym3("a", PA, (0, 0, 0), 0, 1).is_zero()
        assert sym3("a", PA, (0, 1, 2), 0, 1).is_zero()

    def test_quadratic_images_vanish(self):
        s1m, s2m = PM.sigma1(), PM.sigma2()
        for i, j in ((0, 0), (1, -1)):
            acc = None
            cs = [1, -s1m, s2m, -1]
            for k in range(4):
                for (a, b) in ((i + 3 - k, j + k), (j + 3 - k, i + k)):
                    t = star(x_power("m", a), x_power("m", b), PM) * cs[k]
                    acc = t if acc is None else acc + t
            assert acc.is_zero()
        s2, s3 = PA.sigma2(), PA.sigma3()
        for i, j in ((0, 0), (1, 0)):
            acc = None
            for c, (a, b) in [(1, (i + 3, j)), (-3, (i + 2, j + 1)),
                              (3, (i + 1, j + 2)), (-1, (i, j + 3)),
                              (s2, (i + 1, j)), (-s2, (i, j + 1))]:
                t = star_commutator(x_power("a", a), x_power("a", b), PA) * c
                acc = t if acc is None else acc + t
            for (a, b) in ((i, j), (j, i)):
                acc = acc - star(x_power("a", a), x_power("a", b), PA) * s3
            assert acc.is_zero()


class TestHall:
    def test_degree_one_column(self):
        cache = {}
        assert hall_u(1, 5, PM, cache).num == MPoly.monomial(1, (5,))
        u21 = hall_u(2, 1, PM, cache)
        direct = star_commutator(x_power("m", 1), x_power("m", 0), PM,
                                 convention="coset")
        assert u21.num == direct.num
        assert wheel_check(u21, PM)

    def test_path_independence(self):
        cache = {}
        u31 = hall_u(3, 1, PM, cache)
        alt = star_commutator(hall_u(2, 1, PM, cache), hall_u(1, 0, PM, cache),
                              PM, convention="coset")
        assert u31.num == alt.num
        u32 = hall_u(3, 2, PM, cache)
        alt2 = star_commutator(hall_u(1, 1, PM, cache), hall_u(2, 1, PM, cache),
                               PM, convention="coset")
        assert u32.num == alt2.num

    def test_collinear_brackets_vanish(self):
        cache = {}
        c = star_commutator(hall_u(1, 0, PM, cache), hall_u(2, 0, PM, cache),
                            PM, convention="coset")
        assert c.is_zero()
        c2 = star_commutator(hall_u(1, 2, PM, cache), hall_u(2, 4, PM, cache),
                             PM, convention="coset")
        assert c2.is_zero()

    def test_theta_exponential_consistency(self):
        cache = {}
        th = hall_theta(2, PM, cache)
        br = star_commutator(hall_u(1, 1, PM, cache), hall_u(1, -1, PM, cache),
                             PM, convention="coset") * alpha(PM, 1)
        assert th.num == br.num


# -- recorded star numerators -------------------------------------------------
# The commutator and relation-image checks above flip every term together,
# so they cannot see a wrong global sign for one arity pair (i, j).  These
# digests, recorded before the star product became one antisymmetrization
# over the shuffles, pin each numerator (same hashing scheme as
# test_modules.py: sha256 of the repr of nested string tuples).

def star_factors(flavor, p):
    return {1: [x_power(flavor, 1)],
            2: [K_element(flavor, 2, p, power=1), L_element(flavor, 2, p)],
            3: [K_element(flavor, 3, p), L_element(flavor, 3, p)]}


def star_digest(flavor, i, j):
    p = PM if flavor == "m" else PA
    factors = star_factors(flavor, p)
    rows = []
    for convention in ("plain", "coset"):
        for F in factors[i]:
            for G in factors[j]:
                num = star(F, G, p, convention).num
                rows.append((convention, tuple(sorted(
                    (tuple(str(k) for k in e), str(c)) for e, c in num.d.items()))))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


STAR_DIGESTS = {
    ("m", 1, 1):
        "e2d160a4922cb35fe89b2f66a6fb27e1cdf2f4caab4a86a7d022196543dce47a",
    ("m", 1, 2):
        "c9c0eb2c5a7b7a02bbe30611021283d5b42acd1ba574d68b153137b0093efac0",
    ("m", 2, 1):
        "c6acda43d1d6fdd92b2558cf5b2e22eb4ded0537af5b36b1498cee89b03e370e",
    ("m", 2, 2):
        "c762b207ad3d4bfd0cb3069c8a30ade0a55d4172898342d214982a44426f5925",
    ("m", 1, 3):
        "fbe08c6d440e9dd42afdf48665c1be9f4537b9c8baf8579797621c2c37841f42",
    ("m", 3, 1):
        "cc05db998b76f10d87e0bb6a73ba1d6c6eab28305b41d1206c7ef0cdd97c1f65",
    ("a", 1, 1):
        "1fb54fb0270807946f2e64008dc1c7db47ee5efb897bc4fa0c66e48fee68447f",
    ("a", 1, 2):
        "c327fd52ccaeeb071b95b6c5eb33cbb35603213f74385ba950710b350d8d0cdb",
    ("a", 2, 1):
        "9130c61a7074db7f7a915832273c5dea06e48375a86890caa8364b453bba4e56",
    ("a", 2, 2):
        "6c02e36db1dce9294b04d8c5ce73e030014612a0d04efd3d0a4077095d16e703",
    ("a", 1, 3):
        "c72d1d6192d478695fbb42ac8f12965ade188860a8d61ca3366165f88d8c2e6f",
    ("a", 3, 1):
        "058b608d417cf135489f04fe3cb0d7c62f8fa18f6c3dddd53bbc6f8aad3bed4a",
}


@pytest.mark.parametrize("flavor", ["m", "a"])
@pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)])
def test_star_numerators_match_recorded_digest(flavor, i, j):
    assert star_digest(flavor, i, j) == STAR_DIGESTS[(flavor, i, j)]


# -- mismatched operands ----------------------------------------------------

def test_mixed_flavor_star_is_a_value_error():
    with pytest.raises(ValueError):
        star(x_power("m", 0), x_power("a", 0), PM)
    with pytest.raises(ValueError):
        star_commutator(x_power("a", 1), x_power("m", 1), PA)


def test_sum_of_mismatched_elements_is_a_value_error():
    for other in (x_power("a", 0), K_element("m", 2, PM)):
        with pytest.raises(ValueError):
            x_power("m", 0) + other
        with pytest.raises(ValueError):
            x_power("m", 0) - other


def test_equality_with_a_non_element_is_false():
    F = x_power("m", 0)
    assert F != 0 and F != "x" and not (F == None)  # noqa: E711
    assert F == x_power("m", 0)


# -- shared caller-owned caches ---------------------------------------------

PM_B = ToroidalParams(Fraction(5, 3), Fraction(7, 2))
PA_B = YangianParams(Fraction(11, 2), Fraction(3))


def test_hall_cache_shared_across_parameter_points():
    cache = {}
    for p in (PM, PM_B):
        assert hall_u(2, 1, p, cache) == hall_u(2, 1, p)
        assert hall_u(3, 0, p, cache) == hall_u(3, 0, p)
        assert hall_theta(2, p, cache) == hall_theta(2, p)
    assert hall_u(2, 1, PM, cache) != hall_u(2, 1, PM_B, cache)


# -- the process-wide star memo ---------------------------------------------

def clear_star_memo():
    shuffle._TWISTED_KERNELS.clear()
    shuffle._COSET_NUMERATORS.clear()


def cold_star(F, G, p, convention="plain"):
    clear_star_memo()
    return star(F, G, p, convention)


def pairs_for(flavor, p):
    x = [x_power(flavor, e) for e in (0, 1, 2)]
    return [(x[1], x[0]), (K_element(flavor, 2, p, power=1), x[2]),
            (L_element(flavor, 2, p), x[1])]


class TestStarMemo:
    def test_repeat_call_hits_the_memo(self):
        clear_star_memo()
        F, G = x_power("m", 1), x_power("m", 0)
        first = star(F, G, PM, "coset")
        again = star(x_power("m", 1), x_power("m", 0), PM, "coset")
        assert again.num is first.num
        assert len(shuffle._COSET_NUMERATORS) == 1
        assert len(shuffle._TWISTED_KERNELS) == 1

    def test_parameter_points_and_flavors_kept_apart(self):
        for flavor, points in (("m", (PM, PM_B)), ("a", (PA, PA_B))):
            for F, G in pairs_for(flavor, PM if flavor == "m" else PA):
                clear_star_memo()
                warm = [star(F, G, p) for p in points]
                warm += [star(F, G, p) for p in points]
                assert warm[0] != warm[1]
                for got, p in zip(warm, points + points):
                    assert got == cold_star(F, G, p)
        # same numerators and the same weight tuple: only the flavor differs
        shared = SimpleNamespace(qs=PM.qs, hs=PM.qs)
        clear_star_memo()
        m = star(x_power("m", 1), x_power("m", 0), shared)
        a = star(x_power("a", 1), x_power("a", 0), shared)
        assert m.num != a.num
        assert m == cold_star(x_power("m", 1), x_power("m", 0), shared)
        assert a == cold_star(x_power("a", 1), x_power("a", 0), shared)

    def test_operand_order_kept_apart(self):
        for flavor, p in (("m", PM), ("a", PA)):
            for F, G in pairs_for(flavor, p):
                clear_star_memo()
                fg, gf = star(F, G, p), star(G, F, p)
                assert fg != gf
                assert star(G, F, p) == cold_star(G, F, p)
                assert star(F, G, p) == cold_star(F, G, p)

    def test_plain_is_multiple_of_coset_in_either_fill_order(self):
        F, G = K_element("m", 2, PM, power=1), x_power("m", 2)
        for order in (("plain", "coset"), ("coset", "plain")):
            clear_star_memo()
            got = {c: star(F, G, PM, c) for c in order}
            assert got["plain"].num == got["coset"].num * 2  # 2! * 1!
            for c in order:
                assert got[c] == cold_star(F, G, PM, c)

    def test_arithmetic_on_a_result_leaves_the_memo_intact(self):
        F, G = x_power("a", 2), K_element("a", 2, PA)
        for convention in ("coset", "plain"):
            clear_star_memo()
            out = star(F, G, PA, convention)
            out = out + star(F, G, PA, convention)
            out = out - star(G, F, PA, convention)
            out = out * 3
            assert star(F, G, PA, convention) == cold_star(F, G, PA, convention)

    def test_closed_form_oracle_reads_no_memo(self):
        clear_star_memo()
        closed = L_element_symmetrized(3, PM)
        assert not shuffle._TWISTED_KERNELS
        assert not shuffle._COSET_NUMERATORS
        assert not closed.is_zero()

    def test_unknown_convention_leaves_the_memo_unchanged(self):
        clear_star_memo()
        star(x_power("m", 2), x_power("m", 0), PM, "coset")
        kernels, numerators = dict(shuffle._TWISTED_KERNELS), dict(shuffle._COSET_NUMERATORS)
        for F, G, p in ((x_power("m", 1), x_power("m", 0), PM),
                        (x_power("a", 1), K_element("a", 2, PA), PA)):
            with pytest.raises(ValueError):
                star(F, G, p, "bogus")
        assert shuffle._TWISTED_KERNELS == kernels
        assert shuffle._COSET_NUMERATORS == numerators
