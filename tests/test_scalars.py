from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toryang.scalars import (ExpansionPoleError, Poly, RatFn, ScalarDomainError,
                             TSeries, expm1_over, frac_sqrt, is_zero_mod,
                             ratfn_expand, ratfn_log_coeffs, series_exp,
                             series_log, series_sqrt, series_zlog)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@given(rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


def hs(val, coeffs, trunc=10):
    return TSeries(val, [Fraction(x) for x in coeffs], trunc)


def test_series_basic_arithmetic():
    a = hs(0, [1, 2, 3])
    b = hs(1, [5])
    assert (a + b).coeff(1) == 7
    assert (a * b).coeff(1) == 5
    assert (a * b).coeff(2) == 10
    inv = a.inv()
    assert (a * inv - 1).is_zero()


def test_series_negative_valuation_division():
    h = hs(1, [1])
    x = 1 / h  # valuation -1
    assert x.val == -1
    assert (x * h - 1).is_zero()
    assert ((1 - h).inv() * (1 - h) - 1).is_zero()


def test_exp_identity_cases():
    assert series_exp(Fraction(0)) == 1
    e = series_exp(hs(1, [1], 3))
    assert e.coeff(0) == 1 and e.coeff(1) == 1 and e.coeff(2) == Fraction(1, 2)


def test_exp_inverse_pair():
    h = hs(1, [1], 12)
    assert (series_exp(h) * series_exp(-h) - 1).is_zero()
    assert (series_log(series_exp(h)) - h).is_zero()


def test_exp_rejects_constant_term():
    with pytest.raises(ScalarDomainError):
        series_exp(hs(0, [1, 1]))


def test_sqrt_trivial_and_square():
    assert series_sqrt(Fraction(1)) == 1
    s = (1 + hs(1, [1], 10))
    assert (series_sqrt(s * s) - s).is_zero()
    with pytest.raises(ScalarDomainError):
        frac_sqrt(Fraction(2))


def test_sqrt_of_exp_ratio_by_squaring_back():
    # square root of  h/(e^h - 1)  checked by squaring and comparing against
    # the independent expansion of the same ratio
    h = hs(1, [1], 8)
    ratio = expm1_over(h).inv()
    root = series_sqrt(ratio)
    assert (root * root - ratio).is_zero()
    assert ratio.coeff(0) == 1 and ratio.coeff(1) == Fraction(-1, 2)
    assert ratio.coeff(2) == Fraction(1, 12)  # frozen from the direct division


def test_ratfn_expand_geometric():
    # 1/(1 - a/z) around infinity: sum a^k z^-k
    a = Fraction(2, 3)
    rf = RatFn(Poly([0, 1]), Poly([-a, 1]))
    ser = ratfn_expand(rf, +1, 6)
    for k in range(6):
        assert ser.coeff(k) == a ** k


def test_ratfn_expand_long_division_oracle():
    # (z - u - h)/(z - u) = 1 - h/z - h*u/z^2 - h*u^2/z^3 - ...
    u, h = Fraction(1, 5), Fraction(3)
    rf = RatFn(Poly([-u - h, 1]), Poly([-u, 1]))
    ser = ratfn_expand(rf, +1, 5)
    assert ser.coeff(0) == 1
    for k in range(1, 5):
        assert ser.coeff(k) == -h * u ** (k - 1)


def test_ratfn_expand_at_zero():
    # 1/(z - a) around 0: -sum z^k / a^{k+1}
    a = Fraction(7)
    rf = RatFn(Poly([1]), Poly([-a, 1]))
    ser = ratfn_expand(rf, -1, 5)
    for k in range(5):
        assert ser.coeff(k) == -Fraction(1) / a ** (k + 1)


def test_ratfn_expand_pole_error():
    rf = RatFn(Poly([1]), Poly([0, 1]))  # 1/z
    with pytest.raises(ExpansionPoleError):
        ratfn_expand(rf, -1, 4)


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_expand_times_denominator_reproduces_numerator(num, den):
    den = den[:-1] + [den[-1] if den[-1] else Fraction(1)]
    numpoly, denpoly = Poly(num), Poly(den)
    rf = RatFn(numpoly, denpoly)
    order = 8
    ser = ratfn_expand(rf, +1, order)
    if numpoly.is_zero():
        assert ser.is_zero()
        return
    dd, dn = denpoly.degree(), numpoly.degree()
    sd = TSeries(0, list(reversed(denpoly.c)), order)
    sn = TSeries(0, list(reversed(numpoly.c)), order)
    # den(z) * expansion - num(z) = 0 through the working order
    assert (sd * ser - sn.shift(dd - dn)).is_zero()


def test_is_zero_mod():
    assert is_zero_mod(hs(9, [1], 12), 9)
    assert not is_zero_mod(hs(8, [1], 12), 9)
    with pytest.raises(ScalarDomainError):
        is_zero_mod(hs(12, [], 5), 9)


def test_zlog_matches_log_on_rational_series():
    s = 1 + hs(1, [2, 3], 9)
    assert (series_zlog(s) - series_log(s)).is_zero()


def test_poly_divmod_and_gcd_roundtrip():
    a = Poly([1, 2, 1])  # (1+z)^2
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert r.is_zero() and q == b


# -- factored rational functions -------------------------------------------

F_CONST = Fraction(-3, 4)
F_ZEROS = (Fraction(2), Fraction(-1, 3), Fraction(5, 7))
F_POLES = (Fraction(1, 2), Fraction(3), Fraction(-4, 5))


def eager(constant, zeros, poles):
    num = Poly([constant])
    for a in zeros:
        num = num * Poly([-a, 1])
    den = Poly([1])
    for b in poles:
        den = den * Poly([-b, 1])
    return num, den


def test_factored_num_den_are_the_eager_product():
    num, den = eager(F_CONST, F_ZEROS, F_POLES)
    x = Fraction(7, 3)
    # eval is the first reader here, so it multiplies num/den out itself
    assert RatFn.from_factors(F_CONST, F_ZEROS, F_POLES).eval(x) == num.eval(x) / den.eval(x)
    with pytest.raises(ZeroDivisionError):
        RatFn.from_factors(F_CONST, F_ZEROS, F_POLES).eval(F_POLES[1])
    rf = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    assert rf.num.c == num.c and rf.den.c == den.c
    assert rf.factors == (F_CONST, F_ZEROS, F_POLES)


def test_factored_products_keep_factors():
    a = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    b = RatFn.from_factors(Fraction(2), (Fraction(9),), (Fraction(-6),))
    for scaled in (a * Fraction(5, 3), Fraction(5, 3) * a):
        assert scaled.factors == (F_CONST * Fraction(5, 3), F_ZEROS, F_POLES)
    prod = a * b
    assert prod.factors == (F_CONST * 2, F_ZEROS + (Fraction(9),),
                            F_POLES + (Fraction(-6),))
    assert prod.eq(RatFn(a.num * b.num, a.den * b.den))


def test_direct_ratfn_expands_like_the_factored_one():
    num, den = eager(F_CONST, F_ZEROS, F_POLES)
    direct = RatFn(num, den)
    assert direct.factors is None
    rf = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    for direction in (+1, -1):
        assert (ratfn_expand(direct, direction, 8)
                - ratfn_expand(rf, direction, 8)).is_zero()
    assert (direct * rf).factors is None


def test_log_coeffs_match_series_log():
    rf = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    n = 7
    for direction in (+1, -1):
        s = ratfn_expand(rf, direction, n + 1)
        lg = series_zlog(s / s.coeff(0))
        assert ratfn_log_coeffs(rf, direction, n) == [lg.coeff(k) for k in range(1, n + 1)]


def test_log_coeffs_domain_errors():
    num, den = eager(F_CONST, F_ZEROS, F_POLES)
    with pytest.raises(ScalarDomainError):
        ratfn_log_coeffs(RatFn(num, den), +1, 4)
    uneven = RatFn.from_factors(1, F_ZEROS, F_POLES[:2])
    with pytest.raises(ScalarDomainError):
        ratfn_log_coeffs(uneven, +1, 4)
    # the series route refuses the same input
    with pytest.raises(ScalarDomainError):
        series_zlog(ratfn_expand(uneven, +1, 5))
    with pytest.raises(ExpansionPoleError):
        ratfn_log_coeffs(RatFn.from_factors(1, F_ZEROS, (0,) + F_POLES[1:]), -1, 4)
