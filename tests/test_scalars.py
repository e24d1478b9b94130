import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toryang.scalars import (ExpansionPoleError, RatFn, RatFnModes, ScalarDomainError,
                             TSeries, expm1_over, frac_sqrt, is_zero_mod,
                             ratfn_expand, series_exp, series_log, series_sqrt,
                             series_zlog, _over)

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
    rf = RatFn.from_factors(1, (0,), (a,))
    ser = ratfn_expand(rf, +1, 6)
    for k in range(6):
        assert ser.coeff(k) == a ** k


def test_ratfn_expand_long_division_oracle():
    # (z - u - h)/(z - u) = 1 - h/z - h*u/z^2 - h*u^2/z^3 - ...
    u, h = Fraction(1, 5), Fraction(3)
    rf = RatFn.from_factors(1, (u + h,), (u,))
    ser = ratfn_expand(rf, +1, 5)
    assert ser.coeff(0) == 1
    for k in range(1, 5):
        assert ser.coeff(k) == -h * u ** (k - 1)


def test_ratfn_expand_at_zero():
    # 1/(z - a) around 0: -sum z^k / a^{k+1}
    a = Fraction(7)
    rf = RatFn.from_factors(1, (), (a,))
    ser = ratfn_expand(rf, -1, 5)
    for k in range(5):
        assert ser.coeff(k) == -Fraction(1) / a ** (k + 1)


def test_ratfn_expand_pole_error():
    rf = RatFn.from_factors(1, (), (0,))  # 1/z
    with pytest.raises(ExpansionPoleError):
        ratfn_expand(rf, -1, 4)


# -- schoolbook references for factored rational functions ------------------

def linear_product(constant, roots):
    """Schoolbook: the coefficients, lowest first, of
    constant * prod (z - root) as Fractions."""
    c = [Fraction(constant)]
    for a in roots:
        shifted = [Fraction(0)] + c  # z * c
        c = [x - a * y for x, y in zip(shifted, c + [Fraction(0)])]
    return c


def poly_eval(c, x):
    return sum((ci * x ** i for i, ci in enumerate(c)), Fraction(0))


def power_series_quotient(num, den, n):
    """Schoolbook long division: the first n coefficients of num/den as a
    power series, den[0] != 0."""
    q = []
    for k in range(n):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * q[k - j]
        q.append(acc / den[0])
    return q


@given(rationals, st.lists(rationals, max_size=4), st.lists(rationals, max_size=4))
@settings(max_examples=40, deadline=None)
def test_expand_times_denominator_reproduces_numerator(constant, zeros, poles):
    rf = RatFn.from_factors(constant, zeros, poles)
    num, den = linear_product(constant, zeros), linear_product(1, poles)
    order = 8
    ser = ratfn_expand(rf, +1, order)
    if not constant:
        assert ser.is_zero()
        return
    sd = TSeries(0, den[::-1], order)
    sn = TSeries(0, num[::-1], order)
    # den(z) * expansion - num(z) = 0 through the working order
    assert (sd * ser - sn.shift(len(poles) - len(zeros))).is_zero()


# constants and roots that are 0 often, so the zero-constant, root-at-0 and
# pole-at-0 branches are all drawn
zero_or_rational = st.one_of(st.just(Fraction(0)), rationals)


@given(zero_or_rational, st.lists(zero_or_rational, max_size=4),
       st.lists(zero_or_rational, max_size=4), st.sampled_from([1, 4, 9]))
@settings(max_examples=120, deadline=None)
def test_ratfn_expand_matches_schoolbook_division(constant, zeros, poles, order):
    rf = RatFn.from_factors(constant, zeros, poles)
    num, den = linear_product(constant, zeros), linear_product(1, poles)
    for direction in (+1, -1):
        if direction == -1 and not den[0]:
            with pytest.raises(ExpansionPoleError):
                ratfn_expand(rf, direction, order)
            continue
        s = ratfn_expand(rf, direction, order)
        if not constant:
            assert (s.val, s.nums, s.trunc) == (order, [], order)
            continue
        if direction == 1:
            # in X = 1/z: X^(#poles - #zeros) * reversed num / reversed den
            shift = len(poles) - len(zeros)
            coeffs = power_series_quotient(num[::-1], den[::-1], order)
        else:
            shift, coeffs = 0, power_series_quotient(num, den, order)
        want = {shift + k: c for k, c in enumerate(coeffs) if c}
        assert s.trunc == shift + order
        assert s.val == min(want, default=s.trunc)
        assert {k: s.coeff(k) for k in range(s.val, s.trunc) if s.coeff(k)} == want


def test_is_zero_mod():
    assert is_zero_mod(hs(9, [1], 12), 9)
    assert not is_zero_mod(hs(8, [1], 12), 9)
    with pytest.raises(ScalarDomainError):
        is_zero_mod(hs(12, [], 5), 9)


def test_zlog_matches_log_on_rational_series():
    s = 1 + hs(1, [2, 3], 9)
    assert (series_zlog(s) - series_log(s)).is_zero()


# -- factored rational functions -------------------------------------------

F_CONST = Fraction(-3, 4)
F_ZEROS = (Fraction(2), Fraction(-1, 3), Fraction(5, 7))
F_POLES = (Fraction(1, 2), Fraction(3), Fraction(-4, 5))


def test_factored_eval_is_the_schoolbook_product():
    num, den = linear_product(F_CONST, F_ZEROS), linear_product(1, F_POLES)
    x = Fraction(7, 3)
    rf = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    assert rf.eval(x) == poly_eval(num, x) / poly_eval(den, x)
    with pytest.raises(ZeroDivisionError):
        rf.eval(F_POLES[1])
    assert rf.factors == (F_CONST, F_ZEROS, F_POLES)


def test_eval_stays_exact_and_raises_at_every_pole():
    value = RatFn.from_factors(3, (1, 5), (2,)).eval(4)
    assert type(value) is Fraction and value == Fraction(3 * 3 * -1, 2)
    assert type(RatFn.from_factors(2, (), ()).eval(7)) is Fraction
    # a zero at the same point does not cancel the pole
    with pytest.raises(ZeroDivisionError):
        RatFn.from_factors(1, (2,), (2,)).eval(2)


def test_factored_products_keep_factors():
    a = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    b = RatFn.from_factors(Fraction(2), (Fraction(9),), (Fraction(-6),))
    for scaled in (a * Fraction(5, 3), Fraction(5, 3) * a):
        assert scaled.factors == (F_CONST * Fraction(5, 3), F_ZEROS, F_POLES)
    prod = a * b
    assert prod.factors == (F_CONST * 2, F_ZEROS + (Fraction(9),),
                            F_POLES + (Fraction(-6),))
    x = Fraction(7, 3)
    assert prod.eval(x) == a.eval(x) * b.eval(x)


def log_coeffs(rf, direction, n):
    """c_1..c_n of log(rf/rf_0), read from one mode table."""
    modes = RatFnModes(rf, direction)
    return [modes.log_coeff(k) for k in range(1, n + 1)]


def test_log_coeffs_match_series_log():
    rf = RatFn.from_factors(F_CONST, F_ZEROS, F_POLES)
    n = 7
    for direction in (+1, -1):
        s = ratfn_expand(rf, direction, n + 1)
        lg = series_log(s / s.coeff(0))
        assert log_coeffs(rf, direction, n) == [lg.coeff(k) for k in range(1, n + 1)]


def test_log_coeffs_domain_errors():
    uneven = RatFn.from_factors(1, F_ZEROS, F_POLES[:2])
    with pytest.raises(ScalarDomainError):
        RatFnModes(uneven, +1)
    # the series route refuses the same input
    with pytest.raises(ScalarDomainError):
        series_log(ratfn_expand(uneven, +1, 5))
    with pytest.raises(ExpansionPoleError):
        RatFnModes(RatFn.from_factors(1, F_ZEROS, (0,) + F_POLES[1:]), -1)


# -- integer-content kernels against schoolbook references -------------------
#
# The references below work on plain {exponent: Fraction} dicts and know
# nothing of the integer kernels: a wrong common denominator, a dropped or
# shifted coefficient or a wrong truncation shows as a mismatch.  Only the
# repeated-products exp reference uses series arithmetic, as a second route
# to the same series.

sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def flat_series(draw, min_val=-3, max_val=3, max_len=7):
    val = draw(st.integers(min_val, max_val))
    coeffs = draw(st.lists(sparse_rationals, max_size=max_len))
    trunc = val + len(coeffs) + draw(st.integers(0, 3))
    return val, coeffs, trunc


def canonical_dict(terms, trunc):
    """(val, {k: c}, trunc) with zero and out-of-window coefficients dropped."""
    terms = {k: c for k, c in terms.items() if c and k < trunc}
    return (min(terms) if terms else trunc), terms, trunc


def canonical(val, coeffs, trunc):
    return canonical_dict({val + i: Fraction(c) for i, c in enumerate(coeffs)}, trunc)


def as_tuple(val, terms, trunc):
    """The (val, coeffs, trunc) a canonical TSeries stores for these terms."""
    if not terms:
        return trunc, [], trunc
    top = max(terms)
    return val, [terms.get(k, Fraction(0)) for k in range(val, top + 1)], trunc


def stored(s):
    return s.val, s.coeffs, s.trunc


def ref_mul(a, b):
    (va, ta, tra), (vb, tb, trb) = canonical(*a), canonical(*b)
    if not ta and not tb:
        trunc = min(tra + trb, max(tra, trb))
    elif not ta:
        trunc = tra + vb
    elif not tb:
        trunc = trb + va
    else:
        trunc = min(tra + vb, trb + va)
    out = {}
    for i, x in ta.items():
        for j, y in tb.items():
            if i + j < trunc:
                out[i + j] = out.get(i + j, 0) + x * y
    return canonical_dict(out, trunc)


@given(flat_series(), flat_series())
@settings(max_examples=150, deadline=None)
def test_product_matches_schoolbook(a, b):
    got = TSeries(*a) * TSeries(*b)
    assert stored(got) == as_tuple(*ref_mul(a, b))
    assert stored(TSeries(*b) * TSeries(*a)) == stored(got)


def test_product_edge_cases():
    # interior zeros, a negative valuation, and a zero operand
    cases = [((-2, [1, 0, 0, Fraction(-3, 4)], 4), (1, [Fraction(2, 5), 0, 7], 6)),
             ((0, [], 3), (-1, [Fraction(1, 3)], 5)),
             ((2, [0, 0], 5), (0, [], 4))]
    for a, b in cases:
        assert stored(TSeries(*a) * TSeries(*b)) == as_tuple(*ref_mul(a, b))


def ref_inv(a):
    """1/a from the defining recurrence sum_j a_j b_(k-j) = [k == 0]."""
    val, terms, trunc = canonical(*a)
    n = trunc - val
    rel = [terms.get(val + j, Fraction(0)) for j in range(n)]
    out = [1 / rel[0]]
    for k in range(1, n):
        out.append(-sum((rel[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) / rel[0])
    return canonical_dict({-val + k: c for k, c in enumerate(out)}, trunc - 2 * val)


@given(flat_series())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_recurrence(a):
    s = TSeries(*a)
    if s.is_zero():
        with pytest.raises(ZeroDivisionError):
            s.inv()
        return
    inv = s.inv()
    assert stored(inv) == as_tuple(*ref_inv(a))
    assert (s * inv - 1).is_zero()


def integer_form(s):
    return s.val, s.nums, s.den, s.trunc


@pytest.mark.parametrize("v", [-3, -1, 0, 1, 2, 5])
def test_one_term_inverse_matches_recurrence(v):
    """A one-term series a/d X^v inverts to d/a X^(-v) mod X^(trunc-2v),
    in the integer form the recurrence gives."""
    for c in (Fraction(1), Fraction(-1), Fraction(13, 5), Fraction(-4, 9), Fraction(7)):
        for extra in (1, 4):
            a = (v, [c], v + extra)
            x = TSeries(*a)
            inv = x.inv()
            val, terms, trunc = ref_inv(a)
            want = TSeries(val, as_tuple(val, terms, trunc)[1], trunc)
            assert integer_form(inv) == integer_form(want)
            assert integer_form(inv) == (-v, [c.denominator * (1 if c > 0 else -1)],
                                         abs(c.numerator), x.trunc - 2 * v)
            # the product is 1 mod X^(trunc - v), as far as it is known: past
            # X^(trunc - 2v) at v >= 0, short of it at v < 0
            prod = x * inv
            assert integer_form(prod - 1) == (x.trunc - v, [], 1, x.trunc - v)
            if v >= 0:
                assert is_zero_mod(prod - 1, x.trunc - 2 * v)


def ref_exp_flat(a):
    """sum_n s^n / n! on coefficient dicts, through X^(trunc-1)."""
    _, terms, trunc = canonical(*a)
    out, power, n = {0: Fraction(1)}, {0: Fraction(1)}, 0
    while power:
        n += 1
        nxt = {}
        for i, x in power.items():
            for j, y in terms.items():
                if i + j < trunc:
                    nxt[i + j] = nxt.get(i + j, 0) + x * y / n
        power = {k: c for k, c in nxt.items() if c}
        for k, c in power.items():
            out[k] = out.get(k, 0) + c
    return canonical_dict(out, trunc)


@given(flat_series(min_val=1, max_val=3, max_len=9))
@settings(max_examples=150, deadline=None)
def test_exp_matches_power_sum(a):
    s = TSeries(*a)
    if s.is_zero():
        return
    assert stored(series_exp(s)) == as_tuple(*ref_exp_flat(a))


def ref_exp_products(s):
    """exp(s) as the running sum of term = term * s / n (series arithmetic)."""
    out = term = TSeries(0, [1], s.trunc)
    n = 1
    while True:
        term = term * s / n
        if term.is_zero() or term.val >= s.trunc:
            return out
        out = out + term
        n += 1


@given(flat_series(min_val=1, max_val=3))
@settings(max_examples=150, deadline=None)
def test_exp_matches_repeated_products(a):
    s = TSeries(*a)
    if s.is_zero():
        return
    assert stored(series_exp(s)) == stored(ref_exp_products(s))


# -- the stored form: integer numerators over one denominator ----------------

nonzero_rationals = st.one_of(st.integers(-9, 9), rationals).filter(bool)


def assert_canonical(s):
    """s.nums / s.den in canonical form, and coeffs / coeff() read from it."""
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int for c in s.nums)
    if not s.nums:
        assert (s.val, s.den) == (s.trunc, 1)
    else:
        assert s.nums[0] and s.nums[-1]
        assert math.gcd(s.den, *s.nums) == 1
        assert s.val + len(s.nums) <= s.trunc
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs == [Fraction(c, s.den) for c in s.nums]
    for k in range(min(s.val, 0) - 1, s.trunc):
        assert s.coeff(k) == (s.coeffs[k - s.val] if 0 <= k - s.val < len(s.nums) else 0)
    return s


def ref_add(a, b, sign):
    (_, ta, tra), (_, tb, trb) = canonical(*a), canonical(*b)
    out = dict(ta)
    for k, c in tb.items():
        out[k] = out.get(k, 0) + sign * c
    return canonical_dict(out, min(tra, trb))


def ref_scale(a, q):
    """a times the nonzero rational q: every coefficient scaled, trunc kept."""
    _, terms, trunc = canonical(*a)
    return canonical_dict({k: c * q for k, c in terms.items()}, trunc)


@given(flat_series(), flat_series())
@settings(max_examples=150, deadline=None)
def test_sum_and_difference_match_schoolbook(a, b):
    x, y = TSeries(*a), TSeries(*b)
    assert stored(assert_canonical(x + y)) == as_tuple(*ref_add(a, b, 1))
    assert stored(assert_canonical(x - y)) == as_tuple(*ref_add(a, b, -1))
    assert stored(assert_canonical(-x)) == as_tuple(*ref_add((a[2], [], a[2]), a, -1))
    assert stored(y + x) == stored(x + y)


@given(flat_series(), nonzero_rationals)
@settings(max_examples=150, deadline=None)
def test_rational_scaling_and_division_match_schoolbook(a, q):
    s = TSeries(*a)
    for got in (s * q, q * s):
        assert stored(assert_canonical(got)) == as_tuple(*ref_scale(a, Fraction(q)))
    assert stored(assert_canonical(s / q)) == as_tuple(*ref_scale(a, 1 / Fraction(q)))
    assert stored(assert_canonical(s + q)) == as_tuple(*ref_add(a, (0, [q], s.trunc), 1))
    assert stored(assert_canonical(q - s)) == as_tuple(*ref_add((0, [q], s.trunc), a, -1))
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            s / zero


@given(flat_series(), flat_series(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_every_kernel_leaves_the_canonical_form(a, b, k):
    x, y = assert_canonical(TSeries(*a)), assert_canonical(TSeries(*b))
    assert_canonical(x * y)
    assert_canonical(x * 0)
    assert_canonical(x.shift(k))
    if x:
        assert_canonical(x.inv())
        assert_canonical(y / x)
        assert_canonical(x ** 2)
    if x and x.val >= 1:
        assert_canonical(series_exp(x))
        assert_canonical(expm1_over(x))
    if x and x.val == 0 and x.coeff(0) == 1:
        assert_canonical(series_log(x))
    rf = RatFn.from_factors(1, [x, Fraction(1, 3)], [y, Fraction(-2)])
    for c in log_coeffs(rf, 1, 4):
        if isinstance(c, TSeries):
            assert_canonical(c)


def test_stored_form_cases():
    s = TSeries(-1, [Fraction(2, 3), 0, Fraction(-4, 9), 0], 5)
    assert (s.val, s.nums, s.den, s.trunc) == (-1, [6, 0, -4], 9, 5)
    assert s.coeffs == [Fraction(2, 3), Fraction(0), Fraction(-4, 9)]
    assert s.coeff(0) == s.coeffs[1] == 0 and s.coeff(-2) == 0
    # a negative rational divisor leaves the denominator positive
    t = s / Fraction(-2, 3)
    assert (t.val, t.nums, t.den, t.trunc) == (-1, [-3, 0, 2], 3, 5)
    # a cancelled leading term and a cut at the lower trunc, then one gcd pass
    u = s + TSeries(-1, [Fraction(-2, 3), Fraction(1, 2), 0, 7], 2)
    assert (u.val, u.nums, u.den, u.trunc) == (0, [9, -8], 18, 2)
    zero = s - s
    assert (zero.val, zero.nums, zero.den, zero.trunc) == (5, [], 1, 5)
    with pytest.raises(ZeroDivisionError):
        zero / 0
    with pytest.raises(AttributeError):
        s.coeffs = [Fraction(1)]
    with pytest.raises(TypeError):
        hash(s)


# -- power sums of factored rational functions against the product loop ------

def ref_log_coeffs(rf, direction, n):
    """c_1..c_n with each power sum summed root by root, pw = pw * x."""
    _, zeros, poles = rf.factors
    if direction == -1:
        zeros = [1 / a for a in zeros]
        poles = [1 / b for b in poles]

    def power_sums(roots):
        sums = [Fraction(0)] * n
        for x in roots:
            pw = x
            for k in range(n):
                if k:
                    pw = pw * x
                sums[k] = sums[k] + pw
        return sums

    return [(p - q) / k for k, p, q in zip(range(1, n + 1), power_sums(poles), power_sums(zeros))]


def shape(x):
    if isinstance(x, TSeries):
        return TSeries, x.val, x.coeffs, x.trunc
    return type(x), x


@st.composite
def log_roots(draw):
    """Equally many zeros and poles: rationals, or flat series of valuation
    -1..3 (long lists at valuation 0, interior zeros, unequal truncs and
    denominators)."""
    root = st.one_of(rationals, flat_series(min_val=-1, max_val=3, max_len=9)
                     .map(lambda a: TSeries(*a)))
    k = draw(st.integers(0, 4))
    return (draw(st.lists(root, min_size=k, max_size=k)),
            draw(st.lists(root, min_size=k, max_size=k)))


@given(log_roots(), st.sampled_from([1, -1]), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_log_coeffs_match_the_product_loop(roots, direction, n):
    zeros, poles = roots
    if direction == -1 and not all(zeros + poles):
        with pytest.raises(ExpansionPoleError):
            RatFnModes(RatFn.from_factors(3, zeros, poles), direction)
        return
    rf = RatFn.from_factors(3, zeros, poles)
    got = log_coeffs(rf, direction, n)
    assert [shape(c) for c in got] == [shape(c) for c in ref_log_coeffs(rf, direction, n)]


def test_log_coeffs_product_loop_cases():
    T = 14
    mono = [TSeries(1, [Fraction(c, 5)], T) for c in (13, -3, 1)]
    long0 = [TSeries(0, [Fraction(1, j + 2) for j in range(T)], T),
             TSeries(0, [Fraction(-2, 3), 0, 0, Fraction(5, 7)], 11)]
    cases = [((), (), 1), ((), (), -1),                   # no roots at all
             (mono[:2], mono[1:], 1), (mono[:2], mono[1:], -1),
             (long0, long0[::-1], 1), (long0, mono[:1], -1),
             ((Fraction(2), mono[0]), (Fraction(-1, 3), long0[1]), 1),
             ((TSeries(5, [], 5), mono[0]), (mono[1], mono[2]), 1)]
    for zeros, poles, direction in cases:
        rf = RatFn.from_factors(1, zeros, poles)
        got = log_coeffs(rf, direction, 6)
        assert [shape(c) for c in got] == [shape(c) for c in ref_log_coeffs(rf, direction, 6)]
        if not zeros and not poles:
            assert all(type(c) is Fraction and c == 0 for c in got)


def power_sums(roots, n):
    """[p_1, ..., p_n] from the integer numerators S_k over D^k of the mode
    table with the roots as poles and as many zeros at 0."""
    modes = RatFnModes(RatFn.from_factors(1, (0,) * len(roots), roots), +1)
    return [_over(s, modes.D ** k) for k, s in enumerate(modes.extend(n), 1)]


def schoolbook_power_sums(roots, n):
    """[p_1, ..., p_n] root by root, pw = pw * x, from Fraction(0)."""
    sums = [Fraction(0)] * n
    for x in roots:
        pw = Fraction(x) if type(x) is int else x
        for k in range(n):
            if k:
                pw = pw * x
            sums[k] = sums[k] + pw
    return sums


@given(st.lists(st.one_of(st.integers(-9, 9), rationals,
                          flat_series(min_val=-1, max_val=3, max_len=6)
                          .map(lambda a: TSeries(*a))), max_size=5),
       st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_power_sums_match_the_schoolbook_loop(roots, n):
    got = power_sums(roots, n)
    assert [shape(c) for c in got] == [shape(c) for c in schoolbook_power_sums(roots, n)]
    if all(type(x) is not TSeries for x in roots):
        assert all(type(c) is Fraction for c in got)


def test_power_sums_cases():
    T = 9
    mono = TSeries(1, [Fraction(13, 5)], T)
    cases = [[], [3], [-2, 5, 0], [Fraction(-7, 6), Fraction(5, 4), 2],
             [TSeries(4, [], 4)], [TSeries(4, [], 4), Fraction(1, 3)],
             [Fraction(2, 3), mono, -1, TSeries(0, [Fraction(1, 2), 0, 3], 6)],
             [TSeries(6, [], 6), mono, Fraction(-1, 9)]]
    for roots in cases:
        got = power_sums(roots, 6)
        assert [shape(c) for c in got] == [shape(c) for c in schoolbook_power_sums(roots, 6)]


def inverse_power_sums(roots, n):
    """[p_1, ..., p_n] of the roots' inverses, from the mode table around 0
    with the roots as poles."""
    modes = RatFnModes(RatFn.from_factors(1, (), roots), -1)
    return [_over(s, modes.D ** k) for k, s in enumerate(modes.extend(n), 1)]


def test_power_sums_of_one_term_roots():
    """One-term series roots at valuations 0, 1 and 2 keep their powers as
    ints; mixed with rationals, a zero series and longer series, the power
    sums are the product loop's around infinity (the roots as poles, and
    as poles and zeros in turn) and around 0."""
    T = 9
    one = [TSeries(0, [Fraction(3, 5)], T), TSeries(1, [Fraction(-7, 4)], T),
           TSeries(2, [Fraction(11, 6)], T - 2), TSeries(1, [Fraction(2, 3)], T + 3)]
    zero = TSeries(5, [], 5)
    longer = [TSeries(0, [Fraction(1, 2), 0, 3], 6), TSeries(1, [Fraction(-2, 3), Fraction(1, 4)], 8)]
    cases = [one, one[1:2] * 3, [one[1], one[3]],
             [Fraction(2, 3), one[1], -1, one[2]],
             [zero, one[0], one[1]],
             [one[2], longer[0], Fraction(-1, 9), one[0]],
             [longer[1], one[1], zero, one[2], 4],
             [longer[0], longer[1], one[3], Fraction(5, 7)]]
    for roots in cases:
        got = power_sums(roots, 7)
        assert [shape(c) for c in got] == [shape(c) for c in schoolbook_power_sums(roots, 7)]
        modes = RatFnModes(RatFn.from_factors(1, (0,) * len(roots), roots), +1)
        assert [type(a) is int for _, _, _, a in modes.series] == \
            [len(x.nums) == 1 for x in roots if isinstance(x, TSeries) and x.nums]
        # poles and zeros alternate: S_k/D^k = p_k(poles) - p_k(zeros)
        poles, zeros = roots[::2], roots[1::2]
        pad = (0,) * (len(poles) - len(zeros))
        modes = RatFnModes(RatFn.from_factors(1, zeros + list(pad), poles), +1)
        got = [_over(s, modes.D ** k) for k, s in enumerate(modes.extend(7), 1)]
        want = [a - b for a, b in zip(schoolbook_power_sums(poles, 7),
                                      schoolbook_power_sums(zeros, 7))]
        assert [shape(c) for c in got] == [shape(c) for c in want]
        if all(roots):
            inverses = [Fraction(1) / x for x in roots]
            got = inverse_power_sums(roots, 7)
            assert [shape(c) for c in got] == \
                [shape(c) for c in schoolbook_power_sums(inverses, 7)]


def test_rational_scaling_keeps_precision():
    s = TSeries(-2, [1, 1], 3)
    for scaled in (s * 2, 2 * s, s * Fraction(-3, 4), Fraction(-3, 4) * s):
        assert scaled.trunc == 3 and scaled.val == -2
    assert stored(s * 2) == stored(s / Fraction(1, 2))
    # an exact rational zero loses no precision: zero mod X^trunc
    for zero in (0, Fraction(0)):
        assert stored(s * zero) == stored(zero * s) == (3, [], 3)


def test_coefficients_are_rationals():
    # a series coefficient used to be kept as a nested series
    with pytest.raises(TypeError):
        TSeries(0, [TSeries(-1, [Fraction(1, 2)], 2)], 3)
    with pytest.raises(TypeError):
        TSeries(0, [Fraction(1), 0.5], 3)
    assert stored(TSeries(1, [2, Fraction(1, 3)], 4)) == (1, [Fraction(2), Fraction(1, 3)], 4)


def test_constructor_cuts_before_it_strips():
    # every stored coefficient lies below trunc, whatever the input list
    assert stored(TSeries(5, [1, 2, 3], 3)) == (3, [], 3)
    assert stored(TSeries(0, [0, 0, 0, 5, 6, 7], 2)) == (2, [], 2)
    assert stored(TSeries(-3, [0, 1, 0, 2], -1)) == (-2, [Fraction(1)], -1)
    # a sum known only below the valuation of one term is zero
    assert stored(TSeries(0, [Fraction(7), 1], 5) + TSeries(-2, [], -2)) == (-2, [], -2)
    coeffs = [Fraction(0), Fraction(1), Fraction(0)]
    TSeries(0, coeffs, 9)
    assert coeffs == [Fraction(0), Fraction(1), Fraction(0)]
