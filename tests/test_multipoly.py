import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toryang.multipoly import MPoly


def test_arithmetic_and_equality():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x * y) ** 2 == MPoly.monomial(2, (2, 2))


def test_laurent_exponents():
    x = MPoly.var(2, 0)
    xi = MPoly.var(2, 0, -1)
    assert (x * xi) == MPoly.const(2, 1)


def test_div_linear_exact():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = (x - y) * (x + 2 * y)
    q = p.div_linear(0, 1)
    assert q == x + 2 * y
    with pytest.raises(ArithmeticError):
        (x * x + y).div_linear(0, 1)


def test_div_linear_with_negative_powers():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = (x - y) * MPoly.monomial(2, (-2, 1), Fraction(3, 7))
    assert p.div_linear(0, 1) == MPoly.monomial(2, (-2, 1), Fraction(3, 7))


def test_vandermonde_division():
    n = 3
    v = MPoly.const(n, 1)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in pairs:
        v = v * (MPoly.var(n, a) - MPoly.var(n, b))
    assert (v * v).div_vandermonde(pairs) == v


def test_apply_perm_convention():
    # substituting x1 -> x2 in x1^2 x3 gives x2^2 x3
    p = MPoly.monomial(3, (2, 0, 1))
    q = p.apply_perm((1, 0, 2))
    assert q == MPoly.monomial(3, (0, 2, 1))


def test_is_symmetric():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    assert (x + y).is_symmetric()
    assert (x * y).is_symmetric()
    assert not (x - y).is_symmetric()


def test_collapse_monomial():
    # x1 = 2s, x2 = s: x1*x2^3 -> 2 s^4
    p = MPoly.monomial(2, (1, 3))
    q = p.collapse_monomial((0, 1), (Fraction(2), Fraction(1)))
    assert q == MPoly.monomial(1, (4,), 2)


def test_collapse_affine():
    # x1 = s + 1: x1^2 -> s^2 + 2s + 1
    p = MPoly.monomial(1, (2,))
    q = p.collapse_affine((0,), (Fraction(1),))
    assert q == MPoly(1, {(2,): 1, (1,): 2, (0,): 1})


def test_xi_shift_parts():
    # f = x1^2 with x1 shifted: parts 1, 2x1, x1^2 by xi-degree
    p = MPoly.monomial(1, (2,))
    parts = p.xi_shift_parts([0])
    assert parts[2] == MPoly.const(1, 1)
    assert parts[1] == MPoly.monomial(1, (1,), 2)
    assert parts[0] == MPoly.monomial(1, (2,))


def test_eval():
    p = MPoly(2, {(1, 0): 2, (0, -1): 3})
    assert p.eval((Fraction(5), Fraction(1, 3))) == 10 + 9


# -- products against a schoolbook reference ----------------------------------

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
laurent_terms = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 3), rationals, max_size=6)


def ref_product(a, b):
    """{exponent: coefficient} of the product, summed in Fractions, zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(laurent_terms, laurent_terms)
@settings(max_examples=150, deadline=None)
def test_laurent_product_matches_reference(a, b):
    got = MPoly(3, a) * MPoly(3, b)
    assert got.d == ref_product({e: c for e, c in a.items() if c},
                                {e: c for e, c in b.items() if c})
    assert all(type(c) is Fraction and c for c in got.d.values())


def test_product_with_cancellation_and_mixed_denominators():
    a = MPoly(2, {(1, -1): Fraction(1, 6), (-2, 0): Fraction(-3, 4)})
    b = MPoly(2, {(0, 1): Fraction(6, 5), (3, 0): Fraction(2, 9), (1, -1): Fraction(3, 4)})
    c = MPoly(2, {(1, -1): Fraction(1, 6), (-2, 0): Fraction(3, 4)})
    assert (a * b).d == ref_product(a.d, b.d)
    # (u - v)(u + v) with u^2 and v^2 both present: the cross terms cancel
    assert (a * c).d == ref_product(a.d, c.d)
    assert (-a * a + a * a).is_zero()


# -- division and evaluation against Fraction schoolbooks ----------------------

def ref_div_linear(p, a, b):
    """Synthetic division of {exponent: Fraction} by (x_a - x_b), one x_a
    degree at a time from the top, as dense Fraction rows."""
    lo = min([0] + [e[a] for e in p])
    hi = max([0] + [e[a] for e in p])
    rows = {k: {} for k in range(lo, hi + 1)}
    for e, c in p.items():
        rows[e[a]][e] = c
    quot = {}
    for k in range(hi, lo, -1):
        for e, c in rows[k].items():
            qe = list(e)
            qe[a] -= 1
            quot[tuple(qe)] = quot.get(tuple(qe), Fraction(0)) + c
            qe[b] += 1
            rows[k - 1][tuple(qe)] = rows[k - 1].get(tuple(qe), Fraction(0)) + c
    if any(rows[lo].values()):
        raise ArithmeticError("division by (x_%d - x_%d) is not exact" % (a, b))
    return {e: c for e, c in quot.items() if c}


def ref_vandermonde(p, pairs):
    for a, b in pairs:
        p = ref_div_linear(p, a, b)
    return p


def linear_factor(a, b):
    ea, eb = [0, 0, 0], [0, 0, 0]
    ea[a], eb[b] = 1, 1
    return {tuple(ea): Fraction(1), tuple(eb): Fraction(-1)}


index_pairs = st.lists(st.permutations([0, 1, 2]).map(lambda s: (s[0], s[1])), max_size=3)


@given(laurent_terms, index_pairs)
@settings(max_examples=150, deadline=None)
def test_vandermonde_division_recovers_the_cofactor(p, pairs):
    # x_a and x_b both carry negative exponents in p (range -3..3)
    p = {e: c for e, c in p.items() if c}
    prod = p
    for a, b in pairs:
        prod = ref_product(prod, linear_factor(a, b))
    got = MPoly(3, prod).div_vandermonde(pairs)
    assert got.d == ref_vandermonde(prod, pairs) == p
    assert all(type(c) is Fraction for c in got.d.values())
    one_at_a_time = MPoly(3, prod)
    for a, b in reversed(pairs):
        one_at_a_time = one_at_a_time.div_linear(a, b)
    assert one_at_a_time.d == p


@given(laurent_terms, index_pairs.filter(bool))
@settings(max_examples=150, deadline=None)
def test_inexact_division_names_the_same_pair(p, pairs):
    p = {e: c for e, c in p.items() if c}
    try:
        want = ref_vandermonde(p, pairs)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            MPoly(3, p).div_vandermonde(pairs)
        assert str(got.value) == str(exc)
    else:
        assert MPoly(3, p).div_vandermonde(pairs).d == want


def test_inexact_division_with_negative_exponents():
    # x^-1 y^-2 (x - y) + x^-2: the remainder sits at x degree -2
    p = {(0, -2, 0): Fraction(1), (-1, -1, 0): Fraction(-1), (-2, 0, 0): Fraction(2, 3)}
    with pytest.raises(ArithmeticError, match=r"\(x_0 - x_1\)"):
        MPoly(3, p).div_linear(0, 1)
    with pytest.raises(ArithmeticError, match=r"\(x_2 - x_0\)"):
        MPoly(3, p).div_vandermonde([(2, 0), (0, 1)])


def test_division_of_zero():
    zero = MPoly.zero(3)
    assert zero.div_linear(0, 1).is_zero()
    assert zero.div_vandermonde([(0, 1), (0, 2), (1, 2)]).is_zero()
    assert zero.div_vandermonde([]).n == 3


def ref_eval(p, point):
    tot = Fraction(0)
    for e, c in p.items():
        for x, k in zip(point, e):
            c *= Fraction(x) ** k
        tot += c
    return tot


points = st.lists(st.one_of(st.integers(-4, 4), rationals), min_size=3, max_size=3)


@given(laurent_terms, points)
@settings(max_examples=200, deadline=None)
def test_eval_matches_reference(p, point):
    p = {e: c for e, c in p.items() if c}
    try:
        want = ref_eval(p, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            MPoly(3, p).eval(point)
    else:
        got = MPoly(3, p).eval(point)
        assert type(got) is Fraction and got == want


def test_eval_at_zero_coordinates():
    p = MPoly(3, {(2, 0, -1): Fraction(3, 4), (0, 1, 1): Fraction(-2), (0, 0, 0): 5})
    # x1 = 0 under nonnegative powers only: its terms vanish, 0^0 is 1
    assert p.eval((0, Fraction(1, 2), 3)) == Fraction(-2, 1) * Fraction(3, 2) + 5
    assert p.eval((Fraction(0), 2, Fraction(-1, 3))) == Fraction(4, 3) + 5
    with pytest.raises(ZeroDivisionError):
        p.eval((1, 2, 0))
    with pytest.raises(ZeroDivisionError):
        MPoly(1, {(-1,): 1}).eval((Fraction(0),))
    assert MPoly.zero(2).eval((0, 0)) == 0


# -- the stored form: integer numerators over one denominator -----------------

def assert_canonical(p):
    """p.nums / p.den in canonical form, and d read from it."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert all(type(e) is tuple and len(e) == p.n for e in p.nums)
    if p.nums:
        assert math.gcd(p.den, *p.nums.values()) == 1
    else:
        assert p.den == 1
    assert all(type(c) is Fraction for c in p.d.values())
    assert p.d == {e: Fraction(c, p.den) for e, c in p.nums.items()}
    return p


def random_terms(rng, n, size=5, lo=-3, hi=3):
    """{exponent: Fraction} with up to size terms, some of them zero."""
    return {tuple(rng.randint(lo, hi) for _ in range(n)):
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, size))}


def random_rational(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        if q or not nonzero:
            return q


def nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def ref_sum(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return nonzero(out)


def ref_scale(a, q):
    return nonzero({e: c * q for e, c in a.items()})


def ref_perm(a, sigma):
    out = {}
    for e, c in a.items():
        ne = [0] * len(e)
        for i, k in enumerate(e):
            ne[sigma[i]] = k
        out[tuple(ne)] = c
    return nonzero(out)


def ref_shift(a, i, k):
    return nonzero({tuple(x + k * (t == i) for t, x in enumerate(e)): c for e, c in a.items()})


def ref_graded(a, idxs):
    out = {}
    for e, c in a.items():
        out.setdefault(sum(e[i] for i in idxs), {})[e] = c
    return {k: nonzero(v) for k, v in out.items()}


def ref_collapse_monomial(a, n, idxs, scales):
    keep = [i for i in range(n) if i not in idxs]
    out = {}
    for e, c in a.items():
        for i, x in zip(idxs, scales):
            c = c * Fraction(x) ** e[i]
        ne = (sum(e[i] for i in idxs),) + tuple(e[i] for i in keep)
        out[ne] = out.get(ne, Fraction(0)) + c
    return nonzero(out)


def ref_collapse_affine(a, n, idxs, shifts):
    """prod (s + shift_t)^(e_t) multiplied out one linear factor at a time."""
    keep = [i for i in range(n) if i not in idxs]
    out = {}
    for e, c in a.items():
        poly = {0: c}
        for i, x in zip(idxs, shifts):
            for _ in range(e[i]):
                nxt = {}
                for deg, v in poly.items():
                    nxt[deg + 1] = nxt.get(deg + 1, Fraction(0)) + v
                    nxt[deg] = nxt.get(deg, Fraction(0)) + v * x
                poly = nxt
        for deg, v in poly.items():
            ne = (deg,) + tuple(e[i] for i in keep)
            out[ne] = out.get(ne, Fraction(0)) + v
    return nonzero(out)


def ref_xi_shift(a, idxs):
    """{xi degree: {exponent: coefficient}} of f(.., x_i + xi, ..), each
    shifted variable multiplied out one linear factor at a time."""
    out = {}
    for e, c in a.items():
        poly = {(0, e): c}  # (xi degree, exponent) -> coefficient
        for i in idxs:
            base = {(dd, ee[:i] + (0,) + ee[i + 1:]): v for (dd, ee), v in poly.items()}
            for _ in range(e[i]):
                nxt = {}
                for (dd, ee), v in base.items():
                    up = ee[:i] + (ee[i] + 1,) + ee[i + 1:]
                    nxt[(dd, up)] = nxt.get((dd, up), Fraction(0)) + v
                    nxt[(dd + 1, ee)] = nxt.get((dd + 1, ee), Fraction(0)) + v
                base = nxt
            poly = base
        for (dd, ee), v in poly.items():
            slot = out.setdefault(dd, {})
            slot[ee] = slot.get(ee, Fraction(0)) + v
    parts = {k: nonzero(v) for k, v in out.items()}
    return {k: v for k, v in parts.items() if v}


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_and_scalars_match_schoolbook(seed):
    rng = random.Random(seed)
    a, b = random_terms(rng, 3), random_terms(rng, 3)
    if rng.random() < 0.3:
        b.update({e: -c for e, c in a.items()})  # cancellation down to few terms
    x, y = MPoly(3, a), MPoly(3, b)
    a, b = nonzero(a), nonzero(b)
    assert assert_canonical(x + y).d == ref_sum(a, b, 1)
    assert assert_canonical(x - y).d == ref_sum(a, b, -1)
    assert assert_canonical(-x).d == ref_scale(a, -1)
    q = random_rational(rng)
    assert assert_canonical(x + q).d == ref_sum(a, {(0, 0, 0): q}, 1)
    assert assert_canonical(q - x).d == ref_sum({(0, 0, 0): q}, a, -1)
    for got in (x * q, q * x):
        assert assert_canonical(got).d == ref_scale(a, q)
    q = random_rational(rng, nonzero=True)
    assert assert_canonical(x / q).d == ref_scale(a, 1 / q)
    assert assert_canonical(x * int(q.numerator)).d == ref_scale(a, q.numerator)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


@pytest.mark.parametrize("seed", SEEDS)
def test_structure_kernels_match_schoolbook(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = random_terms(rng, n, size=6)
    p = MPoly(n, a)
    a = nonzero(a)
    sigma = tuple(rng.sample(range(n), n))
    assert assert_canonical(p.apply_perm(sigma)).d == ref_perm(a, sigma)
    i, k = rng.randrange(n), rng.randint(-2, 2)
    assert assert_canonical(p.shift_var(i, k)).d == ref_shift(a, i, k)
    idxs = sorted(rng.sample(range(n), rng.randint(1, n)))
    parts = p.graded_parts(idxs)
    assert {deg: assert_canonical(q).d for deg, q in parts.items()} == ref_graded(a, idxs)
    scales = [random_rational(rng, nonzero=True) for _ in idxs]
    got = p.collapse_monomial(idxs, scales)
    assert got.n == n - len(idxs) + 1
    assert assert_canonical(got).d == ref_collapse_monomial(a, n, idxs, scales)
    # the affine and xi shifts need nonnegative exponents in the shifted slots
    b = nonzero(random_terms(rng, n, size=6, lo=0))
    q = MPoly(n, b)
    shifts = [random_rational(rng) for _ in idxs]
    got = q.collapse_affine(idxs, shifts)
    assert got.n == n - len(idxs) + 1
    assert assert_canonical(got).d == ref_collapse_affine(b, n, idxs, shifts)
    parts = q.xi_shift_parts(idxs)
    assert {deg: assert_canonical(r).d for deg, r in parts.items()} == ref_xi_shift(b, idxs)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_kernel_leaves_the_canonical_form(seed):
    rng = random.Random(seed)
    x, y = MPoly(3, random_terms(rng, 3)), MPoly(3, random_terms(rng, 3))
    for p in (x, y, x * y, x * x - x * x, x ** 2, MPoly.zero(3), MPoly.const(3, Fraction(-4, 6)),
              MPoly.var(3, 1, -2), MPoly.monomial(3, (1, 0, 2), Fraction(9, -6))):
        assert_canonical(p)
    pairs = [(0, 1), (2, 0)]
    lin = (MPoly.var(3, 0) - MPoly.var(3, 1)) * (MPoly.var(3, 2) - MPoly.var(3, 0))
    assert assert_canonical((x * lin).div_vandermonde(pairs)) == x
    assert assert_canonical((y * lin).div_linear(0, 1)) == y * (MPoly.var(3, 2) - MPoly.var(3, 0))
    point = [random_rational(rng, nonzero=True) for _ in range(3)]
    assert type(x.eval(point)) is Fraction
    assert x.eval(point) == ref_eval(x.d, point)


def test_stored_form_cases():
    p = MPoly(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(-4, 9), (0, 0): 0})
    assert (p.n, p.nums, p.den) == (2, {(1, 0): 6, (0, 1): -4}, 9)
    assert p.d == {(1, 0): Fraction(2, 3), (0, 1): Fraction(-4, 9)}
    # a negative rational divisor leaves the denominator positive
    q = p / Fraction(-2, 3)
    assert (q.nums, q.den) == ({(1, 0): -3, (0, 1): 2}, 3)
    # a cancelled term, then one gcd pass over what is left
    r = p + MPoly(2, {(1, 0): Fraction(-2, 3), (0, 1): Fraction(-2, 9)})
    assert (r.nums, r.den) == ({(0, 1): -2}, 3)
    zero = p - p
    assert (zero.nums, zero.den) == ({}, 1) and zero == MPoly.zero(2) == 0
    assert (p * 0).nums == {} and (p * 0).den == 1
    # integer coefficients keep the denominator 1
    s = MPoly(2, {(1, 1): 4, (0, 0): -6})
    assert (s.nums, s.den) == ({(1, 1): 4, (0, 0): -6}, 1)
    # d is a fresh dict on every read: writing to it leaves p as it was
    p.d[(5, 5)] = Fraction(1)
    assert (5, 5) not in p.d
    with pytest.raises(AttributeError):
        p.d = {}
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(TypeError):
        MPoly(1, {(0,): 0.5})
    with pytest.raises(TypeError):
        p * 0.5


def test_zero_scale_under_a_negative_power_raises():
    p = MPoly(2, {(-1, 1): 1, (0, 2): 3})
    with pytest.raises(ZeroDivisionError):
        p.collapse_monomial((0,), (Fraction(0),))
    # a zero scale under nonnegative powers only: 0^0 is 1
    assert p.collapse_monomial((1,), (0,)) == MPoly.zero(2)
    with pytest.raises(ValueError):
        p.collapse_affine((0,), (1,))
    with pytest.raises(ValueError):
        p.xi_shift_parts((0,))
