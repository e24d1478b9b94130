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
