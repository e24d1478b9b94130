"""Sparse containers store no zero coefficient after a cancellation.

Loops over `MPoly`, `QOp`, `HOp` and plain-dict vectors only accumulate;
the constructors (and `repbase.vsum` for plain dicts) drop what sums to
zero.  Each case below cancels on purpose and checks that nothing zero is
left behind.
"""

from fractions import Fraction

import pytest

from toryang.diffops import HOp, QOp
from toryang.multipoly import MPoly
from toryang.repbase import vsum
from toryang.scalars import TSeries

from reference import apply_mode

q = Fraction(3)
h = Fraction(2, 5)


def no_zero(d):
    return all(c for c in d.values())


x, y = MPoly.var(2, 0), MPoly.var(2, 1)


class TestMPoly:
    def test_sum_that_cancels(self):
        assert (x + (-x)).d == {}
        p = (x + y) + (-x)
        assert p.d == {(0, 1): 1} and no_zero(p.d)

    def test_product_that_cancels(self):
        p = (x + y) * (x - y)
        assert (1, 1) not in p.d and no_zero(p.d)
        assert p == x * x - y * y

    def test_collapse_monomial_that_cancels(self):
        assert (x - y).collapse_monomial((0, 1), (1, 1)).d == {}
        p = (x - y + x * x).collapse_monomial((0, 1), (1, 1))
        assert p.d == {(2,): 1} and no_zero(p.d)

    def test_collapse_affine_that_cancels(self):
        assert (x - y).collapse_affine((0, 1), (Fraction(1, 3), Fraction(1, 3))).d == {}
        p = (x - y).collapse_affine((0, 1), (Fraction(1), Fraction(0)))
        assert p.d == {(0,): 1} and no_zero(p.d)

    def test_div_linear_with_carried_cancellations(self):
        # y (x - y)^2: the running row and the remainder both cancel
        p = y * (x - y) * (x - y)
        quot = p.div_linear(0, 1)
        assert quot == x * y - y * y and no_zero(quot.d)
        assert (x * x - y * y).div_linear(0, 1) == x + y

    def test_div_linear_nonzero_remainder_raises(self):
        with pytest.raises(ArithmeticError):
            (x * x + y).div_linear(0, 1)
        with pytest.raises(ArithmeticError):
            (x - 2 * y).div_linear(0, 1)


class TestQOp:
    Z = QOp.monomial(q, 1, 0)
    D = QOp.monomial(q, 0, 1)

    def test_sum_that_cancels(self):
        assert (self.Z + (-self.Z)).terms == {}
        s = (self.Z + self.D) - self.Z
        assert s.terms == {(0, 1): 1} and no_zero(s.terms)

    def test_mul_that_cancels(self):
        # D Z = q Z D, so the Z D terms of (D + Z)(Z - q D) cancel
        p = (self.D + self.Z).mul(self.Z - self.D.scale(q))
        assert (1, 1) not in p.terms and no_zero(p.terms)
        assert p.terms == {(2, 0): 1, (0, 2): -q}

    def test_bracket_that_cancels(self):
        a = self.Z + self.D
        assert a.bracket(a).terms == {} and a.bracket(a).is_zero()


def stored(op):
    return op.nums, op.cnum, op.den


class TestStoredForm:
    """After a cancellation no zero numerator is kept and the denominator is
    reduced; equal operators built two ways are stored identically."""

    def test_cancellation_reduces_the_denominator(self):
        for cls, p in ((QOp, q), (HOp, h)):
            a = cls(p, {(1, 1): Fraction(1, 6), (2, 0): Fraction(1, 4)}, central=Fraction(5, 12))
            b = cls(p, {(1, 1): Fraction(-1, 6), (0, 1): Fraction(1, 2)}, central=Fraction(-5, 12))
            s = a + b
            assert stored(s) == ({(2, 0): 1, (0, 1): 2}, 0, 4) and no_zero(s.nums)
            assert stored(a - a) == ({}, 0, 1)

    def test_bracket_cancellation_reduces_the_denominator(self):
        # [Z/3, D/5] - (1 - q)/15 Z D = 0 and [x/3, shift/5] + h/15 shift = 0
        z = QOp(q, {(1, 0): Fraction(1, 3)}).bracket(QOp(q, {(0, 1): Fraction(1, 5)}))
        assert stored(z) == ({(1, 1): -2}, 0, 15)
        assert stored(z - QOp(q, {(1, 1): (1 - q) / 15})) == ({}, 0, 1)
        x = HOp(h, {(1, 0): Fraction(1, 3)}).bracket(HOp(h, {(0, 1): Fraction(1, 5)}))
        assert stored(x + HOp(h, {(0, 1): h / 15})) == ({}, 0, 1)

    def test_equal_operators_are_stored_identically(self):
        for cls, p in ((QOp, q), (HOp, h)):
            one = cls(p, {(2, 1): Fraction(3, 4), (0, -1): Fraction(-1, 6)}, central=Fraction(1, 3))
            two = (cls.monomial(p, 2, 1, Fraction(9, 8)) + cls(p, {(0, -1): Fraction(-1, 4)},
                   central=Fraction(1, 2))).scale(Fraction(2, 3))
            assert one == two and stored(one) == stored(two)
            assert stored(one) == ({(2, 1): 9, (0, -1): -2}, 4, 12)


class TestHOp:
    X = HOp.monomial(h, 1, 0)
    S = HOp.monomial(h, 0, 1)
    ONE = HOp.monomial(h, 0, 0)

    def test_sum_that_empties_a_shift_slot(self):
        assert (self.X + (-self.X)).terms == {}
        s = (self.X + self.S) - self.X
        assert s.terms == {(0, 1): 1} and no_zero(s.terms)

    def test_mul_that_empties_a_shift_slot(self):
        # (shift - 1)(shift + 1) = shift^2 - 1: the shift^1 slot cancels
        p = (self.S - self.ONE).mul(self.S + self.ONE)
        assert p.terms == {(0, 2): 1, (0, 0): -1} and no_zero(p.terms)

    def test_bracket_that_cancels(self):
        a = self.X + self.S
        assert a.bracket(a).terms == {} and a.bracket(a).is_zero()
        # [shift, x] = h shift: the x-degree-1 part of slot 1 cancels
        b = self.S.bracket(self.X)
        assert b.terms == {(0, 1): h} and no_zero(b.terms)


class TestVectors:
    def test_vsum_that_cancels(self):
        u = {"a": Fraction(1), "b": Fraction(2)}
        assert vsum([("a", Fraction(-1))], u) == {"b": 2}
        assert vsum([("a", Fraction(-1)), ("b", Fraction(-2))], u) == {}
        assert vsum([("a", Fraction(-1)), ("c", Fraction(-5))], u) == {"b": 2, "c": -5}
        s = TSeries(0, [1, 2], 6)
        assert vsum([("a", -s)], {"a": s}) == {}

    def test_vsum_keeps_first_insertion_order(self):
        out = vsum([("b", 1), ("a", 1), ("b", -1), ("c", 2), ("b", 3)], {"d": 1})
        assert list(out.items()) == [("d", 1), ("b", 3), ("a", 1), ("c", 2)]

    def test_apply_mode_that_cancels(self):
        class Rows:
            def mode_row(self, kind, label, mode):
                return {"u": [("t", 1), ("w", 2)], "v": [("t", -1)]}[label]

        out = apply_mode(Rows(), "e", 0, {"u": Fraction(1), "v": Fraction(1)})
        assert out == {"w": 2} and no_zero(out)
