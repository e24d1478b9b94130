from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toryang import partitions as pt
from toryang.params import default_toroidal, series_toroidal
from toryang.scalars import series_exp


def partitions_strategy(max_n=8):
    return st.integers(0, max_n).map(
        lambda n: pt.enum_partitions(n)).flatmap(st.sampled_from)


def test_enum_counts():
    assert pt.enum_partitions(0) == [()]
    assert len(pt.enum_partitions(4)) == 5
    # sum over splits of p(k) * p(2-k): 1*2 + 1*1 + 2*1 = 5
    assert len(pt.enum_multipartitions(2, 2)) == 5
    assert all(len(m) == 2 for m in pt.enum_multipartitions(2, 2))


@given(partitions_strategy())
@settings(max_examples=80, deadline=None)
def test_conjugation_involution(lam):
    assert pt.conjugate(pt.conjugate(lam)) == lam
    assert sum(pt.conjugate(lam)) == sum(lam)


def test_addable_removable_examples():
    assert pt.addable_boxes(((),)) == [(1, 1, 1)]
    assert pt.addable_rows((2, 2)) == [1, 3]
    assert pt.removable_boxes(((3, 1),)) == [(1, 3, 1), (1, 1, 2)]


@given(partitions_strategy(6))
@settings(max_examples=60, deadline=None)
def test_add_then_remove_roundtrip(lam):
    for j in pt.addable_rows(lam):
        mu = pt.add_box(lam, j)
        assert pt.remove_box(mu, j) == lam
    for j in pt.removable_rows(lam):
        mu = pt.remove_box(lam, j)
        assert pt.add_box(mu, j) == lam


def test_contents():
    assert pt.content_add((1, 1), Fraction(13), Fraction(1), Fraction(0)) == 0
    # column 2, row 3
    s1, s2, x = Fraction(13), Fraction(1), Fraction(1, 5)
    assert pt.content_add((2, 3), s1, s2, x) == s1 + 2 * s2 - x


def test_content_mult_is_exp_of_content_add():
    tp = series_toroidal(13, 1, (Fraction(1, 5),), trunc=10)
    yp = tp.yangian
    for box in ((1, 1), (2, 3), (4, 2)):
        mult = pt.content_mult(box, tp.q1, tp.q2, tp.chis[0])
        add = pt.content_add(box, yp.h1, yp.h2, yp.xs[0])
        assert (mult - series_exp(add)).is_zero()


def test_tangent_character_count_and_example():
    p = default_toroidal(r=1)
    # single box: weights {t1, t2}
    vals = sorted(v for _, v in pt.eval_mult(pt.tangent_character(((1,),)),
                                             p.q1, p.q2, (Fraction(1),)))
    assert vals == sorted([p.q1, p.q2])
    assert pt.tangent_character(((),)) == []
    for r, n in ((1, 3), (2, 2)):
        for mlam in pt.enum_multipartitions(r, n):
            assert len(pt.tangent_character(mlam)) == 2 * r * n


def test_tangent_character_exp_consistency():
    # multiplicative evaluation is the elementwise exponential of the
    # additive one under the one-symbol specialization
    tp = series_toroidal(13, 1, (Fraction(1, 5), Fraction(1, 7)), trunc=8)
    yp = tp.yangian
    for mlam in (((1,), ()), ((2, 1), (1,))):
        mult = pt.eval_mult(pt.tangent_character(mlam), tp.q1, tp.q2, tp.chis)
        add = pt.eval_add(pt.tangent_character(mlam), yp.h1, yp.h2, yp.xs)
        for (sm, vm), (sa, va) in zip(mult, add):
            assert sm == sa
            assert (vm - series_exp(va)).is_zero()
