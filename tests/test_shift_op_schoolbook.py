"""`QOp` and `HOp` against a schoolbook.

The schoolbook below keeps an operator as ({(i, j): Fraction}, Fraction)
and writes +, -, scale, the normal-ordered product and the bracket with
both cocycles straight from their definitions, one Fraction at a time.
The library keeps integer numerators over one denominator; both must give
the same terms and central coefficient on random operators at parameters
that are positive, negative, non-integer and with large denominators,
including sums, products and brackets that cancel to zero.
"""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from toryang.diffops import HOp, QOp

PARAMS = [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(-11, 13),
          Fraction(10 ** 12 + 39, 10 ** 9 + 7), Fraction(-(2 ** 61 - 1), 3 ** 40)]


# -- the schoolbook -----------------------------------------------------------

def sb_clean(terms):
    return {k: c for k, c in terms.items() if c}


def sb_add(a, b, sign=1):
    terms = dict(a[0])
    for k, c in b[0].items():
        terms[k] = terms.get(k, Fraction(0)) + sign * c
    return sb_clean(terms), a[1] + sign * b[1]


def sb_scale(a, c):
    return sb_clean({k: v * c for k, v in a[0].items()}), a[1] * c


def sb_reorder(family, p, a, j, b, k):
    """[((i, s), weight)] of the monomial (a, j) times the monomial (b, k)."""
    if family is QOp:  # Z^a D^j Z^b D^k = q^(jb) Z^(a+b) D^(j+k)
        return [((a + b, j + k), p ** (j * b))]
    # x^a shift^j x^b shift^k = x^a (x + jh)^b shift^(j+k)
    return [((a + m, j + k), comb(b, m) * (j * p) ** (b - m)) for m in range(b + 1)]


def sb_cocycle(family, p, a, j, b, k):
    """The central 2-cocycle on the monomials (a, j) and (b, k)."""
    if not j or j + k:
        return Fraction(0)
    if family is QOp:
        if j > 0:
            return sum((p ** (a * i + b * (j + i)) for i in range(-j, 0)), Fraction(0))
        return -sum((p ** (b * i + a * (-j + i)) for i in range(j, 0)), Fraction(0))
    if j > 0:
        return sum(((l * p) ** a * ((l + j) * p) ** b for l in range(-j, 0)), Fraction(0))
    return -sum(((l * p) ** b * ((l - j) * p) ** a for l in range(j, 0)), Fraction(0))


def sb_mul(family, p, a, b):
    terms = {}
    for (i1, j1), c1 in a[0].items():
        for (i2, j2), c2 in b[0].items():
            for key, w in sb_reorder(family, p, i1, j1, i2, j2):
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2 * w
    return sb_clean(terms), Fraction(0)


def sb_bracket(family, p, a, b):
    ab, ba = sb_mul(family, p, a, b), sb_mul(family, p, b, a)
    central = sum((c1 * c2 * sb_cocycle(family, p, i1, j1, i2, j2)
                   for (i1, j1), c1 in a[0].items() for (i2, j2), c2 in b[0].items()),
                  Fraction(0))
    return sb_add(ab, ba, -1)[0], central


# -- random operators ---------------------------------------------------------

def rand_coeff(rng):
    den = rng.choice([1, 2, 9, 10 ** 6 + 3, 2 ** 40 + 15])
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), den) or Fraction(1, den)


def rand_pair(rng, family, central=True):
    """A random operator and its schoolbook twin."""
    lo = -2 if family is QOp else 0
    terms = {(rng.randint(lo, 3), rng.randint(-2, 2)): rand_coeff(rng)
             for _ in range(rng.randint(1, 4))}
    c = rand_coeff(rng) if central and rng.random() < 0.5 else Fraction(0)
    return terms, c


def check(op, want):
    """op agrees with the schoolbook pair want and is stored canonically."""
    assert op.terms == want[0] and op.central == want[1]
    assert op.den > 0 and all(op.nums.values())
    assert gcd(op.den, op.cnum, *op.nums.values()) == 1


@pytest.mark.parametrize("family", [QOp, HOp], ids=["QOp", "HOp"])
@pytest.mark.parametrize("p", PARAMS, ids=str)
def test_operations_match_the_schoolbook(family, p):
    rng = random.Random(f"{family.__name__} {p}")
    for _ in range(12):
        sa, sb = rand_pair(rng, family), rand_pair(rng, family)
        a, b = family(p, *sa), family(p, *sb)
        check(a, sa)
        check(a + b, sb_add(sa, sb))
        check(a - b, sb_add(sa, sb, -1))
        c = rand_coeff(rng)
        check(a.scale(c), sb_scale(sa, c))
        check(-a, sb_scale(sa, Fraction(-1)))
        (k0, c0), = list(sa[0].items())[:1]
        part = ({k0: -c0, (0, 0): c}, Fraction(0))  # cancels the first term of a
        check(a + family(p, *part), sb_add(sa, part))
        check(a.bracket(b), sb_bracket(family, p, sa, sb))
        ma, mb = rand_pair(rng, family, central=False), rand_pair(rng, family, central=False)
        check(family(p, *ma).mul(family(p, *mb)), sb_mul(family, p, ma, mb))
        check(family(p, *ma).bracket(family(p, *mb)), sb_bracket(family, p, ma, mb))


@pytest.mark.parametrize("family", [QOp, HOp], ids=["QOp", "HOp"])
@pytest.mark.parametrize("p", PARAMS, ids=str)
def test_cancellations_leave_the_zero_operator(family, p):
    rng = random.Random(7)
    for _ in range(6):
        sa, sb = rand_pair(rng, family), rand_pair(rng, family)
        a, b = family(p, *sa), family(p, *sb)
        for z in (a - a, a + (-a), a.scale(0), a.bracket(a), (a + b) - b - a,
                  a.bracket(b) + b.bracket(a)):
            check(z, ({}, Fraction(0)))
            assert z.is_zero() and z.den == 1 and z.nums == {} and z.cnum == 0
        ab = family(p, *rand_pair(rng, family, central=False))
        check(ab.mul(ab) - ab.mul(ab), ({}, Fraction(0)))


@pytest.mark.parametrize("q", [2, -3, -1, 7], ids=str)
def test_an_int_q_matches_the_schoolbook(q):
    """An int q, positive or negative, reads 1/q from its own int pair,
    with the sign on the numerator."""
    pw = QOp(q)._context()
    assert pw(-1) == (1 if q > 0 else -1, abs(q)) and pw(-2) == (1, q * q)
    rng = random.Random(f"int {q}")
    for _ in range(8):
        sa, sb = rand_pair(rng, QOp), rand_pair(rng, QOp)
        check(QOp(q, *sa).bracket(QOp(q, *sb)), sb_bracket(QOp, Fraction(q), sa, sb))
        ma, mb = rand_pair(rng, QOp, central=False), rand_pair(rng, QOp, central=False)
        check(QOp(q, *ma).mul(QOp(q, *mb)), sb_mul(QOp, Fraction(q), ma, mb))


@pytest.mark.parametrize("q", [0, Fraction(0)], ids=repr)
def test_q_zero_has_no_inverse(q):
    a, b = QOp.monomial(q, 1, 1), QOp.monomial(q, 0, -1)
    for op in (a.mul, a.bracket):
        with pytest.raises(ZeroDivisionError):
            op(b)
