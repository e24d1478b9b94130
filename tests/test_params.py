"""Genericity certification of both parameter families against the two
per-family loops it replaced, copied here as the reference."""

import random
from fractions import Fraction

import pytest

from toryang.horizontal import horizontal_params
from toryang.params import GenericityError, ToroidalParams, YangianParams, series_yangian


def pairs_upto(G):
    for a in range(-G, G + 1):
        for b in range(-G + abs(a), G - abs(a) + 1):
            if a or b:
                yield a, b


def ref_certify_toroidal(p):
    for a, b in pairs_upto(p.G):
        if p.q1 ** a * p.q2 ** b == 1:
            raise GenericityError(f"q1^{a} * q2^{b} = 1")
    for i in range(len(p.chis)):
        for j in range(len(p.chis)):
            if i == j:
                continue
            ratio = p.chis[i] / p.chis[j]
            for a, b in pairs_upto(p.G):
                if ratio * p.q1 ** a * p.q2 ** b == 1:
                    raise GenericityError(f"chi_{i+1}/chi_{j+1} * q1^{a} * q2^{b} = 1")
            if ratio == 1:
                raise GenericityError(f"chi_{i+1} = chi_{j+1}")
    return True


def ref_certify_yangian(p):
    for a, b in pairs_upto(p.G):
        if a * p.h1 + b * p.h2 == 0:
            raise GenericityError(f"{a}*h1 + {b}*h2 = 0")
    for i in range(len(p.xs)):
        for j in range(len(p.xs)):
            if i == j:
                continue
            d = p.xs[i] - p.xs[j]
            for a, b in pairs_upto(p.G):
                if a * p.h1 + b * p.h2 + d == 0:
                    raise GenericityError(f"{a}*h1 + {b}*h2 + x_{i+1} - x_{j+1} = 0")
            if d == 0:
                raise GenericityError(f"x_{i+1} = x_{j+1}")
    return True


def outcome(certify, p):
    """True, or the exception's type and message.  A zero toroidal framing
    is not a unit, and both loops end in a ZeroDivisionError there.  Its
    text is `Fraction`'s reduced dividend, chi_i/0 in the reference and
    1/0 in the shared loop ('Fraction(-1, 0)' against 'Fraction(1, 0)' for
    a negative chi_i), so only its type is compared."""
    try:
        return certify(p)
    except GenericityError as exc:
        return type(exc).__name__, str(exc)
    except ZeroDivisionError as exc:
        return type(exc).__name__


F = Fraction
# (q1, q2): generic, q2 = 1, q1 q2 = 1, and q1^3 q2^2 = 1 (|a| + |b| = 5)
T_POINTS = [(F(2), F(3)), (F(3), F(1)), (F(2), F(1, 2)), (F(4), F(1, 8))]
# (h1, h2): generic below 14, h2 = 0, h1 + h2 = 0, and 3 h1 + 2 h2 = 0
Y_POINTS = [(F(13), F(1)), (F(5), F(0)), (F(3), F(-3)), (F(2), F(-3))]
# lone, cross (a ratio q1^a q2^b with |a| + |b| = 1, 2, 3), equal and zero
# framings, as exponents (a, b) of the point's own weights on a base framing
# (None: the framing 0); the empty tuple is the pack without framings
SHAPES = [
    (), ((0, 0),), (None,),
    ((0, 0), (1, 0)), ((0, 0), (0, -1)), ((0, 0), (1, 1)), ((0, 0), (-2, 1)),
    ((0, 0), (0, 0)), ((0, 0), (3, 0), (0, 0)), ((0, 0), (5, 5), (1, 0)),
    (None, (0, 0)), ((0, 0), None), ((0, 0), (1, 0), None), (None, None),
]


def toroidal_pack(point, shape, base, G):
    q1, q2 = point
    chis = [F(0) if e is None else base * q1 ** e[0] * q2 ** e[1] for e in shape]
    return ToroidalParams(q1, q2, chis, G=G, certify=False)


def yangian_pack(point, shape, base, G):
    h1, h2 = point
    xs = [F(0) if e is None else base + e[0] * h1 + e[1] * h2 for e in shape]
    return YangianParams(h1, h2, xs, G=G, certify=False)


FAMILIES = {
    "toroidal": (toroidal_pack, T_POINTS, ref_certify_toroidal),
    "yangian": (yangian_pack, Y_POINTS, ref_certify_yangian),
}


def random_pack(rng, family, G):
    """A pack whose framings are small rationals or a small weight apart."""
    build, points, _ = FAMILIES[family]
    point = rng.choice(points + [(F(rng.randint(2, 9), rng.randint(1, 5)),
                                  F(rng.randint(-9, 9) or 1, rng.randint(1, 5)))])
    shape = [None if rng.random() < 0.1 else (rng.randint(-2, 2), rng.randint(-2, 2))
             for _ in range(rng.randint(0, 3))]
    return build(point, shape, F(rng.randint(1, 9), rng.randint(1, 9)), G)


def kind(result):
    if result is True:
        return "pass"
    if result == "ZeroDivisionError":
        return "zero"
    msg = result[1]
    if "q1" not in msg and "h1" not in msg:
        return "equal"
    return "framing" if "chi_" in msg or "x_" in msg else "unit"


@pytest.mark.parametrize("G", [1, 2, 3, 12])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_certify_matches_the_per_family_loops(family, G):
    build, points, reference = FAMILIES[family]
    packs = [build(point, shape, base, G) for point in points for shape in SHAPES
             for base in (F(5), F(-2, 7))]
    rng = random.Random(f"certify/{family}/{G}")
    packs += [random_pack(rng, family, G) for _ in range(60)]
    kinds = set()
    for p in packs:
        want = outcome(reference, p)
        assert outcome(type(p).certify, p) == want, (p.__dict__, want)
        kinds.add(kind(want))
    # every branch is reached, and a zero toroidal framing
    assert kinds >= {"pass", "unit", "framing", "equal"}, kinds
    assert ("zero" in kinds) == (family == "toroidal")


def test_packs_from_python_ints_stay_exact():
    # both packs kept ints as given, so q3, frame, the normalizations and
    # the fixed-point coefficients built from them were floats
    from toryang.toroidal import KTheoryFixedPointModule, VectorModule
    from toryang.yangian import CohomologyFixedPointModule

    tp = ToroidalParams(2, 3, (5, 7))
    yp = YangianParams(13, 1, (0, 1000))
    hp = horizontal_params(2, 3)
    values = [hp.rho, hp.q1, hp.q2, hp.q3,
              tp.q3, tp.frame(1), tp.lower_norm, tp.fixed_raise_norm,
              tp.mono(-1, 0, tp.frame(1)), yp.lower_norm, yp.fixed_raise_norm,
              yp.fixed_lower_norm(yp.frame(1), 2), yp.frame(2)]
    for module in (KTheoryFixedPointModule(tp, 2), CohomologyFixedPointModule(yp, 2),
                   VectorModule(yp, F(1, 5))):
        for level in range(3):
            for label in module.basis(level):
                for _, coeff, point in module.e_transitions(label) + module.f_transitions(label):
                    values += [coeff, point]
    assert len(values) > 13
    assert all(type(v) is F for v in values), {type(v) for v in values}


@pytest.mark.parametrize("make", [
    lambda: ToroidalParams(0.5, 3.0, (5, 7)),
    lambda: ToroidalParams(2, 3, (5, 7.0)),
    lambda: YangianParams(13.0, 1, (F(1, 5),)),
    lambda: YangianParams(13, 1, (0.2,)),
    lambda: series_yangian(13, 1, (0.2,)),
    lambda: series_yangian(0.5, 1),
    lambda: horizontal_params(q1=0.3),
    lambda: horizontal_params(rho=2.0),
], ids=["toroidal-q", "toroidal-chi", "yangian-h", "yangian-x", "series-x", "series-h",
        "horizontal-q1", "horizontal-rho"])
def test_float_parameters_raise_type_error(make):
    # a float used to pass the packs as it was (ToroidalParams(0.5, 3.0, ...)
    # certified with q3 = 0.666...), and series_yangian and horizontal_params
    # turned it into the rational Fraction(x), 5404319552844595/18014398509481984
    # for 0.3
    with pytest.raises(TypeError, match="float"):
        make()

