"""The per-label mode tables of the diagonal current (`Module.psi_modes`,
`scalars.RatFnModes`): psi's modes from the exponential recurrence on its
log modes, against the independent expansion (`psi_series`, by
`ratfn_expand`), and the log modes against `series_log` of that expansion
and against the power sums summed root by root, at both signs, on every
kind of module that carries psi."""

from fractions import Fraction

import pytest

from toryang.params import default_toroidal, default_yangian, series_yangian
from toryang.repbase import PerturbedModule
from toryang.scalars import (ExpansionPoleError, RatFn, RatFnModes, ScalarDomainError,
                             TSeries, ratfn_expand, series_log)
from toryang.toroidal import (DiagonalTwist, FockModule, KTheoryFixedPointModule,
                              VectorModule, fock_tensor)
from toryang.yangian import CohomologyFixedPointModule

P2, P3 = default_toroidal(r=2), default_toroidal(r=3)
Y2, Y3 = default_yangian(r=2), default_yangian(r=3)
ORDER = 12

MODULES = {
    "M2": lambda: KTheoryFixedPointModule(P2, 2),
    "V2": lambda: CohomologyFixedPointModule(Y2, 2),
    "M3": lambda: KTheoryFixedPointModule(P3, 3),
    "V3": lambda: CohomologyFixedPointModule(Y3, 3),
    "fock": lambda: FockModule(P2, Fraction(1, 5)),
    "vector": lambda: VectorModule(P2, Fraction(1, 5)),
    "tensor": lambda: fock_tensor(P2, 2),
    "twist": lambda: DiagonalTwist(KTheoryFixedPointModule(P2, 2), Fraction(2), Fraction(1, 2),
                                   Fraction(-5, 11)),
    "perturbed-psi": lambda: PerturbedModule(KTheoryFixedPointModule(P2, 2), "psi"),
}


def labels(module, levels=range(4)):
    return [label for level in levels for label in module.basis(level)]


def table(module, label, sign, ks):
    """psi_k read through `psi_coeff` in the order ks, then 0..max(ks) in
    order."""
    for k in ks:
        module.psi_coeff(label, sign, k)
    return [module.psi_coeff(label, sign, k) for k in range(max(ks) + 1)]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_psi_table_matches_the_expansion(name):
    """Every coefficient through z^-12 and z^12 on the labels of levels <= 3
    equals `psi_series`'s, whatever order the modes are read in."""
    module, fresh = MODULES[name](), MODULES[name]()
    for label in labels(module):
        for sign in (+1, -1):
            s = module.psi_series(label, sign, ORDER)
            want = [s.coeff(k) for k in range(ORDER)]
            assert table(module, label, sign, [ORDER - 1]) == want
            assert table(fresh, label, sign, [2, ORDER - 1, 5]) == want
            assert len(module.psi_modes(label, sign).sums) == ORDER - 1


def test_psi_table_extends_in_place():
    M = KTheoryFixedPointModule(P2, 2)
    label = M.basis(2)[1]
    modes = M.psi_modes(label, +1)
    nums, sums = modes.nums, modes.sums
    M.psi_coeff(label, +1, 2)
    assert len(nums) == 3 and len(sums) == 2
    M.psi_coeff(label, +1, 11)
    M.psi_coeff(label, +1, 5)
    M.t_eigenvalue(label, 3)
    assert M.psi_modes(label, +1) is modes
    assert modes.nums is nums and modes.sums is sums
    assert len(nums) == 12 and len(sums) == 11


def test_tables_without_log_modes_raise():
    """Unequal zero and pole counts (sign +1) and a zero at 0 (sign -1) are
    no module's psi: making their table raises."""
    cases = [(RatFn.from_factors(Fraction(3), (Fraction(2), Fraction(-1, 3)), (Fraction(5),)), +1,
              ScalarDomainError),
             (RatFn.from_factors(Fraction(3), (Fraction(0), Fraction(2)), (Fraction(5), 7)), -1,
              ExpansionPoleError)]
    for rf, sign, error in cases:
        with pytest.raises(error):
            RatFnModes(rf, sign)


def schoolbook_log_coeffs(rf, sign, n):
    """c_1..c_n as (p_k(poles) - p_k(zeros))/k, each power sum summed root
    by root, pw = pw * x, with the inverse roots for sign -1."""
    _, zeros, poles = rf.factors
    if sign == -1:
        zeros, poles = [1 / a for a in zeros], [1 / b for b in poles]
    out = []
    for k in range(1, n + 1):
        c = Fraction(0)
        for roots, sgn in ((poles, 1), (zeros, -1)):
            for x in roots:
                pw = x
                for _ in range(k - 1):
                    pw = pw * x
                c = c + sgn * pw
        out.append(c / k)
    return out


@pytest.mark.parametrize("name", ["M2", "V2", "tensor", "twist", "perturbed-psi"])
def test_log_table_matches_the_power_sums(name):
    """The log modes, read in any order, equal the power sums summed root
    by root, and the log modes of `series_log` of the expansion."""
    module = MODULES[name]()
    for label in labels(module, range(3)):
        for sign in (+1, -1):
            modes = module.psi_modes(label, sign)
            rf = module.psi_rat(label)
            want = schoolbook_log_coeffs(rf, sign, ORDER)
            assert [modes.log_coeff(n) for n in (3, ORDER, 1)] == [want[2], want[-1], want[0]]
            assert [modes.log_coeff(n) for n in range(1, ORDER + 1)] == want
            s = ratfn_expand(rf, sign, ORDER + 1)
            lg = series_log(s / s.coeff(0))
            assert want == [lg.coeff(n) for n in range(1, ORDER + 1)]


def shape(c):
    return c if type(c) is Fraction else (c.val, c.trunc, c.coeffs)


def test_log_table_on_series_roots():
    """Series roots, signed by zero or pole, give the series of the power
    sums summed root by root, truncation included: on hand-made roots (a
    zero series among them) and on the bridge's series-valued fixed-point
    module."""
    T = 10
    mono = [TSeries(1, [Fraction(c, 5)], T) for c in (13, -3, 1)]
    long0 = TSeries(0, [Fraction(1, j + 2) for j in range(T)], T)
    cases = [((mono[0], long0), (mono[1], mono[2]), (+1, -1)),
             ((Fraction(2), mono[0]), (mono[1], Fraction(-1, 3)), (+1, -1)),
             ((TSeries(5, [], 5), mono[0]), (mono[1], long0), (+1,))]
    module = CohomologyFixedPointModule(series_yangian(13, 1, (Fraction(1, 5),), trunc=T), 1)
    cases += [(module.psi_rat(label).factors[1], module.psi_rat(label).factors[2], (+1,))
              for label in labels(module, range(3))]
    for zeros, poles, signs in cases:
        rf = RatFn.from_factors(Fraction(3), zeros, poles)
        for sign in signs:
            modes = RatFnModes(rf, sign)
            want = schoolbook_log_coeffs(rf, sign, 6)
            assert [shape(modes.log_coeff(n)) for n in range(1, 7)] == [shape(c) for c in want]
