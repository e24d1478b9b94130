"""Guards of the one module code path shared by both families.

The vector, Fock and fixed-point formulas are written once over the family
weights (`params.mono`, `gap`, `frame`, `unit`).  The digests below were
recorded before the two families' formulas were merged: they pin every
transition (target, coefficient, support point, in order) and every ψ
factor list (constant, zeros, poles), with truncated series compared by
valuation, truncation and coefficients (the series points are the
bridge's, `UpsilonBridge` and `ch_solver`).
"""

import hashlib
from fractions import Fraction

import pytest

from toryang import partitions as pt
from toryang.params import (default_toroidal, default_yangian, series_toroidal,
                            series_yangian)
from toryang.repbase import PerturbedModule
from toryang.scalars import TSeries
from toryang.toroidal import (DiagonalTwist, FockModule, KTheoryFixedPointModule,
                              VectorModule, kappa_twist_constant, solve_factorization)
from toryang.yangian import AFockModule, AVectorModule, CohomologyFixedPointModule

TP = default_toroidal(r=2)
YP = default_yangian(r=2)
SHIFTS = (Fraction(1, 5), Fraction(1, 7))
SP = series_yangian(13, 1, SHIFTS, trunc=14)
ST = series_toroidal(13, 1, SHIFTS, trunc=14)
U = Fraction(1, 5)

CHAIN = list(range(-3, 4))
PARTITIONS = [lam for lv in range(4) for lam in pt.enum_partitions(lv)]


def rpartitions(r, top=3):
    return [m for lv in range(top + 1) for m in pt.enum_multipartitions(r, lv)]


CASES = {
    "VectorModule": (lambda: VectorModule(TP), CHAIN),
    "VectorModule-u": (lambda: VectorModule(TP, U), CHAIN),
    "AVectorModule": (lambda: AVectorModule(YP), CHAIN),
    "AVectorModule-u": (lambda: AVectorModule(YP, U), CHAIN),
    "FockModule": (lambda: FockModule(TP), PARTITIONS),
    "FockModule-u": (lambda: FockModule(TP, U), PARTITIONS),
    "AFockModule": (lambda: AFockModule(YP), PARTITIONS),
    "AFockModule-u": (lambda: AFockModule(YP, U), PARTITIONS),
    "KTheoryFixedPointModule-r1": (lambda: KTheoryFixedPointModule(TP, 1), rpartitions(1)),
    "KTheoryFixedPointModule-r2": (lambda: KTheoryFixedPointModule(TP, 2), rpartitions(2)),
    "KTheoryFixedPointModule-series-r1": (lambda: KTheoryFixedPointModule(ST, 1),
                                          rpartitions(1, 2)),
    "KTheoryFixedPointModule-series-r2": (lambda: KTheoryFixedPointModule(ST, 2),
                                          rpartitions(2, 2)),
    "CohomologyFixedPointModule-r1": (lambda: CohomologyFixedPointModule(YP, 1),
                                      rpartitions(1)),
    "CohomologyFixedPointModule-r2": (lambda: CohomologyFixedPointModule(YP, 2),
                                      rpartitions(2)),
    "CohomologyFixedPointModule-series-r1": (lambda: CohomologyFixedPointModule(SP, 1),
                                             rpartitions(1)),
    "CohomologyFixedPointModule-series-r2": (lambda: CohomologyFixedPointModule(SP, 2),
                                             rpartitions(2)),
}

RECORDED = {
    "AFockModule":
        "8075292f2184e45c87ad394b41b0782cc6fd27ce57cb1c4513348ee280f0b001",
    "AFockModule-u":
        "e74c308617c61112936dec9e0003c40ec8578a2cd3b3bd64c5257006bd1aaf6e",
    "AVectorModule":
        "5c6ac0f6e7a88a2ffca1d83044af11611b7cb433f979c020d290ed38788a1a59",
    "AVectorModule-u":
        "f9d82c74dadcaa29600762e541dabfc0031f4fdbfe04873e6b40b6c9751a2f8e",
    "CohomologyFixedPointModule-r1":
        "6f38bf252d80dc6e9544bbddad2801a2abb1be3f7149a8a18bf10867e6ce124f",
    "CohomologyFixedPointModule-r2":
        "bfd9a4179bce0993988dd17a3385b8b43fd49ca841753391d8345672d60058d9",
    "CohomologyFixedPointModule-series-r1":
        "f71cdcc25c3a74315a43f4f0e4b2762bb90b26064dde1b400043e1b2318513cc",
    "CohomologyFixedPointModule-series-r2":
        "5b3520bb8e25f3d8fa0f0617180f00e9bb948418fdebf25dff686fb2e4fadf33",
    "FockModule":
        "3acfd0a02c801350e25d09d14bdfac23be5950555b9df2db486d297e371d8bde",
    "FockModule-u":
        "c47be19ffc12182bd3301ea72f36e97ff3c858b28bee01bfeea3987a7db8ee83",
    "KTheoryFixedPointModule-r1":
        "a9cacad59f8da19bda5a9623f9e864006ce1f540a79c17fd1d80c57d06670091",
    "KTheoryFixedPointModule-r2":
        "31c8b1e87c503a345d5d450e3924cd88cb54819c392b453ad794a9b114799bca",
    "KTheoryFixedPointModule-series-r1":
        "91b8e772a3338a369c1f1cb12de45229331d09556193dd0d2b0e2c1191e5e017",
    "KTheoryFixedPointModule-series-r2":
        "c863b8eceef1e20c97e76147348afe21951d6ccbb7ddd2e3167fbf1f42db368f",
    "VectorModule":
        "4df8404ba682e1ee2a01c6315f80bd003f5f0e6078f204991524f12f9c568965",
    "VectorModule-u":
        "0fc2fc00e7ac4cf660b91cdb70ccbaa230babdd0937f936a3e9e6ef64f25324a",
}


def canon(x):
    """Nested tuples of strings; a series keeps its valuation and truncation."""
    if isinstance(x, TSeries):
        return ("series", x.val, x.trunc, tuple(canon(c) for c in x.coeffs))
    if isinstance(x, (tuple, list)):
        return tuple(canon(c) for c in x)
    return str(x)


def module_digest(module, labels):
    rows = []
    for label in labels:
        rows.append(("e", canon(label), canon(module.e_transitions(label))))
        rows.append(("f", canon(label), canon(module.f_transitions(label))))
        rows.append(("psi", canon(label), canon(module.psi_rat(label).factors)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transitions_and_psi_factors_match_recorded_digest(name):
    build, labels = CASES[name]
    assert module_digest(build(), labels) == RECORDED[name]


def factorization_case(family):
    """(fixed-point side, params, modes, directions) as each family's wrapper
    hands them to the shared solver."""
    if family == "toroidal":
        T = kappa_twist_constant(TP, 2)
        mk = DiagonalTwist(KTheoryFixedPointModule(TP, 2), f_scale=1 / T, psi_scale=1 / T)
        return mk, TP, (-1, 0, 1, 2), (+1, -1)
    return CohomologyFixedPointModule(YP, 2), YP, (0, 1, 2), (+1,)


@pytest.mark.parametrize("family", ["toroidal", "yangian"])
@pytest.mark.parametrize("kind,failure", [("f", "f-intertwine"), ("psi", "psi-series")])
def test_shared_solver_reports_a_perturbed_module(family, kind, failure):
    mk, params, modes, directions = factorization_case(family)
    _, fails = solve_factorization(mk, params, 2, 2, modes, 6, directions=directions)
    assert fails == []
    _, fails = solve_factorization(PerturbedModule(mk, kind), params, 2, 2, modes, 6,
                                   directions=directions)
    assert failure in {f[0] for f in fails}
