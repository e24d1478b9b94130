"""The Fraction schoolbook's exact linear-combination kernel
(`reference.lincomb`), the mode tables behind `Module.t_eigenvalue` and
`psi_coeff`, the sweep's compiled rows, the sweep and the public actions
against that schoolbook (`reference.lincomb` over `reference.word_images`,
`reference.apply_word`) on every kind of object swept, and what
`check_relation` reports."""

import gc
import hashlib
import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toryang import horizontal, repbase, upsilon
from toryang.horizontal import (BosonStates, apply_vertex_mode, etilde_spec, ftilde_spec,
                                horizontal_params, tt3_check)
from toryang.params import default_toroidal, default_yangian, sample_generic_params
from toryang.repbase import (Module, ModuleWrapper, PerturbedModule, RELATION_BUILDERS_T,
                             RELATION_BUILDERS_Y, check_relation, is_vec_zero, memo_table)
from toryang.scalars import RatFn, TSeries, _int_reduce, _int_sum, _over, _rational
from toryang.toroidal import (DiagonalTwist, FockModule, KTheoryFixedPointModule,
                              VectorModule, fock_tensor)
from toryang.upsilon import UpsilonBridge
from toryang.yangian import CohomologyFixedPointModule

import reference
from reference import lincomb, word_images

P1 = default_toroidal(r=1)
P2 = default_toroidal(r=2)
Y2 = default_yangian(r=2)


def report_digest(module, relations, params, level_bound, window):
    """sha256 over each report's verdict, count and counterexample: the
    instance, level, label and the residual with its key order."""
    rows = []
    for rel in relations:
        rep = check_relation(module, rel, params, level_bound, window=window)
        ce = rep.counterexample
        rows.append([rel, rep.ok, rep.checked] if ce is None else
                    [rel, rep.ok, rep.checked, ce["instance"], ce["level"],
                     repr(ce["label"]), list(ce["residual"].items())])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# Recorded from the engine that summed each pair's residual by a chain of
# vadd(acc, vscale(image, coeff)), which drops a key that cancels partway and
# appends it again when it reappears.
COUNTEREXAMPLE_DIGESTS = {
    ("M1", "psi"):
        "5eafb3750de81ed3373d1aaded7c2da3026d931b1f19cddb6ca1ef3c50b2ca32",
    ("M1", "e"):
        "9447db308d84af0d990738fcb01d3bc90c563bee62aee76663cceb0626836dd0",
    ("M1", "f"):
        "9ac7c3b6cc12084f0b171b509be6049c75388105f7ae4b4c22aec0a1820bc9af",
    ("M2", "psi"):
        "40ff8d59ade29949766f260f2c73dc184738342c7efc598156cc8c983c993ccc",
    ("M2", "e"):
        "273eed71353f525ba8dbb63388f8d68306c4f64f12131153aa14c118fe32118d",
    ("M2", "f"):
        "96743f22cd8d557a0de408786fb1c6e83fca53669d844a21b2324030f3c26ccc",
    ("V2", "psi"):
        "b654e800dee5a9504aca0eb5adc27755001e9e0f75324a2bae4c03f199484d9b",
    ("V2", "e"):
        "e635cf888eeee278d7e38cb15516714f81eaeb0fdaf304d13e79f7041cca8e6f",
    ("V2", "f"):
        "e902b68c76c58984029fea5d90c00cf60fe55878f36dce39fe714f50efae229c",
}

SWEEPS = {
    "M1": (lambda: KTheoryFixedPointModule(P1, 1), P1, RELATION_BUILDERS_T),
    "M2": (lambda: KTheoryFixedPointModule(P2, 2), P2, RELATION_BUILDERS_T),
    "V2": (lambda: CohomologyFixedPointModule(Y2, 2), Y2, RELATION_BUILDERS_Y),
}


@pytest.mark.parametrize("name,kind", sorted(COUNTEREXAMPLE_DIGESTS))
def test_counterexample_reports_are_pinned(name, kind):
    make, params, relations = SWEEPS[name]
    module = PerturbedModule(make(), kind)
    got = report_digest(module, relations, params, 2, 2)
    assert got == COUNTEREXAMPLE_DIGESTS[name, kind]



def instances_digest(build, relations, params):
    """sha256 over every instance of the relations at windows 0-3: its id,
    each term's coefficient type and value with its word, and False, where
    the digest once recorded whether the instance had a right-hand side
    (none has one)."""
    rows = [(window, rel, inst_id,
             [(type(c).__name__, str(c), [tuple(letter) for letter in word])
              for c, word in terms], False)
            for window in range(4) for rel in relations
            for inst_id, terms in build(rel, window, params)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# The Y digests were recorded before the additive kernel relations Y1/Y2
# and Y4/Y5 were built through one helper; the T digests when T3's
# right-hand side became its psi+- words (`test_t3_terms_are_pinned`).
INSTANCE_DIGESTS = {
    ("T", "default"):
        "1c0ad17cf4235cd7c12fa0660983d90fe06f86fb58d36d0534cfef5d022b89da",
    ("T", "seed7"):
        "84f0802d84ddb5099f433f2d75a34c3633dc43493557fa3681831d8e8e274d5d",
    ("Y", "default"):
        "f2089edd2fa95ba61f602b2fed0c80e166f017032ed9d97448e42b93bea74387",
    ("Y", "seed7"):
        "10ceca9ef1a423737149e1c6e5aa31302b66d0b4fe8a898bdb55ec259ce382d5",
}


@pytest.mark.parametrize("family,point", sorted(INSTANCE_DIGESTS))
def test_relation_instances_are_pinned(family, point):
    if family == "T":
        build, relations, flavor = repbase.t_relation_instances, RELATION_BUILDERS_T, "toroidal"
        default = default_toroidal()
    else:
        build, relations, flavor = repbase.y_relation_instances, RELATION_BUILDERS_Y, "yangian"
        default = default_yangian()
    params = default if point == "default" else sample_generic_params(7, flavor)
    assert instances_digest(build, relations, params) == INSTANCE_DIGESTS[family, point]


@pytest.mark.parametrize("point,c", [("default", Fraction(3, 5)),
                                     ("seed7", Fraction(616, 405)), ("bridge", 1)])
def test_t3_terms_are_pinned(point, c, monkeypatch):
    """T3[i, j] is [e_i, f_j] - c psi+_(i+j) + c psi-_(-(i+j)) at window 1,
    the diagonal right-hand side as two words: c = 1/beta_1 on a module at
    the default and the seed-7 point, and c = 1 in the bridge's `audit_t3`,
    whose psi+- letters carry the 1/(1 - q3)."""
    W = (-1, 0, 1)
    if point == "bridge":
        swept = []
        monkeypatch.setattr(upsilon, "RelationSweep",
                            lambda module, instances, *args: swept.extend(instances) or [])
        assert UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=8).audit_t3(0, 1, 4) == []
        got = [(f"T3[{i},{j}]", terms) for (i, j), terms in swept]
    else:
        params = default_toroidal() if point == "default" else \
            sample_generic_params(7, "toroidal")
        assert 1 / params.beta(1) == c
        got = repbase.t_relation_instances("T3", 1, params)
    assert got == [(f"T3[{i},{j}]", [(1, [("e", i), ("f", j)]), (-1, [("f", j), ("e", i)]),
                                     (-c, [("psi+", i + j)]), (c, [("psi-", -(i + j))])])
                   for i in W for j in W]


# -- the kernel against a schoolbook sum of products -----------------------

def schoolbook(triples):
    """{label: a1*b1 + a2*b2 + ...} in first-seen label order, zeros dropped."""
    out = {}
    for label, a, b in triples:
        out[label] = out[label] + a * b if label in out else a * b
    return {label: c for label, c in out.items() if c}


def same_vector(got, want, by_type=True):
    """got equals want label by label, in order; a series by valuation,
    truncation and coefficients.  by_type also asks for the same types."""
    assert list(got) == list(want)
    for label, c in want.items():
        g = got[label]
        assert type(g) is type(c) or not by_type and TSeries not in (type(g), type(c))
        if type(c) is TSeries:
            assert (g.val, g.trunc, g.coeffs) == (c.val, c.trunc, c.coeffs)
        else:
            assert g == c


def int_kernel(triples):
    """The exact-sum kernel's route: each a * b a part of `_int_sum`, a's
    numerator over both denominators times b's numerator, the sum reduced by
    `_int_reduce` and read as values (`_over`)."""
    parts = [(na, da * db, ((label, nb),)) for label, a, b in triples
             for (na, da), (nb, db) in ((_rational(a), _rational(b)),)]
    den, nums = _int_sum(parts)
    nums, den = _int_reduce(nums, den)
    return {label: _over(n, den) for label, n in nums.items()}


ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 35]))
rationals = st.one_of(ints, fractions)
labels = st.sampled_from("abcde")
series = st.builds(lambda val, cs, extra: TSeries(val, cs, val + len(cs) + extra),
                   st.integers(-2, 2), st.lists(fractions, max_size=4), st.integers(0, 2))


@st.composite
def rational_triples(draw):
    triples = draw(st.lists(st.tuples(labels, rationals, rationals), max_size=14))
    # cancel some of them exactly, anywhere in the list
    for label, a, b in draw(st.lists(st.sampled_from(triples), max_size=4)) if triples else ():
        triples.insert(draw(st.integers(0, len(triples))), (label, -a, b))
    return triples


@settings(max_examples=300, deadline=None)
@given(rational_triples())
def test_kernel_matches_schoolbook_on_rationals(triples):
    same_vector(lincomb(triples), schoolbook(triples))
    same_vector(lincomb(iter(triples)), schoolbook(triples))
    same_vector(int_kernel(triples), schoolbook(triples), by_type=False)


@settings(max_examples=150, deadline=None)
@given(rational_triples(), st.lists(st.tuples(labels, series, rationals), min_size=1, max_size=4),
       st.data())
def test_kernel_falls_back_on_series(triples, with_series, data):
    for label, s, c in with_series:
        at = data.draw(st.integers(0, len(triples)))
        triple = (label, s, c) if data.draw(st.booleans()) else (label, c, s)
        triples.insert(at, triple)
    same_vector(lincomb(triples), schoolbook(triples))
    same_vector(int_kernel(triples), schoolbook(triples), by_type=False)


def test_kernel_cases():
    h = Fraction(1, 2)
    zero = TSeries(0, [], 4)
    cases = [
        # first-insertion order survives a label that cancels and comes back
        ([("b", 1, h), ("a", 3, 1), ("b", -h, 1), ("c", 2, 2), ("b", 3, h)],
         {"b": Fraction(3, 2), "a": 3, "c": 4}),
        # int factors only give an int; one Fraction factor makes the label's
        # sum a Fraction
        ([("a", 2, 3), ("b", 2, Fraction(3))], {"a": 6, "b": Fraction(6)}),
        # unlike denominators over their lcm, reduced once at the end
        ([("a", Fraction(1, 6), 1), ("a", Fraction(1, 4), 1),
          ("a", Fraction(1, 12), Fraction(-5))], {}),
        ([("a", Fraction(1, 6), 1), ("a", Fraction(1, 4), Fraction(2, 3))],
         {"a": Fraction(1, 3)}),
        ([], {}),
        ([("a", zero, 1), ("b", 1, 1)], {"b": 1}),
    ]
    for triples, want in cases:
        same_vector(lincomb(triples), want)
        same_vector(int_kernel(triples), want, by_type=False)


def test_the_reducer_cases():
    s = TSeries(1, [1, Fraction(1, 3)], 4)
    # a negative den comes out positive, its sign on the numerators
    assert _int_reduce({"a": 2, "b": -4}, -6) == ({"a": -1, "b": 2}, 3)
    assert _int_reduce({"a": 3}, -1) == ({"a": -3}, 1)
    # an all-zero dict, or an empty one, gives den 1
    assert _int_reduce({"a": 0, "b": 0}, 6) == ({}, 1)
    assert _int_reduce({}, -4) == ({}, 1)
    # a series numerator has no gcd: its dict keeps its den
    nums, den = _int_reduce({"a": 2, "b": s, "c": 0}, 4)
    assert (list(nums), nums["a"], nums["b"] is s, den) == (["a", "b"], 2, True, 4)
    # the dict given is not modified
    given = {"a": 0, "b": 4, "c": 6}
    assert _int_reduce(given, 10) == ({"b": 2, "c": 3}, 5)
    assert given == {"a": 0, "b": 4, "c": 6}
    # the sum keeps zeros and scales each part to the lcm of the d's
    assert _int_sum([]) == (1, {})
    assert _int_sum([(1, 2, [("a", 1), ("b", 3)]), (-3, 6, [("b", 1), ("c", 0)])]) == \
        (6, {"a": 3, "b": 6, "c": 0})


# -- the mode tables behind t and psi ----------------------------------------

@pytest.fixture
def log_calls(monkeypatch):
    """One entry per mode table built (`repbase.RatFnModes`)."""
    calls = []
    inner = repbase.RatFnModes

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(repbase, "RatFnModes", counted)
    return calls


def test_t_eigenvalue_is_computed_once(log_calls):
    """One mode table per (label, sign), read by every t and psi mode of
    that sign."""
    M = KTheoryFixedPointModule(P2, 2)
    label = M.basis(1)[0]
    first = M.t_eigenvalue(label, 2)
    assert len(log_calls) == 1
    assert M.t_eigenvalue(label, 2) == first
    assert len(log_calls) == 1
    M.t_eigenvalue(label, 3)
    M.psi_coeff(label, +1, 5)
    assert len(log_calls) == 1
    M.t_eigenvalue(label, -2)
    M.t_eigenvalue(M.basis(1)[1], 2)
    assert len(log_calls) == 3
    V = CohomologyFixedPointModule(Y2, 2)
    V.psi_coeff(label, +1, 5)
    V.psi_y_eigenvalue(label, 1)
    assert len(log_calls) == 4


def test_bridge_kcoeffs_read_the_module_table(log_calls):
    """The bridge's log psi modes come from its module's kept mode table:
    the first read builds the label's table in `bridge.module`'s
    `psi_modes` memo, and a second read builds none."""
    br = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=10)
    label = br.module.basis(2)[0]
    ks = br.kcoeffs(label)
    assert len(log_calls) == 1 and len(ks) == 10
    modes = memo_table(br.module, Module.psi_modes.__qualname__)[label, +1]
    assert len(modes.sums) == 10
    del br.__dict__[UpsilonBridge.kcoeffs.__qualname__]
    assert [repr(k) for k in br.kcoeffs(label)] == [repr(k) for k in ks]
    assert len(log_calls) == 1 and br.module.psi_modes(label, +1) is modes


class OtherLabelPsi(ModuleWrapper):
    """The base module with the diagonal data of another label."""

    def __init__(self, base, source):
        super().__init__(base)
        self.source = source

    def _psi_rat(self, label):
        return self.base.psi_rat(self.source)


def test_wrappers_keep_their_own_memo():
    M = KTheoryFixedPointModule(P2, 2)
    a, b = M.basis(1)[:2]
    warm = {m: M.t_eigenvalue(a, m) for m in (1, -1, 2)}
    W = OtherLabelPsi(M, b)
    for m in warm:
        assert W.t_eigenvalue(a, m) == M.t_eigenvalue(b, m) != warm[m]
    assert M.t_eigenvalue(a, 1) == warm[1]
    # the T3 control still trips after the base's memos are warm
    for rel in ("T3", "T4t"):
        check_relation(M, rel, P2, 1, window=1)
    Pp = PerturbedModule(M, "psi")
    name = Module.psi_modes.__qualname__
    assert memo_table(Pp, name) is not memo_table(M, name)
    assert not check_relation(Pp, "T3", P2, 1, window=1).ok
    # every memoized method of a wrapper over a warm base serves the
    # wrapper's own value: that of the same wrapper over a cold base
    calls = [(method, args) for label in M.basis(1) for method, args in (
        (Module.e_transitions, (label,)), (Module.f_transitions, (label,)),
        (Module.psi_rat, (label,)), (Module.mode_row, ("e", label, 2)),
        (Module.mode_row, ("f", label, -1)), (Module.psi_series, (label, +1, 4)),
        (Module.psi_series, (label, -1, 3)), (Module.psi_coeff, (label, +1, 4)),
        (Module.psi_coeff, (label, -1, 3)), (Module.t_eigenvalue, (label, 2)),
        (Module.t_eigenvalue, (label, -1)))]
    for method, args in calls:
        method(M, *args)
    wrappers = [lambda base, kind=kind: PerturbedModule(base, kind)
                for kind in PerturbedModule.KINDS]
    wrappers.append(lambda base: DiagonalTwist(base, Fraction(2), Fraction(3), Fraction(5)))
    for wrap in wrappers:
        W, cold = wrap(M), wrap(KTheoryFixedPointModule(P2, 2))
        assert all(method.__qualname__ not in vars(W) for method, _ in calls)
        differs = False
        for method, args in calls:
            got = repr(method(W, *args))
            assert got == repr(method(cold, *args))
            differs |= got != repr(method(M, *args))
        assert differs


# -- non-vacuous pairs -----------------------------------------------------

def test_nonvacuous_counts():
    M = KTheoryFixedPointModule(P2, 2)
    counts = {rel: check_relation(M, rel, P2, 1, window=3) for rel in ("T1", "T2", "T6", "T6t")}
    assert {rel: (rep.ok, rep.nonvacuous, rep.checked) for rel, rep in counts.items()} == {
        "T1": (True, 147, 147), "T2": (True, 0, 147),
        "T6": (True, 81, 162), "T6t": (True, 3, 6)}
    # f after f kills every label of level <= 1; level 2 is reached
    rep = check_relation(M, "T2", P2, 2, window=3)
    assert rep.ok and 0 < rep.nonvacuous < rep.checked


# -- sweep outcomes across the module zoo ------------------------------------

def outcome_digest(modules, relations, params, level_bound, window):
    """sha256 over every report of every module: the relation, verdict,
    `checked` and `nonvacuous`, and the counterexample's instance, level,
    label and residual items (the values' reprs, so an int and a Fraction
    differ) in key order."""
    rows = []
    for module in modules:
        for rel in relations:
            rep = check_relation(module, rel, params, level_bound, window=window)
            row = [rel, rep.ok, rep.checked, rep.nonvacuous]
            ce = rep.counterexample
            if ce is not None:
                row += [ce["instance"], ce["level"], repr(ce["label"]),
                        list(ce["residual"].items())]
            rows.append(row)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def zoo_point(point, family):
    if family == "T":
        return default_toroidal(2) if point == "default" else \
            sample_generic_params(7, "toroidal", r=2)
    return default_yangian(2) if point == "default" else \
        sample_generic_params(7, "yangian", r=2)


def zoo_modules(name, family, params):
    """The module `name` of the family, then (for the vector, Fock and
    fixed-point modules) its three `PerturbedModule` controls."""
    fixed_point = KTheoryFixedPointModule if family == "T" else CohomologyFixedPointModule
    make = {"vector": lambda: VectorModule(params, Fraction(1, 5)),
            "fock": lambda: FockModule(params, Fraction(1, 5)),
            "fixedpoint-r1": lambda: fixed_point(params, 1),
            "fixedpoint-r2": lambda: fixed_point(params, 2),
            "tensor": lambda: fock_tensor(params, 2),
            "twist": lambda: DiagonalTwist(fixed_point(params, 2), Fraction(2),
                                           Fraction(1, 2))}[name]
    kinds = () if name in ("tensor", "twist") else PerturbedModule.KINDS
    return [make()] + [PerturbedModule(make(), kind) for kind in kinds]


# Recorded from the engine that summed every letter and every residual with
# `lincomb` (levels <= 2, window 2).
SWEEP_OUTCOME_DIGESTS = {
    ("default", "T", "vector"):
        "b4659bcb3e3653a69ba7e311d85fc638fe15605c48652927a5239c51a011d86e",
    ("default", "T", "fock"):
        "33673f0d15eb9b08dfe2b7adb1889b5467b0628347ae9f9632ee03750f079086",
    ("default", "T", "fixedpoint-r1"):
        "690893c84b1f2d3cd4dbea7672c0b242c053ac0f9bd596d332e3ff5f82254e2f",
    ("default", "T", "fixedpoint-r2"):
        "63fe13167cdbb306e5e91d4d302bc5d4c83c96bcb3257f49a4d5e00456950a20",
    ("default", "T", "tensor"):
        "e87b3fef6c7721e12d98b9c653a847a10e46317e6f270a2c609419ac381ee886",
    ("default", "T", "twist"):
        "e87b3fef6c7721e12d98b9c653a847a10e46317e6f270a2c609419ac381ee886",
    ("default", "Y", "vector"):
        "ffbe263cde6f2ba9619c82be1e47b9ffdca7b9dd1949c06121dc96fe812ffd1a",
    ("default", "Y", "fock"):
        "106e49bbac4c8e6d1e5aa5e594ad1071b0389b01a22b17f5feea3aefd0e529a8",
    ("default", "Y", "fixedpoint-r1"):
        "2b2df40014c68b9d26c9cc6afef6e4618283a6a479de0a20351ea18d45b6f380",
    ("default", "Y", "fixedpoint-r2"):
        "2e2bd9aeac59ffbfe991f662f16110e4ca44c022f339fb05c3da547bf226c5fc",
    ("default", "Y", "tensor"):
        "ab78e7ee0e03026e9fcd49ed5704e1d819abda9f35e3981d50e78299cbee1320",
    ("default", "Y", "twist"):
        "ab78e7ee0e03026e9fcd49ed5704e1d819abda9f35e3981d50e78299cbee1320",
    ("seed7", "T", "vector"):
        "f53d4ed343627f9649aefa1a988361b5b37529368367fb3200a4cab88614753b",
    ("seed7", "T", "fock"):
        "012dd525610c5e28118f2fa239d3d391ac8719076cbbf1677f26a4d31cb0407a",
    ("seed7", "T", "fixedpoint-r1"):
        "a2a5663cb082decbc5929adec5dd0f9c196b51b7872adeb58a55ae21fc8de3d1",
    ("seed7", "T", "fixedpoint-r2"):
        "2a001fac211adde47243f2eaa3a64e606ff4be11fedda41e4ba912564db3e44f",
    ("seed7", "T", "tensor"):
        "e87b3fef6c7721e12d98b9c653a847a10e46317e6f270a2c609419ac381ee886",
    ("seed7", "T", "twist"):
        "e87b3fef6c7721e12d98b9c653a847a10e46317e6f270a2c609419ac381ee886",
    ("seed7", "Y", "vector"):
        "a700e087894834337d35608ae82eb2aa32b04e1aa9df4731341310ad255afc5b",
    ("seed7", "Y", "fock"):
        "2937a0664d8b378643cc6352a7ed60bab58f8977480a32368f3c42678952ae73",
    ("seed7", "Y", "fixedpoint-r1"):
        "a860ed55246acde47ba9c9d813cc4a3a1cb56d17afc4f25c10b58909429c7783",
    ("seed7", "Y", "fixedpoint-r2"):
        "c6e34a8b12696c681d858d506eeff46ab6783aed7d3b2e5ae899d19f09c9bbe2",
    ("seed7", "Y", "tensor"):
        "ab78e7ee0e03026e9fcd49ed5704e1d819abda9f35e3981d50e78299cbee1320",
    ("seed7", "Y", "twist"):
        "ab78e7ee0e03026e9fcd49ed5704e1d819abda9f35e3981d50e78299cbee1320",
}


@pytest.mark.parametrize("point,family,name", sorted(SWEEP_OUTCOME_DIGESTS))
def test_sweep_outcomes_are_pinned(point, family, name):
    params = zoo_point(point, family)
    relations = RELATION_BUILDERS_T if family == "T" else RELATION_BUILDERS_Y
    got = outcome_digest(zoo_modules(name, family, params), relations, params, 2, 2)
    assert got == SWEEP_OUTCOME_DIGESTS[point, family, name]


# -- the sweep's compiled rows -----------------------------------------------

def unit_image(step, letter, label):
    """The value of a diagonal letter on the label, read off the sweep's
    image of the basis vector."""
    img = step(letter, repbase._int_start(label))
    return Fraction(img[1][label], img[0]) if img else 0


def kept_row(module, letter, label):
    """The compiled row of a letter on the label, as a sweep keeps it in the
    module's own memo."""
    repbase._int_stepper(module)(letter, repbase._int_start(label))
    return memo_table(module, "_sweep_rows")[letter, label]


@pytest.mark.parametrize("family,make", [
    ("T", lambda: KTheoryFixedPointModule(P2, 2)),
    ("T", lambda: fock_tensor(P2, 2)),
    ("Y", lambda: CohomologyFixedPointModule(Y2, 2)),
    ("Y", lambda: VectorModule(Y2, Fraction(1, 5))),
])
def test_compiled_rows_match_their_hooks(family, make):
    M = make()
    step = repbase._int_stepper(M)
    for level in range(3):
        for label in M.basis(level):
            for kind in ("e", "f"):
                for mode in range(-2, 3):
                    den, entries = M.sweep_row((kind, mode), label)
                    row = M.mode_row(kind, label, mode)
                    assert [tgt for tgt, _ in entries] == [tgt for tgt, _ in row]
                    assert [Fraction(n, den) for _, n in entries] == [c for _, c in row]
                    assert all(type(c) is Fraction for _, c in row)
                    assert kept_row(M, (kind, mode), label) == (den, entries)
            for sign, gen in ((+1, "psi+"), (-1, "psi-")):
                for k in range(-1, 4):
                    den, entries = M.sweep_row((gen, k), label)
                    c = M.psi_coeff(label, sign, k)
                    assert [(tgt, Fraction(n, den)) for tgt, n in entries] == \
                        ([(label, c)] if c else [])
                    assert kept_row(M, (gen, k), label) == (den, entries)
            if family == "T":
                for m in (-2, -1, 1, 2):
                    assert unit_image(step, ("t", m), label) == M.t_eigenvalue(label, m)
            else:
                for j in range(3):
                    assert unit_image(step, ("psiy", j), label) == M.psi_y_eigenvalue(label, j)


def test_boson_rows_match_the_vertex_modes():
    params = horizontal_params()
    c = (1 - params.q3) * Fraction(1, 5)
    states = BosonStates(params, c)
    for kind, spec in (("e", etilde_spec(params, c)), ("f", ftilde_spec(params, c))):
        for degree in range(3):
            for mu in states.basis(degree):
                for k in range(-2, 3):
                    row = states.mode_row(kind, mu, k)
                    want = apply_vertex_mode(params, spec, k, {mu: Fraction(1)})
                    assert row == list(want.items())
                    assert all(type(c) is Fraction for _, c in row)
                    den, entries = states.sweep_row((kind, k), mu)
                    assert [(tgt, Fraction(n, den)) for tgt, n in entries] == row


def test_wrappers_keep_their_own_compiled_rows():
    M = KTheoryFixedPointModule(P2, 2)
    rows = [(letter, label) for level in range(3) for label in M.basis(level)
            for letter in (("e", 1), ("f", -1), ("psi+", 2), ("psi-", 1))]
    for letter, label in rows:
        kept_row(M, letter, label)
    for kind in PerturbedModule.KINDS:
        W = PerturbedModule(M, kind)
        cold = PerturbedModule(KTheoryFixedPointModule(P2, 2), kind)
        assert "_sweep_rows" not in vars(W)
        differs = False
        for letter, label in rows:
            got = kept_row(W, letter, label)
            assert got == kept_row(cold, letter, label)
            differs |= got != kept_row(M, letter, label)
        assert differs
        assert memo_table(W, "_sweep_rows") is not memo_table(M, "_sweep_rows")


class IntLadder(Module):
    """Labels 0, 1, 2, ... at their own level, with int rows: e raises j
    with coefficient j + 1, f lowers it with coefficient 2, both at support
    point 1, and psi = 1.  [e_0, f_0] is -2 on every label, not psi's 0."""

    def basis(self, level):
        return [level]

    def _e_transitions(self, j):
        return [(j + 1, j + 1, 1)]

    def _f_transitions(self, j):
        return [(j - 1, 2, 1)] if j else []

    def _psi_rat(self, j):
        return RatFn.from_factors(1, [], [])


class HalfLadder(IntLadder):
    """`IntLadder` with one Fraction row coefficient: e raises 0 with 1/2."""

    def _e_transitions(self, j):
        return [(j + 1, Fraction(1, 2) if j == 0 else j + 1, 1)]


def test_int_points_give_exact_rows_at_every_mode():
    assert IntLadder().mode_row("e", 0, -1) == [(1, 1)]
    for ladder in (IntLadder(), HalfLadder()):
        for kind in ("e", "f"):
            for label in range(3):
                for mode in range(-2, 3):
                    assert all(type(c) in (int, Fraction)
                               for _, c in ladder.mode_row(kind, label, mode))


def row_values(den, entries):
    """[(target, value)] of a compiled row, a series value as (val, trunc,
    coeffs)."""
    return [(tgt, value if type(value) is Fraction else (value.val, value.trunc, value.coeffs))
            for tgt, n in entries for value in (_over(n, den),)]


@pytest.mark.parametrize("make", [
    lambda: KTheoryFixedPointModule(P2, 2),
    lambda: PerturbedModule(KTheoryFixedPointModule(P2, 2), "e"),
    lambda: PerturbedModule(KTheoryFixedPointModule(P2, 2), "f"),
    lambda: CohomologyFixedPointModule(Y2, 2),
    lambda: VectorModule(P2, Fraction(1, 5)),
    lambda: fock_tensor(P2, 2),
    IntLadder, HalfLadder, lambda: SeriesLadder(),
], ids=["M2", "M2-e", "M2-f", "V2", "vector", "tensor", "int", "half", "series"])
def test_mode_free_rows_match_mode_row(make):
    """The sweep's e and f rows, built from each (kind, label)'s transition
    table at every mode, equal `mode_row`'s values at modes -4..4."""
    M = make()
    for label in [label for level in range(3) for label in M.basis(level)]:
        for kind in ("e", "f"):
            for mode in range(-4, 5):
                try:
                    want = [(tgt, c if type(c) is not TSeries else (c.val, c.trunc, c.coeffs))
                            for tgt, c in M.mode_row(kind, label, mode)]
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        M.sweep_row((kind, mode), label)
                    continue
                assert row_values(*M.sweep_row((kind, mode), label)) == want


def test_a_sweep_builds_each_transition_table_once(monkeypatch):
    """A window-3 sweep reads each (kind, label)'s transitions once, for its
    mode-free table, whatever the number of modes, and no `mode_row`.
    Across successive sweeps of one module each (letter, label) row, those
    of t and psiy included, is compiled once; a `PerturbedModule` over a
    warm base compiles its own."""
    counts = Counter()
    for kind in ("e", "f"):
        inner = getattr(Module, f"{kind}_transitions")

        def counted(self, label, kind=kind, inner=inner):
            counts[id(self), kind, label] += 1
            return inner(self, label)

        monkeypatch.setattr(Module, f"{kind}_transitions", counted)
    rows = Counter()
    inner_row = Module.sweep_row

    def counted_row(self, letter, label):
        rows[id(self), letter, label] += 1
        return inner_row(self, letter, label)

    monkeypatch.setattr(Module, "sweep_row", counted_row)
    M = KTheoryFixedPointModule(P2, 2)
    for rel in ("T1", "T2", "T3", "T4t", "T5t", "T6"):
        assert check_relation(M, rel, P2, 2, window=3).ok
    V = CohomologyFixedPointModule(Y2, 2)
    for rel in ("Y0", "Y3", "Y4"):
        assert check_relation(V, rel, Y2, 2, window=3).ok
    swept = {(id(module), kind, label) for module in (M, V) for kind in ("e", "f")
             for level in range(3) for label in module.basis(level)}
    assert swept <= set(counts) and set(counts.values()) == {1}
    assert Module.mode_row.__qualname__ not in vars(M)
    gens = {(owner, letter[0]) for owner, letter, _ in rows}
    assert {(id(M), "t"), (id(V), "psiy")} <= gens

    def compiled(module):
        return {(letter, label) for owner, letter, label in rows if owner == id(module)}

    Pp = PerturbedModule(M, "psi")
    cold = PerturbedModule(KTheoryFixedPointModule(P2, 2), "psi")
    for module in (Pp, cold):
        assert check_relation(module, "T4t", P2, 2, window=3).ok
    assert compiled(Pp) == compiled(cold) and compiled(Pp) <= compiled(M)
    assert {letter[0] for letter, _ in compiled(Pp)} == {"e", "t"}
    assert set(rows.values()) == {1}


@pytest.mark.parametrize("family", ["T", "Y"])
def test_reports_do_not_depend_on_the_sweep_order(family):
    """A module keeps its compiled rows from one sweep to the next, so every
    report, counterexample included, is that of a fresh module, whichever
    relations were swept before it: in the builders' order and in reverse,
    on fresh and warm modules, on the psi, e and f controls, and on a
    control over a warm base."""
    make, params, relations = SWEEPS["M2" if family == "T" else "V2"]

    def reports(module, order):
        rows = {rel: in_order(report_row(check_relation(module, rel, params, 1, window=2)))
                for rel in order}
        return [rows[rel] for rel in relations]

    for kind in (None,) + PerturbedModule.KINDS:
        def wrap(base, kind=kind):
            return base if kind is None else PerturbedModule(base, kind)

        want = [in_order(report_row(check_relation(wrap(make()), rel, params, 1, window=2)))
                for rel in relations]
        # the module passes every relation and each control trips one
        assert all(row[1] for row in want) == (kind is None)
        for order in (relations, relations[::-1]):
            module = wrap(make())
            assert reports(module, order) == want
            assert reports(module, order[::-1]) == want
        warm = make()
        reports(warm, relations)
        assert reports(wrap(warm), relations[::-1]) == want


@pytest.mark.parametrize("name", ["M2", "bridge", "bosons"])
def test_an_unknown_row_kind_raises(name):
    """Every `mode_row`, and a `Module`'s mode-free table, reads the 'e' and
    'f' kinds only: any other kind raises ValueError naming it."""
    if name == "M2":
        rows = KTheoryFixedPointModule(P2, 2)
    elif name == "bridge":
        rows = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=6)
    else:
        params = horizontal_params()
        rows = BosonStates(params, (1 - params.q3) * Fraction(1, 5))
    label = rows.basis(1)[0]
    reads = [lambda kind: rows.mode_row(kind, label, 1)]
    if name != "bosons":
        reads.append(lambda kind: rows._mode_table(kind, label))
    for read in reads:
        for kind in ("psi+", "t", "E", None):
            with pytest.raises(ValueError, match=re.escape(f"unknown row kind {kind!r}")):
                read(kind)


def test_suffix_memos_are_freed_without_the_cycle_collector():
    """A sweep's per-label image memos are freed by reference counting:
    after one `check_relation` with the cycle collector off, a collection
    finds no memo among the unreachable objects."""
    M = KTheoryFixedPointModule(P2, 2)
    labels = {label for level in range(3) for label in M.basis(level)}

    def is_memo(obj):
        return type(obj) is dict and any(type(key) is tuple and len(key) == 2 and
                                         key[0] in labels and type(key[1]) is tuple
                                         for key in obj)

    gc.collect()
    gc.disable()
    try:
        assert check_relation(M, "T1", P2, 2, window=1).ok
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        memos = [obj for obj in gc.garbage if is_memo(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert memos == []


# -- the sweep against a schoolbook reference -------------------------------

def reference_pairs(module, instances, level_bound):
    """Every (instance_id, level, label, live, residual) of a sweep, in its
    order, summed the schoolbook way: one `lincomb` over the items of each
    term's `word_images` image."""
    for level in range(level_bound + 1):
        for label in module.basis(level):
            image = word_images(module)
            for inst_id, terms in instances:
                triples = [(k, c, coeff) for coeff, word in terms if coeff
                           for k, c in image(label, tuple(word)).items()]
                yield inst_id, level, label, bool(triples), lincomb(triples)


def report_row(rep):
    return (rep.relation, rep.ok, rep.checked, rep.nonvacuous, rep.counterexample)


def in_order(row):
    """A report row with its residual's items listed in key order."""
    ce = row[-1]
    return row if ce is None else row[:-1] + ({**ce, "residual": list(ce["residual"].items())},)


def reference_report(module, rel, params, level_bound, window, hmod=None):
    """`report_row(check_relation(...))`, from `reference_pairs`."""
    build = repbase.t_relation_instances if rel.startswith("T") else repbase.y_relation_instances
    checked = nonvacuous = 0
    for inst_id, level, label, live, resid in reference_pairs(
            module, build(rel, window, params), level_bound):
        checked += 1
        nonvacuous += live
        if not is_vec_zero(resid, hmod):
            return (rel, False, checked, nonvacuous,
                    {"instance": inst_id, "level": level, "label": label,
                     "residual": {str(k): repr(c) for k, c in resid.items()}})
    return (rel, True, checked, nonvacuous, None)


def test_int_rows_give_a_fraction_residual_on_both_paths():
    rep = check_relation(IntLadder(), "T3", P1, 1, window=0)
    assert report_row(rep) == ("T3", False, 1, 1, {"instance": "T3[0,0]", "level": 0,
                                                   "label": 0,
                                                   "residual": {"0": "Fraction(-2, 1)"}})
    for ladder in (IntLadder, HalfLadder):
        for rel in RELATION_BUILDERS_T:
            assert in_order(report_row(check_relation(ladder(), rel, P1, 2, window=0))) == \
                in_order(reference_report(ladder(), rel, P1, 2, window=0))


class SeriesLadder(HalfLadder):
    """`HalfLadder` with series raising coefficients above label 0: its rows
    mix Fractions and series, and a word image can hold a series over a
    denominator > 1."""

    def _e_transitions(self, j):
        if j == 0:
            return super()._e_transitions(j)
        return [(j + 1, TSeries(0, [j + 1, 1], 4), 1)]


def test_mixed_rows_match_the_reference():
    rows = [in_order(report_row(check_relation(SeriesLadder(), rel, P1, 2, window=0)))
            for rel in RELATION_BUILDERS_T]
    assert rows == [in_order(reference_report(SeriesLadder(), rel, P1, 2, window=0))
                    for rel in RELATION_BUILDERS_T]
    # T1's residual is a series with denominator 3
    assert rows[1][-1]["residual"] == [("2", "(10/3)*X^0 + (5/3)*X^1 + O(X^4)")]


@pytest.mark.parametrize("family", ["T", "Y"])
@pytest.mark.parametrize("name", ["vector", "fock", "fixedpoint-r1", "fixedpoint-r2",
                                  "tensor", "twist"])
def test_both_sweep_paths_give_the_same_reports(family, name):
    """Each zoo module and its controls give the reports of the schoolbook
    reference, the reprs of the residual values, in key order, included."""
    params = zoo_point("default", family)
    relations = RELATION_BUILDERS_T if family == "T" else RELATION_BUILDERS_Y
    for module in zoo_modules(name, family, params):
        for rel in relations:
            assert in_order(report_row(check_relation(module, rel, params, 1, window=1))) == \
                in_order(reference_report(module, rel, params, 1, window=1))


def series_module():
    br = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=10)
    return br.module, br.params


def test_series_module_reports_are_pinned():
    module, params = series_module()
    reps = [check_relation(module, rel, params, 1, window=1, hmod=6) for rel in ("Y1", "Y2")]
    assert [report_row(rep) for rep in reps] == [("Y1", True, 8, 8, None),
                                                 ("Y2", True, 8, 0, None)]


def test_series_module_matches_the_reference():
    module, params = series_module()
    rows = {}
    for kind in (None,) + PerturbedModule.KINDS:
        swept = module if kind is None else PerturbedModule(module, kind)
        for rel in ("Y1", "Y2"):
            row = in_order(report_row(check_relation(swept, rel, params, 3, window=1, hmod=6)))
            assert row == in_order(reference_report(swept, rel, params, 3, window=1, hmod=6))
            rows[kind, rel] = row[1]
    # the e and f controls each trip their own relation
    assert rows == {(None, "Y1"): True, (None, "Y2"): True, ("psi", "Y1"): True,
                    ("psi", "Y2"): True, ("e", "Y1"): False, ("e", "Y2"): True,
                    ("f", "Y1"): True, ("f", "Y2"): False}


def shown(fails):
    return [(inst_id, level, label, [(k, repr(c)) for k, c in resid.items()])
            for inst_id, level, label, resid in fails]


@pytest.fixture
def reference_checked(monkeypatch):
    """Make the sweeps of the bridge audits and of `tt3_check` check
    themselves, run to the end, against `reference_pairs`: the failures,
    the reprs of their residuals in key order, and the counts.  Returns the
    number of failures each sweep compared."""
    compared = []

    class ReferenceCheckedSweep(repbase.RelationSweep):
        def __init__(self, module, instances, level_bound, hmod=None):
            instances = list(instances)
            super().__init__(module, instances, level_bound, hmod)
            self.reference = (module, instances, level_bound)

        def __iter__(self):
            got = list(super().__iter__())
            pairs = list(reference_pairs(*self.reference))
            want = [(inst_id, level, label, resid) for inst_id, level, label, _, resid in pairs
                    if not is_vec_zero(resid, self.hmod)]
            assert shown(got) == shown(want)
            assert (self.checked, self.nonvacuous) == \
                (len(pairs), sum(live for _, _, _, live, _ in pairs))
            compared.append(len(got))
            return iter(got)

    monkeypatch.setattr(upsilon, "RelationSweep", ReferenceCheckedSweep)
    monkeypatch.setattr(horizontal, "RelationSweep", ReferenceCheckedSweep)
    return compared


@pytest.mark.parametrize("r,failing", [(1, 50), (2, 75)])
def test_bridge_audits_match_the_reference(reference_checked, r, failing):
    """The bridge's T3, T4t and cubic audits and their gpre control (the
    CLI's, at rank r) give the reference's series residuals."""
    for control in (False, True):
        br = UpsilonBridge(13, 1, (Fraction(1, 5), Fraction(1, 7))[:r], r, trunc=14)
        if control:
            br.gpre = br.gpre * Fraction(17, 16)
        fails = (br.audit_t3(1, 2, hmod=9)
                 + br.audit_t4_ladder(1, range(-2, 3), range(-1, 2), hmod=9)
                 + br.audit_cubic(1, hmod=9))
        assert len(fails) == (failing if control else 0)
    assert len(reference_checked) == 6 and sum(reference_checked) == failing


def test_boson_bracket_matches_the_reference(reference_checked, monkeypatch):
    params = horizontal_params()
    c = (1 - params.q3) * Fraction(1, 5)
    assert tt3_check(params, c, window=2, degree_cap=2) == []

    def scaled(params, c):
        spec = ftilde_spec(params, c)
        spec.c = spec.c * Fraction(17, 16)
        return spec

    monkeypatch.setattr(horizontal, "ftilde_spec", scaled)
    assert len(tt3_check(params, c, window=2, degree_cap=2)) == 70
    assert reference_checked == [0, 70]


# -- instances in normal form ---------------------------------------------------

# (distinct, by construction) of each relation at window 3.
NORMAL_FORM_COUNTS = {
    "T0": (28, 8), "T1": (28, 0), "T2": (28, 0), "T3": (49, 0), "T4t": (42, 0),
    "T5t": (42, 0), "T6": (20, 0), "T6t": (2, 0),
    "Y0": (6, 4), "Y1": (10, 0), "Y2": (10, 0), "Y3": (16, 0), "Y4": (28, 0),
    "Y5": (28, 0), "Y6": (8, 0),
}


def rank2(family):
    """(module, params, builder, relations) of the default rank-2 point."""
    if family == "T":
        return (KTheoryFixedPointModule(P2, 2), P2, repbase.t_relation_instances,
                RELATION_BUILDERS_T)
    return (CohomologyFixedPointModule(Y2, 2), Y2, repbase.y_relation_instances,
            RELATION_BUILDERS_Y)


def test_normal_form_counts():
    for family in ("T", "Y"):
        module, params, _, relations = rank2(family)
        for rel in relations:
            rep = check_relation(module, rel, params, 1, window=3)
            assert rep.ok and (rep.distinct, rep.by_construction) == NORMAL_FORM_COUNTS[rel]


def collected(terms):
    """{word: sum of its coefficients}, the zero sums dropped."""
    out = {}
    for c, word in terms:
        out[tuple(word)] = out.get(tuple(word), 0) + Fraction(c)
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("family", ["T", "Y"])
def test_normal_form_is_sound(family, window):
    """Each alias's terms are its ratio times those of its representative,
    which comes first, each formal tautology has no term, and no two
    instances swept are multiples of each other."""
    module, params, build, relations = rank2(family)
    for rel in relations:
        instances = build(rel, window, params)
        sweep = repbase.RelationSweep(module, instances, 0)
        terms = {inst_id: collected(t) for inst_id, t in instances}
        for (inst_id, t), (kept_id, kept, dead, _, _) in zip(instances, sweep.instances):
            assert kept_id == inst_id
            assert {w: Fraction(n, d) for n, d, w in kept} == terms[inst_id]
            assert set(dead) == {tuple(w) for c, w in t if c} - set(terms[inst_id])
        order = {inst_id: k for k, (inst_id, _) in enumerate(instances)}
        for alias, (rep_id, ratio) in sweep.aliases.items():
            assert ratio and terms[alias] == {w: ratio * c for w, c in terms[rep_id].items()}
            assert rep_id not in sweep.aliases and order[rep_id] < order[alias]
        swept = [inst_id for inst_id, kept, _, rep, _ in sweep.instances
                 if rep is None and kept]
        rest = [inst_id for inst_id in terms if inst_id not in sweep.aliases
                and inst_id not in swept]
        assert (len(swept), len(rest)) == (sweep.distinct, sweep.by_construction)
        assert all(not terms[inst_id] for inst_id in rest)
        assert len(swept) + len(rest) + len(sweep.aliases) == len(instances)
        # the terms of each instance swept, scaled to a leading coefficient 1
        shapes = [frozenset((w, c / t[min(t)]) for w, c in t.items())
                  for t in (terms[inst_id] for inst_id in swept)]
        assert len(set(shapes)) == len(shapes), rel


def test_only_rational_multiples_alias():
    """Equal words with coefficients that are not proportional, a diagonal
    word other than the representative's, or a series coefficient make no
    alias; a scaled copy reads the scaled residual, and an exact duplicate
    aliases with ratio 1."""
    e0, e1, f0 = [("e", 0)], [("e", 1)], [("f", 0)]

    def side(k):
        """T3's diagonal words at k = i + j, with the coefficient 1."""
        return [(-1, [("psi+", k)]), (1, [("psi-", -k)])]

    instances = [
        ("a", [(1, e0 + e1), (2, e1 + e0)]),
        ("b", [(Fraction(-3, 2), e0 + e1), (-3, e1 + e0)]),
        ("c", [(1, e0 + e1), (3, e1 + e0)]),
        ("d", [(1, e0 + e1), (1, e1), (-1, e0 + e1), (-1, e1)]),
        ("e", [(1, f0 + e0)] + side(0)),
        ("f", [(2, f0 + e0)] + side(0)),
        ("g", [(1, f0 + e0)] + side(1)),
        ("h", [(1, f0 + e0)] + side(0)),
        ("i", [(TSeries(0, [1], 3), e0 + e1), (2, e1 + e0)]),
    ]
    module = KTheoryFixedPointModule(P2, 2)
    sweep = repbase.RelationSweep(module, instances, 1)
    assert sweep.aliases == {"b": ("a", Fraction(-3, 2)), "h": ("e", 1)}
    assert (sweep.distinct, sweep.by_construction) == (6, 1)
    got = list(sweep)
    pairs = list(reference_pairs(module, instances, 1))
    assert shown(got) == shown([(inst_id, level, label, resid)
                                for inst_id, level, label, _, resid in pairs
                                if not is_vec_zero(resid)])
    assert {inst_id for inst_id, _, _, _ in got} >= {"a", "b", "e", "h"}
    assert (sweep.checked, sweep.nonvacuous) == \
        (len(pairs), sum(live for _, _, _, live, _ in pairs))


@pytest.mark.parametrize("family", ["T", "Y"])
def test_normal_form_reports_every_failing_pair(family):
    """On the psi, e and f controls the sweep yields every failing pair of
    the schoolbook sum over the uncollected terms, aliases included: the
    instance, level, label and residual, and the same counts."""
    module, params, build, relations = rank2(family)
    alias_failures = 0
    for kind in PerturbedModule.KINDS:
        control = PerturbedModule(module, kind)
        for rel in relations:
            instances = build(rel, 2, params)
            sweep = repbase.RelationSweep(control, instances, 2)
            got = list(sweep)
            pairs = list(reference_pairs(control, instances, 2))
            want = [(inst_id, level, label, resid)
                    for inst_id, level, label, _, resid in pairs if not is_vec_zero(resid)]
            assert shown(got) == shown(want), (kind, rel)
            assert (sweep.checked, sweep.nonvacuous) == \
                (len(pairs), sum(live for _, _, _, live, _ in pairs))
            alias_failures += sum(inst_id in sweep.aliases for inst_id, _, _, _ in got)
    assert alias_failures


def test_sweep_sums_each_distinct_residual_once(monkeypatch):
    """T6 sums 20 residuals per label, not 54, and T0 28, not 64: aliases
    and formal tautologies are never summed."""
    sums = []
    inner = repbase._int_residual

    def counted(*args):
        sums.append(args[2])
        return inner(*args)

    monkeypatch.setattr(repbase, "_int_residual", counted)
    module = KTheoryFixedPointModule(P2, 2)
    labels = len(module.basis(0)) + len(module.basis(1))
    assert labels == 3
    for rel, distinct in (("T6", 20), ("T0", 28)):
        sums.clear()
        assert check_relation(module, rel, P2, 1, window=3).ok
        assert len(sums) == distinct * labels, rel


# -- one path, no fallback ----------------------------------------------------

class FloatAbove(ModuleWrapper):
    """The base module with its raising coefficients above level 0 made
    floats: a sweep meets its first float partway."""

    def _e_transitions(self, label):
        ts = self.base.e_transitions(label)
        return ts if sum(map(sum, label)) == 0 else [(t, float(c), p) for t, c, p in ts]


def test_sweep_rejects_a_float_by_name():
    with pytest.raises(TypeError, match="not float"):
        repbase._rational(0.5)
    for rel in ("T1", "T3", "T4t", "T6t"):
        with pytest.raises(TypeError, match="not float"):
            check_relation(FloatAbove(KTheoryFixedPointModule(P2, 2)), rel, P2, 2, window=1)


@pytest.fixture
def lincomb_calls(monkeypatch):
    """(lincomb calls, compiled letters): one entry per `reference.lincomb`
    call, and the letter of every row a swept object's `sweep_row` compiles."""
    calls, letters = [], []
    inner_lincomb = reference.lincomb

    def counted(triples):
        calls.append(triples)
        return inner_lincomb(triples)

    monkeypatch.setattr(reference, "lincomb", counted)
    for cls in (Module, BosonStates):
        def compile_row(self, letter, label, inner=cls.sweep_row):
            letters.append(letter)
            return inner(self, letter, label)

        monkeypatch.setattr(cls, "sweep_row", compile_row)
    return calls, letters


def test_sweeps_build_no_image_or_residual_by_lincomb(lincomb_calls):
    """On every kind of object swept (rational modules of both families, a
    series-valued module, the series bridge, the boson states) a sweep
    builds no row, no word image and no residual by `lincomb`: every row,
    those of the diagonal letters included, is compiled from its hook."""
    calls, compiled = lincomb_calls
    M, V = KTheoryFixedPointModule(P2, 2), CohomologyFixedPointModule(Y2, 2)
    S, params = series_module()
    br = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=10)
    hp = horizontal_params()
    sweeps = [lambda rel=rel: check_relation(M, rel, P2, 1, window=2).ok
              for rel in RELATION_BUILDERS_T]
    sweeps += [lambda rel=rel: check_relation(V, rel, Y2, 1, window=2).ok
               for rel in RELATION_BUILDERS_Y]
    sweeps += [lambda rel=rel: check_relation(S, rel, params, 1, window=1, hmod=6).ok
               for rel in ("Y1", "Y2")]
    sweeps += [lambda: br.audit_t3(1, 1, hmod=6) == [],
               lambda: br.audit_t4_ladder(1, range(-1, 2), range(-1, 2), hmod=6) == [],
               lambda: br.audit_cubic(1, hmod=6) == [],
               lambda: tt3_check(hp, (1 - hp.q3) * Fraction(1, 5), window=1) == []]
    for sweep in sweeps:
        assert sweep()
        assert calls == []
    assert {letter[0] for letter in compiled} == {"e", "f", "psi+", "psi-", "psiy", "t"}


# -- the degree-three relations past their instantiated modes ----------------

def sym3_sweep(module, family, g, modes, level_bound):
    """The sweep of the g half of T6 (family 'T') or Y6 ('Y') at every mode
    triple in modes**3."""
    shifts = (+1, -1) if family == "T" else (0, +1)
    instances = [((i1, i2, i3), repbase._sym3_nested(g, i1, i2, i3, *shifts))
                 for i1 in modes for i2 in modes for i3 in modes]
    return repbase.RelationSweep(module, instances, level_bound)


@pytest.mark.parametrize("family,make,modes,nonvacuous", [
    ("T", lambda: KTheoryFixedPointModule(P2, 2), range(-2, 3), {"e": 1000, "f": 1250}),
    ("Y", lambda: CohomologyFixedPointModule(Y2, 2), range(0, 3), {"e": 216, "f": 270}),
], ids=["T6", "Y6"])
def test_degree_three_relations_hold_past_their_instantiated_modes(family, make, modes,
                                                                   nonvacuous):
    """`t_relation_instances` and `y_relation_instances` build T6 and Y6 only
    at mode triples in [-1, 1] and [0, 1] and leave the others to the
    mode-shifting relations (T4t/T5t, Y4/Y5): the wider triples hold as
    well, and the e and f controls each trip their own half."""
    for g, level_bound in (("e", 2), ("f", 3)):
        sweep = sym3_sweep(make(), family, g, modes, level_bound)
        assert list(sweep) == [] and sweep.nonvacuous == nonvacuous[g]
        control = sym3_sweep(PerturbedModule(make(), g), family, g, modes, level_bound)
        assert next(iter(control), None) is not None


# -- the public actions on the compiled rows ----------------------------------

def family_words(family, letters):
    """Every word of every instance of the family's relations at window 2
    whose letters all lie in `letters`, in first-seen order."""
    if family == "T":
        build, relations, params = repbase.t_relation_instances, RELATION_BUILDERS_T, P2
    else:
        build, relations, params = repbase.y_relation_instances, RELATION_BUILDERS_Y, Y2
    words = {tuple(word): None for rel in relations for _, terms in build(rel, 2, params)
             for _, word in terms}
    return [word for word in words if all(gen in letters for gen, _ in word)]


def boson_states():
    params = horizontal_params()
    return BosonStates(params, (1 - params.q3) * Fraction(1, 5))


PUBLIC_ACTIONS = {"e": lambda mod, k, v: mod.apply_e(k, v),
                  "f": lambda mod, k, v: mod.apply_f(k, v),
                  "psi+": lambda mod, k, v: mod.apply_psi(+1, k, v),
                  "psi-": lambda mod, k, v: mod.apply_psi(-1, k, v),
                  "psiy": lambda mod, k, v: mod.apply_psi_y(k, v),
                  "t": lambda mod, k, v: mod.apply_t(k, v)}

# (object, relation family, the letters it answers) of each kind swept
PUBLIC_CASES = {
    "M2": (lambda: KTheoryFixedPointModule(P2, 2), "T", ("e", "f", "psi+", "psi-", "t")),
    "V2": (lambda: CohomologyFixedPointModule(Y2, 2), "Y", ("e", "f", "psiy")),
    "series": (lambda: series_module()[0], "Y", ("e", "f", "psiy")),
    "bridge": (lambda: UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=10), "T",
               ("e", "f", "t")),
    "bosons": (boson_states, "T", ("e", "f", "psi+", "psi-")),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_CASES))
def test_public_actions_match_the_reference(name):
    """`repbase.apply_word`, which runs on the sweep's compiled rows, gives
    the schoolbook's vector (`reference.apply_word`) for every word of every
    instance at window 2 on every label of level <= 1: the keys in order,
    the value types and each series' (val, trunc, coeffs).  So does each
    `Module.apply_*` on one letter.  Cold, and again on the warm object."""
    make, family, letters = PUBLIC_CASES[name]
    obj = make()
    words = family_words(family, letters)
    labels = [label for level in range(2) for label in obj.basis(level)]
    nonzero = 0
    for _ in ("cold", "warm"):
        for label in labels:
            for word in words:
                got = repbase.apply_word(obj, word, repbase.vec(label))
                same_vector(got, reference.apply_word(obj, word, repbase.vec(label)))
                nonzero += bool(got)
            if isinstance(obj, Module):
                for gen, idx in {word[0]: None for word in words}:
                    v = {label: Fraction(2, 3)}
                    same_vector(PUBLIC_ACTIONS[gen](obj, idx, v),
                                reference.apply_word(obj, [(gen, idx)], v))
    assert {gen for word in words for gen, _ in word} == set(letters) and nonzero


def test_wrappers_have_the_base_t_rows():
    """Every package wrapper's psi is the base's times a constant in z, so
    its t is the base's: a `PerturbedModule` of each kind reads t from its
    base, and that equals t computed from its own psi (`Module.t_eigenvalue`),
    as it does for a `DiagonalTwist`, which computes it."""
    M = KTheoryFixedPointModule(P2, 2)
    wrappers = [PerturbedModule(M, kind) for kind in PerturbedModule.KINDS]
    wrappers.append(DiagonalTwist(M, Fraction(2), Fraction(3), Fraction(5)))
    for W in wrappers:
        for label in [label for level in range(3) for label in M.basis(level)]:
            for m in (-2, -1, 1, 2):
                assert W.sweep_row(("t", m), label) == M.sweep_row(("t", m), label)
                assert Module.t_eigenvalue(W, label, m) == M.t_eigenvalue(label, m)
