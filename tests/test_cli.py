import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toryang
from toryang.cli import FAMILIES, _build_params, parse_rational, run
from toryang.params import (GenericityError, YangianParams,
                            sample_generic_params)


def strip_timings(report):
    r = copy.deepcopy(report)
    r.pop("timings", None)
    return r


def child_env():
    """The environment with the imported package's source directory first on
    PYTHONPATH, so a child `python -m toryang` runs the same code as the
    tests, installed or not."""
    src = str(Path(toryang.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1.5")


def test_run_limits_suite_passes():
    code, report = run({"suite": "limits"})
    assert code == 0
    assert report["status"] == "pass"
    assert report["schema"] == 1
    assert all(c["status"] == "pass" for c in report["checks"])


def test_reports_are_deterministic():
    _, a = run({"suite": "limits"})
    _, b = run({"suite": "limits"})
    assert json.dumps(strip_timings(a), sort_keys=True) == \
        json.dumps(strip_timings(b), sort_keys=True)


def test_config_error_exit_code():
    code, report = run({"suite": "nope"})
    assert code == 2 and report["status"] == "config-error"
    code, report = run({"suite": "limits", "params": {"q1": "1/0"}})
    assert code == 2


def test_genericity_failure_exit_code():
    code, report = run({"suite": "limits", "params": {"q1": "2", "q2": "1/2"}})
    assert code == 3 and report["status"] == "genericity-error"


def test_resonance_above_the_certified_bound_is_a_genericity_error():
    # q1 q2 = 1 passes the certification at G = 1 and then made the relations
    # suite end in a ZeroDivisionError traceback (exit 1)
    code, report = run({"suite": "relations", "G": 1, "L": 1, "I": 1,
                        "params": {"q1": "2", "q2": "1/2"}})
    assert code == 3 and report["status"] == "genericity-error"
    assert "'relations'" in report["error"] and "--G 1" in report["error"]
    assert "checks" not in report


def test_vanishing_fixed_point_weight_is_a_genericity_error(tmp_path, capsys):
    # 2*h2 + x_1 - x_2 = 0 passes the certification at G = 1; a vanishing
    # tangent factor of a fixed-point weight used to end in a traceback
    # (exit 1)
    from toryang.cli import main

    path = tmp_path / "p.json"
    path.write_text(json.dumps({"h1": "1", "h2": "1", "xs": ["0", "2"]}))
    argv = ["whittaker", "--flavor", "H", "--G", "1", "--r", "2", "--L", "2"]
    assert main(argv + ["--params", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "genericity-error" and "checks" not in report
    assert "vanishing tangent factor" in report["error"]


# points that pass the certification at G = 1 and are resonant at order 2
# or 3, each with the relation it satisfies
RESONANT_AT_G1 = [
    {"q1": "2", "q2": "1/2"},  # q1 q2 = 1
    {"q1": "2", "q2": "4"},  # q1^2 / q2 = 1
    {"q1": "2", "q2": "3", "chis": ["5", "20"]},  # chi_1/chi_2 * q1^2 = 1
    {"q1": "-1", "q2": "3"},  # q1^2 = 1
    {"h1": "1", "h2": "1", "xs": ["0", "2"]},  # 2*h2 + x_1 - x_2 = 0
    {"h1": "1", "h2": "-1"},  # h1 + h2 = 0
    {"h1": "2", "h2": "1", "xs": ["0", "4"]},  # 2*h1 + x_1 - x_2 = 0
    {"h1": "1", "h2": "2"},  # 2*h1 - h2 = 0
]


@pytest.mark.parametrize("suite", ["relations", "whittaker", "shuffle", "limits"])
def test_resonant_points_end_in_a_report(tmp_path, capsys, suite):
    # whatever a resonance above the certified bound breaks, the run ends in
    # an exit code and a JSON report, never in a traceback
    from toryang.cli import main

    path = tmp_path / "p.json"
    for params in RESONANT_AT_G1:
        path.write_text(json.dumps(params))
        code = main([suite, "--G", "1", "--L", "2", "--I", "1", "--params", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2, 3) and report["config"]["params"] == params
        assert report["status"] == {0: "pass", 1: "fail", 2: "config-error",
                                    3: "genericity-error"}[code]


@pytest.mark.parametrize("G", [0, -1])
def test_genericity_bound_below_one_is_config_error(G):
    # at G = 0 nothing is certified: q1 = 1 used to end in a traceback
    code, report = run({"suite": "relations", "G": G, "L": 1, "I": 1,
                        "params": {"q1": "1", "q2": "3"}})
    assert code == 2 and report["status"] == "config-error"
    assert f"--G {G}" in report["error"]


def test_negative_control_fails_with_counterexample():
    cfg = {"suite": "relations", "flavor": "toroidal", "module": "fock",
           "L": 2, "I": 1, "perturb": "psi"}
    code, report = run(cfg)
    assert code == 1 and report["status"] == "fail"
    bad = [c for c in report["checks"] if c["status"] == "fail"]
    assert bad and any(c.get("details") for c in bad)


def test_unknown_perturb_kind_is_config_error():
    from toryang.cli import main

    assert main(["relations", "--module", "vector", "--L", "1", "--I", "1",
                 "--perturb", "bogus"]) == 2
    code, report = run({"suite": "relations", "module": "vector", "L": 1, "I": 1,
                        "perturb": "bogus"})
    assert code == 2 and report["status"] == "config-error"
    # the relation kinds are not the other suites' controls
    code, report = run({"suite": "upsilon", "perturb": "psi"})
    assert code == 2 and report["status"] == "config-error"
    code, report = run({"suite": "all", "perturb": "psi"})
    assert code == 2 and report["status"] == "config-error"


@pytest.mark.parametrize("suite,n", [("upsilon", 3), ("upsilon", 4), ("all", 4)])
def test_upsilon_nonpositive_residual_order_is_config_error(suite, n):
    # rejected before any suite runs, so "all" does not spend minutes first
    code, report = run({"suite": suite, "N": n})
    assert code == 2 and report["status"] == "config-error"
    assert "N" in report["error"] and "timings" not in report


@pytest.mark.parametrize("argv", [["relations", "--L", "-3"], ["relations", "--I", "-1"],
                                  ["limits", "--L", "-1"], ["horizontal", "--N", "-1"]])
def test_negative_scale_is_config_error(argv):
    # each of these used to pass with nothing checked
    from toryang.cli import main

    assert main(argv) == 2


def test_relation_without_instances_is_config_error():
    # window 0 leaves the t-ladder relations T4t/T5t no mode m != 0
    code, report = run({"suite": "relations", "module": "vector", "L": 0, "I": 0})
    assert code == 2 and report["status"] == "config-error"
    assert "T4t" in report["error"] and "checks" not in report


def test_module_construction_error_is_config_error():
    code, report = run({"suite": "relations", "module": "fixedpoint", "r": 4,
                        "L": 0, "I": 0})
    assert code == 2 and report["status"] == "config-error"
    assert "framing" in report["error"]



def test_limits_without_closed_form_pair_is_config_error():
    # the (k, l) sweep is empty at L 0, so even the negative control used to pass
    code, report = run({"suite": "limits", "L": 0, "perturb": True})
    assert code == 2 and report["status"] == "config-error"
    assert "(k, l)" in report["error"] and "checks" not in report


def test_shuffle_without_generator_is_config_error():
    # at L 1 wheel, membership and commutativity used to pass over no generator
    code, report = run({"suite": "shuffle", "L": 1})
    assert code == 2 and report["status"] == "config-error"
    assert "generator" in report["error"] and "checks" not in report

def test_whittaker_chain_dependence_is_a_failed_check():
    # the perturbed rank-2 chains disagree; this used to end in a traceback
    code, report = run({"suite": "whittaker", "L": 1, "perturb": True})
    assert code == 1 and report["status"] == "fail"
    assert any("chain-dependence" in f for c in report["checks"]
               for f in c["details"]["failures"])


@pytest.mark.parametrize("payload,needle", [
    ({"q1": 2, "q2": "3"}, "q1"),  # used to end in an AttributeError traceback
    ([1, 2], "JSON object"),  # used to be ignored in favour of the defaults
    ({"q3": "2"}, "q3"),  # likewise
])
def test_bad_params_file_is_config_error(tmp_path, capsys, payload, needle):
    from toryang.cli import main

    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    assert main(["limits", "--L", "1", "--params", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "config-error" and needle in report["error"]


@pytest.mark.parametrize("chis", [["0"], ["0", "7"]])
def test_zero_framing_is_config_error(tmp_path, capsys, chis):
    # a lone zero framing exited 3, blaming a resonance above --G 12; with a
    # second framing the message was only "Fraction(1, 0)"
    from toryang.cli import main

    path = tmp_path / "params.json"
    path.write_text(json.dumps({"q1": "2", "q2": "3", "chis": chis}))
    argv = ["relations", "--r", "1", "--L", "2", "--I", "1", "--module", "fixedpoint"]
    assert main(argv + ["--params", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "config-error" and "checks" not in report
    assert "chi_1 = 0" in report["error"] and "framing" in report["error"]


@pytest.mark.parametrize("framings,pkey,attr", [
    ({"xs": ["1/3", "1/13"]}, "_yparams", "xs"),
    ({"chis": ["3", "13"]}, "_tparams", "chis"),
])
def test_params_file_with_only_the_framings_is_read(framings, pkey, attr):
    # the framings were read only with q1/q2 (h1/h2) given, so a file with
    # only the framings ran the default point
    config = {"suite": "whittaker", "params": framings}
    _build_params(config)
    (key, vals), = framings.items()
    assert getattr(config[pkey], attr) == tuple(parse_rational(v) for v in vals)
    defaults = next(keys for *_, keys in FAMILIES if key in keys)
    x = next(k for k in defaults if k != key)
    assert getattr(config[pkey], x) == parse_rational(defaults[x])


def test_whittaker_reads_a_params_file_with_only_the_framings():
    # reported -12/455, the default point's eigenvalue
    code, report = run({"suite": "whittaker", "flavor": "H", "r": 2, "n": 1, "j": 2,
                        "L": 1, "params": {"xs": ["1/3", "1/13"]}})
    assert code == 0
    assert [c["details"]["eigenvalue"] for c in report["checks"]] == ["-16/507"]  # -(1/3 + 1/13)/13


def test_a_zero_framing_alone_is_config_error():
    # a framings-only file was ignored, so its zero framing went unseen
    code, report = run({"suite": "whittaker", "flavor": "K", "r": 1, "n": 1, "L": 1,
                        "params": {"chis": ["0"]}})
    assert code == 2 and "chi_1 = 0" in report["error"]


def test_cli_process_invocation():
    out = subprocess.run(
        [sys.executable, "-m", "toryang", "limits"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["status"] == "pass"


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_generic_params(0, "toroidal", r=2)
        b = sample_generic_params(0, "toroidal", r=2)
        assert (a.q1, a.q2, a.chis) == (b.q1, b.q2, b.chis)

    def test_sampled_point_is_certified(self):
        p = sample_generic_params(3, "toroidal", r=1, G=12)
        for a in range(-12, 13):
            for b in range(-12 + abs(a), 13 - abs(a)):
                if a or b:
                    assert p.q1 ** a * p.q2 ** b != 1

    def test_yangian_constraint(self):
        p = sample_generic_params(5, "yangian", r=2)
        assert p.h1 + p.h2 + p.h3 == 0

    def test_resonant_point_rejected(self):
        with pytest.raises(GenericityError):
            YangianParams(3, -3, ())


@pytest.mark.parametrize("argv,needle", [
    (["whittaker", "--r", "4", "--n", "1", "--L", "0"], "--r 4"),
    (["whittaker", "--r", "1", "--n", "1", "--j", "5", "--L", "0"], "--j 5"),
    (["relations", "--module", "bogus", "--L", "0", "--I", "0"], "no check"),
    (["relations", "--module", "fixedpoint", "--r", "0", "--L", "0", "--I", "1"], "no check"),
    # these ran defaults or dropped modules and passed
    (["whittaker", "--r", "0", "--n", "1", "--L", "0"], "--r 0"),
    (["whittaker", "--r", "1", "--n", "0", "--L", "0"], "--n 0"),
    (["relations", "--r", "0", "--L", "0", "--I", "1"], "--r 0"),
    # a flavor no selected suite reads was ignored, and every family ran
    (["relations", "--flavor", "K", "--L", "0", "--I", "1"], "toroidal|yangian"),
    (["whittaker", "--flavor", "toroidal", "--r", "1", "--n", "1", "--L", "0"], "K|H"),
    (["shuffle", "--flavor", "m"], "--flavor 'm'"),
    # a misspelled module ran no module, and the message did not name --module
    (["relations", "--module", "fixedpiont", "--L", "0", "--I", "0"], "--module 'fixedpiont'"),
])
def test_bad_configuration_exits_2_without_traceback(argv, needle):
    # these ended in a ValueError traceback (exit 1) or passed with zero checks
    out = subprocess.run([sys.executable, "-m", "toryang", *argv],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    report = json.loads(out.stdout)
    assert report["status"] == "config-error" and needle in report["error"]
    assert "checks" not in report


@pytest.mark.parametrize("flavor,params", [
    ("K", {"q1": "5", "q2": "7", "chis": ["3", "11"]}),
    ("H", {"h1": "17", "h2": "3", "xs": ["1/3", "1/11"]}),
])
def test_whittaker_rank_beyond_the_given_framings_is_config_error(flavor, params):
    # this ran at the default point instead and passed: K gave C = -3, the
    # value at q1 = 2, q2 = 3, where the given point has -35/24
    code, report = run({"suite": "whittaker", "flavor": flavor, "r": 3, "n": 1, "j": 3,
                        "L": 1, "params": params})
    assert code == 2 and report["status"] == "config-error"
    assert report["error"].startswith("--r 3: needs 1 <= r <= 2")


# sha256 of the JSON report (as the CLI prints it, without `timings`), with
# the exit code, per (suite, perturb) or (suite, perturb, family) with the
# family's RESONANT point.  The upsilon pair was recorded before the
# comparison map moved onto the shared intertwining loop; the whittaker,
# shuffle and horizontal pairs before their formulas were written once over
# the family weights of the parameter pack; the relations, limits and
# genericity-error reports before both families' certification was written
# once.
RECORDED_REPORTS = {
    ("upsilon", False): (0, "25842010fe06c06ef2b36cea4d416a6e2b9c35265776309414e2349631f0299c"),
    ("upsilon", True): (1, "b963f723e013294b0bf613a8ac69a4f60b532b561937e962e946e08cb69edb22"),
    ("whittaker", False): (0, "f3a1c021b4b9ee3203c54f91f32b9bfdb67adae881702260bf60d6717b9b4cf0"),
    ("whittaker", True): (1, "abeaff9d842f76001b6c6443b12c78e709ee9c65c030319c05dcc978c18e6351"),
    ("shuffle", False): (0, "e8a07272246350e7904876a422e8cb2648918d40668f16494d28bcf4284ab1fb"),
    ("shuffle", True): (1, "bfaf24b70e6e5130a87757afb5027ca520e15ec3c5cfd70bd259e1f10351db2e"),
    ("horizontal", False): (0, "85e702c3be66e5fd8b589f4159dcc446193f09d59bf0059d5c8a5a1575d8b822"),
    ("horizontal", True): (1, "f4abb54f82ccf10e3ac9f05330aba4a6e32c3e671df44f4127445e0bea264b81"),
    ("relations", True): (1, "72a5d4a22b7e32e3cda054a60511364ebf365cea598cb420c97c74392cbf3dca"),
    ("limits", False): (0, "17fa45488c5750e561bbf0ba67d210394b7c3b26142c1cbb486a826c3e8e510d"),
    ("limits", True): (1, "0e2307609205e4d6d0fc08ff3b4cd987aa81ea1760775fcc58844140e5babbc6"),
    ("relations", False, "toroidal"):
        (3, "a9bfbec489ceb9f1fcc4eba9f7f3cdf5f893158af472c45939cf7efb09c1d727"),
    ("relations", False, "yangian"):
        (3, "611431b94f16e052a030ea21671e7dfca57df5f7d904ef9aa4274579a6d8c8b9"),
}

# one framing relation per family: chi_1/chi_2 * q1 = 1, resp. 2*h2 + x_1 - x_2 = 0
RESONANT = {"toroidal": {"q1": "2", "q2": "3", "chis": ["5", "10"]},
            "yangian": {"h1": "13", "h2": "1", "xs": ["0", "2"]}}


@pytest.mark.parametrize("key", RECORDED_REPORTS,
                         ids=["-".join(map(str, k)) for k in RECORDED_REPORTS])
def test_report_matches_recorded_digest(key):
    import hashlib

    suite, perturb, *family = key
    config = {"suite": suite, "perturb": True} if perturb else {"suite": suite}
    if family:
        config["params"] = RESONANT[family[0]]
    code, report = run(config)
    text = json.dumps(strip_timings(report), indent=2, sort_keys=True)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == RECORDED_REPORTS[key]


@pytest.mark.parametrize("argv,needle", [
    (["relations", "--module", "fock", "--L", "1", "--I", "1"], "toroidal:fock:T2"),
    (["relations", "--module", "fixedpoint", "--flavor", "yangian", "--L", "1", "--I", "1"],
     "yangian:fixedpoint-r1:Y2"),
    (["relations", "--module", "fock", "--flavor", "yangian", "--L", "0", "--I", "1"],
     "yangian:fock:Y2"),
])
def test_relation_comparing_only_zeros_is_config_error(argv, needle, capsys):
    # f f kills every label at these levels, so T2/Y2 used to pass by
    # comparing 0 with 0 on every (instance, label) pair
    from toryang.cli import main

    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "config-error" and "checks" not in report
    assert needle in report["error"]
    assert "--L" in report["error"] and "--I" in report["error"]


@pytest.mark.parametrize("argv,needle", [
    (["limits", "--module", "vector", "--L", "1"], "--module 'vector'"),
    (["shuffle", "--j", "3"], "--j 3"),
    (["limits", "--n", "2"], "--n 2"),
    (["shuffle", "--I", "3"], "--I 3"),
    (["limits", "--N", "2", "--L", "1"], "--N 2"),
    (["whittaker", "--I", "5"], "--I 5"),
    (["upsilon", "--I", "7"], "--I 7"),
    (["horizontal", "--I", "7"], "--I 7"),
    (["relations", "--N", "3"], "--N 3"),
    (["shuffle", "--r", "3"], "--r 3"),
])
def test_option_no_selected_suite_reads_exits_2(argv, needle):
    # each of these ran the suite's usual checks and exited 0
    out = subprocess.run([sys.executable, "-m", "toryang", *argv],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 2
    report = json.loads(out.stdout)
    assert report["status"] == "config-error" and needle in report["error"]
    assert "no selected suite reads it" in report["error"] and "checks" not in report


def test_suite_flag_is_an_unknown_option(capsys):
    # `--suite whittaker` after the positional suite used to run whittaker
    from toryang.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["relations", "--suite", "whittaker"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --suite whittaker" in capsys.readouterr().err


def no_suite_runs(monkeypatch):
    """Replace every suite by one that fails the test if it runs."""
    from toryang import cli

    def boom(config, checks):
        raise AssertionError("a suite ran")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, boom)


def one_passing_check(monkeypatch):
    """Replace every suite by one that reports a single passing check."""
    from toryang import cli

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name,
                            lambda config, checks: checks.append(cli._result("stub", True)))


def a_value_some_suite_takes(key):
    from toryang.cli import OPTIONS

    opt = next(entry[key] for entry in OPTIONS.values() if key in entry)
    return opt.values[0] if opt.values else opt.least


@pytest.mark.parametrize("suite", ["relations", "whittaker", "shuffle", "limits",
                                   "upsilon", "horizontal"])
def test_every_option_the_suite_does_not_read_exits_2(monkeypatch, suite):
    from toryang.cli import OPTIONS

    no_suite_runs(monkeypatch)
    unread = {key for entry in OPTIONS.values() for key in entry} - set(OPTIONS[suite])
    assert unread
    for key in sorted(unread):
        value = a_value_some_suite_takes(key)
        code, report = run({"suite": suite, key: value})
        assert code == 2 and report["status"] == "config-error", key
        assert report["error"].startswith(f"--{key} {value!r}: no selected suite reads it")
        assert "timings" not in report and "checks" not in report


def scale_floors():
    from toryang.cli import COMMON, OPTIONS

    return [(suite, key, opt.least) for suite, entry in OPTIONS.items()
            for key, opt in {**COMMON, **entry}.items() if opt.least is not None]


@pytest.mark.parametrize("suite,key,least", scale_floors())
def test_every_scale_below_its_least_value_exits_2(monkeypatch, suite, key, least):
    no_suite_runs(monkeypatch)
    code, report = run({"suite": suite, key: least - 1})
    assert code == 2 and report["status"] == "config-error"
    assert report["error"].startswith(f"--{key} {least - 1}: ")
    assert f"needs {key} >= {least}" in report["error"]
    assert "timings" not in report and "checks" not in report
    # the least value itself passes the option check
    one_passing_check(monkeypatch)
    code, report = run({"suite": suite, key: least})
    assert code == 0 and report["status"] == "pass"


def test_every_listed_value_is_taken_and_no_other():
    from toryang.cli import OPTIONS

    cases = [(suite, key, opt.values) for suite, entry in OPTIONS.items()
             for key, opt in entry.items() if opt.values]
    assert {(suite, key) for suite, key, _ in cases} == {
        ("relations", "flavor"), ("relations", "module"), ("whittaker", "flavor")}
    for suite, key, values in cases:
        with pytest.MonkeyPatch.context() as mp:
            no_suite_runs(mp)
            code, report = run({"suite": suite, key: "bogus"})
            assert code == 2 and f"{suite} takes {'|'.join(values)}" in report["error"]
            one_passing_check(mp)
            for value in values:
                assert run({"suite": suite, key: value})[0] == 0


def test_all_rejects_a_scale_below_any_suite_least_value(monkeypatch):
    # relations takes --L 1, but shuffle needs L >= 2
    no_suite_runs(monkeypatch)
    code, report = run({"suite": "all", "L": 1})
    assert code == 2 and report["error"].startswith("--L 1: shuffle needs L >= 2")


def test_read_applies_the_table():
    from toryang.cli import _read
    from toryang.params import DEFAULT_G

    assert _read({}, "G") == DEFAULT_G
    assert _read({}, "L", "upsilon") == 2 and _read({"L": 5}, "L", "upsilon") == 2
    assert _read({"L": 5}, "L", "relations") == 3
    assert _read({"L": 5}, "L", "relations", capped=False) == 5
    assert _read({}, "r", "whittaker") == (1, 2) and _read({"r": 3}, "r", "whittaker") == (3,)
    # a flavor only another selected suite takes reads as the default sweep
    assert _read({"flavor": "K"}, "flavor", "relations") == ("toroidal", "yangian")
    assert _read({"flavor": "K"}, "flavor", "whittaker") == ("K",)


def test_readme_table_lists_every_option_with_its_default_and_least_value():
    from toryang.cli import OPTIONS

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text[text.index("| suite | option |"):].split("\n\n")[0].splitlines()[2:]
    listed = {}
    suite = None
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        suite = cells[0].strip("`") or suite
        listed[(suite, cells[1].strip("`-"))] = cells[2:]
    assert set(listed) == {(s, k) for s, entry in OPTIONS.items() for k in entry}
    for (suite, key), (default, least, notes) in listed.items():
        opt = OPTIONS[suite][key]
        assert least == ("" if opt.least is None else str(opt.least)), (suite, key)
        assert (f"cap {opt.cap}" in notes) == (opt.cap is not None), (suite, key)
        if isinstance(opt.default, int):
            assert default == str(opt.default), (suite, key)
