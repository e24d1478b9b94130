import copy
import json
import subprocess
import sys

import pytest

from toryang.cli import parse_rational, run
from toryang.params import (GenericityError, YangianParams,
                            sample_generic_params)


def strip_timings(report):
    r = copy.deepcopy(report)
    r.pop("timings", None)
    return r


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

def test_cli_process_invocation():
    out = subprocess.run(
        [sys.executable, "-m", "toryang", "limits"],
        capture_output=True, text=True)
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
