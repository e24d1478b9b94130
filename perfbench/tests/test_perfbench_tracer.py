"""Tests of the benchmark's tracer, wrapper lifetime and trace determinism.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
from tracer import Tracer, self_times
from workloads import WORKLOADS, point_params

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


class FakeClock:
    """Returns the listed instants in order."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_of_nested_calls():
    # outer [0, 10] calls inner [1, 4] and inner [5, 9]; inner [5, 9] calls leaf [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))

    leaf = tracer.span_wrapper(lambda: None, "leaf")

    def _inner(deep):
        if deep:
            leaf()

    inner = tracer.span_wrapper(_inner, "inner")

    def _outer():
        inner(False)
        inner(True)

    tracer.span_wrapper(_outer, "outer")()
    assert list(tracer.span_parent) == [-1, 0, 0, 2]
    assert tracer.self_times() == {"outer": (1, 3.0), "inner": (2, 6.0), "leaf": (1, 1.0)}
    assert tracer.child_calls("inner", "outer") == 2
    assert tracer.child_calls("leaf", "outer") == 0


def test_self_times_on_columns():
    # a recursive span: f [0, 8] > f [2, 6] > g [3, 4]
    calls, selfs = self_times([0, 0, 1], [-1, 0, 1], [0.0, 2.0, 3.0], [8.0, 6.0, 4.0])
    assert calls == {0: 2, 1: 1}
    assert selfs == {0: 4.0 + 3.0, 1: 1.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 2]))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.span_wrapper(boom, "boom")()
    assert tracer.self_times() == {"boom": (1, 2.0)}
    assert tracer._stack == [-1]


def _snapshot():
    """Identity of every attribute of every library module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "toryang":
            continue
        for attr, val in vars(mod).items():
            snap[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    snap[(name, attr, cattr)] = cval
    return snap


def test_every_wrapper_is_removed_after_a_traced_run():
    for modname, _ in layers.targets():
        importlib.import_module(modname)
    before = _snapshot()
    tracer = Tracer()
    obs = layers.Observers()
    tracer.install(layers.targets(), observe=obs.table(), count_only=layers.COUNT_ONLY)
    wrapped = [k for k, v in _snapshot().items() if before.get(k) is not v]
    try:
        wl = WORKLOADS["relations-rank2"]
        wl.control(*point_params(0, 0))
    finally:
        tracer.uninstall()
    assert len(wrapped) >= len(layers.targets()) + len(layers.COUNT_ONLY)
    assert tracer.self_times()["repbase.check_relation"][0] == 1
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_benchmark_json_lists_every_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.metric_specs()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def _traced(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "trace", "--launched", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v for k, v in out["layers"].items() if not k.endswith(".self_s")}
    return counts, sum(c[2] for c in out["checks"]), out["spans"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_on_one_seed(workload):
    first = _traced(workload, 3)
    assert first == _traced(workload, 3)
    counts, instances, spans = first
    assert instances == WORKLOADS[workload].expected_instances
    assert spans > 0 and any(v for k, v in counts.items() if k.endswith(".calls"))


def test_run_fails_without_the_library(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relations-rank2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_scale_to_the_reference_speed():
    import run

    # a host at half the reference speed for wall time, a quarter for CPU time
    sample = {"wall_s": 3.0, "cpu_s": 2.0, "setup_s": 0.5,
              "ref_wall_s": 2 * run.REF_S, "ref_cpu_s": 4 * run.REF_S}
    assert run.at_reference(sample) == {"wall_s": 1.5, "cpu_s": 0.5, "setup_s": 0.25}
