"""Benchmark command: one workload, closed loop, fresh process per sample.

    python3 perfbench/run.py --workload relations-rank2 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each sample is one fresh worker process (one thread, cold module
and bridge caches) that sets up, makes the workload's checked calls and
reports its timings and verdicts.  Samples run one after another while the
next one is expected to end within `--seconds`; sample i uses parameter
point i of the seed.

The times are reported at the reference speed: each sample's raw times are
scaled by REF_S over the median time of a fixed reference chunk that the
same worker runs just before and after its timed region (see `worker.py`).
A shared host slows every process on it by up to about 2x for minutes at a
time; the scaling takes that out, so that runs made at different times can
be compared.  The raw medians are in the report line.

Before the timed samples, the workload's perturbed case runs once and must
be reported as failing.  Each sample also passes a count gate: its
`instances_checked` must equal the count recorded for the workload.

With `--trace 0` the last line carries the end-to-end metrics (medians over
the samples).  With `--trace 1` one traced sample on point 0 gives the
per-layer metrics (raw, not scaled), and untraced samples on the same
point give the baseline for `trace_overhead_share`.  A report line with
provenance, every metric's unit and sample count, and `fail_share` precedes
the last line.

Exit codes: 0 all verdicts pass and the negative control trips; 1 a
verdict, the count gate or the negative control failed; 2 the benchmark
could not run (no library in `src/`, unknown workload, a crashed worker).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175
# Nominal time of one reference chunk: about its fastest on the 2-vCPU Xeon VM
# of the README's baseline, so scaled times read close to that host's best.
REF_S = 0.0075

sys.path.insert(0, str(HERE))

from layers import metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("instances_checked", "count"), ("checks_total", "count")]
RAW = ("wall_s", "cpu_s", "setup_s", "ref_wall_s", "ref_cpu_s")


class WorkerError(RuntimeError):
    pass


def git_commit(root):
    """HEAD of the checkout's own repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, wl):
    return {"seed": args.seed, "workload": args.workload, "scale": wl.scale,
            "git_commit": git_commit(ROOT), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()}


class Runner:
    """Starts worker processes and waits for each; never two at once."""

    def __init__(self, args, started):
        self.args = args
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def __call__(self, mode, point, spans=None):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("out of time before starting a worker")
        launched = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--point", str(point), "--mode", mode,
               "--launched", repr(launched)]
        if spans:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def score(sample, expected):
    """(checks per sample, failed checks, instances) including the count gate."""
    checks = sample["checks"]
    instances = sum(c[2] for c in checks)
    failed = sum(1 for c in checks if not c[1]) + (instances != expected)
    return len(checks) + 1, failed, instances


def at_reference(sample):
    """The sample's times scaled to a host that runs a reference chunk in REF_S."""
    speed = REF_S / sample["ref_wall_s"]
    return {"wall_s": sample["wall_s"] * speed,
            "cpu_s": sample["cpu_s"] * REF_S / sample["ref_cpu_s"],
            "setup_s": sample["setup_s"] * speed}


def summarize(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None):
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toryang" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'toryang'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    worker = Runner(args, started)

    try:
        tripped = worker("control", 0)["tripped"]
        t0 = time.monotonic()
        traced = None
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            traced = worker("trace", 0, spans=out_dir / f"{args.workload}-seed{args.seed}")
        samples, durations = [], []
        while not samples or (time.monotonic() - t0
                              + statistics.median(durations) < args.seconds):
            begun = time.monotonic()
            samples.append(worker("sample", 0 if args.trace else len(samples)))
            durations.append(time.monotonic() - begun)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checked = samples + ([traced] if traced else [])
    scores = [score(s, wl.expected_instances) for s in checked]
    attempted = 1 + sum(n for n, _, _ in scores)
    failed = int(not tripped) + sum(f for _, f, _ in scores)
    scaled = [at_reference(s) for s in samples]
    per_sample = {name: [s[name] for s in scaled] for name in ("wall_s", "cpu_s", "setup_s")}
    per_sample["peak_rss_mb"] = [s["peak_rss_mb"] for s in samples]
    per_sample["instances_checked"] = [i for _, _, i in scores[:len(samples)]]
    per_sample["checks_total"] = [n for n, _, _ in scores[:len(samples)]]
    summary = {name: summarize(per_sample[name], unit) for name, unit in END_TO_END}
    summary["fail_share"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    for name in RAW:
        summary["raw_" + name] = summarize([s[name] for s in samples], "s")
    failing = sorted({c[0] for s in checked for c in s["checks"] if not c[1]})
    report = {"provenance": provenance(args, wl), "points": [s["point"] for s in samples],
              "control_tripped": tripped, "failing_checks": failing,
              "expected_instances": wl.expected_instances, "metrics": summary}
    if traced is None:
        metrics = {name: {"value": summary[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layer_values = dict(traced["layers"])
        layer_values["trace_overhead_share"] = (
            at_reference(traced)["wall_s"] / statistics.median(per_sample["wall_s"]) - 1)
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
        report["spans"] = traced["spans"]
    print(json.dumps({"report": report}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
