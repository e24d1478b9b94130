"""One workload sample in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed S --point I
        --mode sample|trace|control --launched T [--spans STEM]

`--launched` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, imports, parameter
certification and module construction.  The timed region runs from the
first checked call to the verdict.  Around it, outside both, the reference
chunk runs REF_CHUNKS times before and REF_CHUNKS times after; its median
time tells the parent how fast the host ran this process.  `trace` wraps the
per-layer functions before set-up and reports their metrics; `control` runs
the workload's perturbed case instead of the workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

REF_CHUNKS = 10


def reference_chunk():
    """Fixed pure-Python work like the library's: Fraction products summed
    into a tuple-keyed dict.  It never calls the library."""
    acc = {}
    x = Fraction(3, 7)
    for i in range(2000):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + x * Fraction(i % 97 + 1, i % 89 + 3)
    return acc


def time_reference(n=REF_CHUNKS):
    """(wall, cpu) seconds of each of n reference chunks."""
    walls, cpus = [], []
    for _ in range(n):
        t0 = time.monotonic()
        c0 = time.process_time()
        reference_chunk()
        walls.append(time.monotonic() - t0)
        cpus.append(time.process_time() - c0)
    return walls, cpus


def _sample(wl, seed, point):
    from workloads import describe_point, point_params

    tp, yp = point_params(seed, point)
    state = wl.setup(tp, yp)
    ready = time.monotonic()
    ref_wall, ref_cpu = time_reference()
    t0 = time.monotonic()
    c0 = time.process_time()
    checks = wl.run(state)
    wall = time.monotonic() - t0
    cpu = time.process_time() - c0
    after_wall, after_cpu = time_reference()
    return ready, {"wall_s": wall, "cpu_s": cpu,
                   "ref_wall_s": statistics.median(ref_wall + after_wall),
                   "ref_cpu_s": statistics.median(ref_cpu + after_cpu),
                   "point": describe_point(tp, yp), "checks": [list(c) for c in checks]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--point", type=int, default=0)
    ap.add_argument("--mode", choices=("sample", "trace", "control"), default="sample")
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--spans", help="file stem for the trace's span columns")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS, point_params

    wl = WORKLOADS[args.workload]
    if args.mode == "control":
        out = {"tripped": bool(wl.control(*point_params(args.seed, args.point)))}
    elif args.mode == "trace":
        import importlib

        import layers
        from tracer import Tracer

        for modname, _ in layers.targets():
            importlib.import_module(modname)
        tracer = Tracer()
        obs = layers.Observers()
        tracer.install(layers.targets(), observe=obs.table(), count_only=layers.COUNT_ONLY)
        try:
            ready, out = _sample(wl, args.seed, args.point)
        finally:
            tracer.uninstall()
        out["layers"] = layers.collect(tracer, obs)
        out["spans"] = len(tracer.span_name)
        if args.spans:
            tracer.write(args.spans)
        out["setup_s"] = ready - args.launched
    else:
        ready, out = _sample(wl, args.seed, args.point)
        out["setup_s"] = ready - args.launched
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
