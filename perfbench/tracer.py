"""In-memory span tracer that wraps library functions from outside.

A `Tracer` replaces named functions and methods with wrappers.  Each call
of a wrapped function records one span: the function's name id, the index
of the enclosing span (or -1), and its start and end on `time.perf_counter`.
Spans live in flat `array` columns so that millions of them stay small, and
`write` dumps them in one piece when the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  The tracer assumes one thread, so the children of a span never
overlap and the covered time is the sum of their durations.

`uninstall` puts every replaced attribute back, so a traced run leaves the
library exactly as it found it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

__all__ = ["Tracer", "resolve", "self_times"]

PACKAGE = "toryang"


def resolve(modname, qualname):
    """Return (owner, attribute, raw value) for 'Class.method' or 'function'."""
    owner = importlib.import_module(modname)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def self_times(names, parents, starts, ends):
    """Per-name (calls, self seconds) from span columns."""
    n = len(names)
    covered = array("d", bytes(8 * n))
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    calls = {}
    selfs = {}
    for i in range(n):
        nid = names[i]
        calls[nid] = calls.get(nid, 0) + 1
        selfs[nid] = selfs.get(nid, 0.0) + (ends[i] - starts[i]) - covered[i]
    return calls, selfs


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Targets are (module, qualname) pairs.  A plain function is also replaced
    wherever another module of the library bound it by name (`from m import
    f`); a method is also replaced under any alias in its class (`__rmul__ =
    __mul__`).  `observe` maps a span name to a callable run after each call
    with (args, kwargs, result), outside the span's own timing.  `count_only`
    targets get a counter and no span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._restore = []

    # -- span columns ------------------------------------------------------
    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, fn, name, observe=None):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] == PACKAGE]

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, targets, observe=None, count_only=()):
        """Wrap every (module, qualname) target; see the class docstring."""
        observe = observe or {}
        for modname, qualname in list(targets) + list(count_only):
            owner, attr, raw = resolve(modname, qualname)
            name = f"{modname.rsplit('.', 1)[-1]}.{qualname}"
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if (modname, qualname) in count_only:
                wrapped = self.count_wrapper(fn, name)
            else:
                wrapped = self.span_wrapper(fn, name, observe.get(name))
            if is_static:
                wrapped = staticmethod(wrapped)
            if isinstance(owner, type):
                for alias in [k for k, v in vars(owner).items() if v is raw]:
                    self._replace(owner, alias, wrapped)
            else:
                for mod in self._package_modules():
                    for alias, v in list(vars(mod).items()):
                        if v is fn:
                            self._replace(mod, alias, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def self_times(self):
        """{name: (calls, self seconds)} over every recorded span."""
        calls, selfs = self_times(self.span_name, self.span_parent,
                                  self.span_start, self.span_end)
        return {self.names[i]: (calls[i], selfs[i]) for i in calls}

    def child_calls(self, child, parent):
        """Number of spans named `child` whose enclosing span is named `parent`."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for i in range(len(names))
                   if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid)

    def write(self, stem):
        """Write `stem.json` (names, counts, layout) and `stem.bin` (columns)."""
        cols = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(f"{stem}.bin", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        meta = {"spans": len(self.span_name), "names": self.names,
                "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                "counts": self.counts}
        with open(f"{stem}.json", "w") as fh:
            json.dump(meta, fh)
