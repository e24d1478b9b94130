"""The benchmark's traced set still resolves against the library.

`perfbench/run.py --trace 1` wraps every `layers.targets()` entry and every
`layers.COUNT_ONLY` entry through `tracer.resolve`, which reads the attribute
from its owner's own `__dict__`.  A refactor that moves, renames or inherits
one of them breaks the traced run; this test fails first.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layers, tracer = load("layers"), load("tracer")
    targets = layers.targets() + list(layers.COUNT_ONLY)
    unresolved = []
    for modname, qualname in targets:
        try:
            _, _, raw = tracer.resolve(modname, qualname)
        except (ImportError, AttributeError, KeyError) as exc:
            unresolved.append((modname, qualname, repr(exc)))
            continue
        if not callable(getattr(raw, "__func__", raw)):
            unresolved.append((modname, qualname, "not callable"))
    assert len(targets) > 50
    assert unresolved == []
