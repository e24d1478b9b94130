"""The benchmark's traced set still resolves against the library.

`perfbench/run.py --trace 1` wraps every `layers.targets()` entry and every
`layers.COUNT_ONLY` entry through `tracer.resolve`, which reads the attribute
from its owner's own `__dict__`.  A refactor that moves, renames or inherits
one of them breaks the traced run; this test fails first.  The run's
observer hooks (`layers.Observers`) read the wrapped calls' arguments, so
each is also called once on real ones.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from toryang.params import default_toroidal
from toryang.repbase import apply_word
from toryang.shuffle import star, x_power
from toryang.toroidal import KTheoryFixedPointModule
from toryang.upsilon import UpsilonBridge

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


def test_observers_read_real_arguments():
    # the traced run feeds each hook the wrapped call's arguments and result;
    # a change of the library's representations that a hook reads (shuffle
    # elements' numerators, vectors, bridge labels) fails here first
    layers = load("layers")
    obs = layers.Observers()
    hooks = obs.table()
    assert set(hooks) == {"shuffle.star", "repbase.apply_word", "upsilon.UpsilonBridge.t_eigen"}

    params = default_toroidal(r=1)
    F, G = x_power("m", 1), x_power("m", -1) * Fraction(3, 4)
    hooks["shuffle.star"]((F, G, params), {"convention": "coset"},
                          star(F, G, params, convention="coset"))

    module = KTheoryFixedPointModule(params, 1)
    label = module.basis(1)[0]
    word, v = [("e", 0), ("f", 1)], {label: Fraction(2, 3)}
    hooks["repbase.apply_word"]((module, word, v), {}, apply_word(module, word, v))

    bridge = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=6)
    label = bridge.basis(1)[0]
    hooks["upsilon.UpsilonBridge.t_eigen"]((bridge, label, 1), {}, bridge.t_eigen(label, 1))

    assert len(obs.star_keys) == len(obs.word_keys) == len(obs.teigen_keys) == 1
    assert obs.word_nonzero == 1
    (key,) = obs.star_keys
    assert key[0] == ("m", 1, (((1,), Fraction(1)),))
    assert key[1] == ("m", 1, (((-1,), Fraction(3, 4)),))
    assert key[3] == "coset"
