"""The per-layer metrics: which library functions the traced run wraps, and
the ratios computed at the wrapped boundaries.

Every function in LAYERS reports `<module>.<qualname>.calls` (count) and
`<module>.<qualname>.self_s` (seconds).  RATIOS adds one share per entry;
a share whose base is zero reads 0.
"""

from __future__ import annotations

__all__ = ["LAYERS", "COUNT_ONLY", "RATIOS", "Observers", "targets", "metric_specs", "collect"]

LAYERS = {
    "repbase": ["check_relation", "apply_word", "Module.apply_e", "Module.apply_f",
                "Module.apply_psi", "Module.apply_psi_y", "Module.apply_t",
                "Module.t_eigenvalue", "Module.psi_series"],
    "toroidal": ["KTheoryFixedPointModule._e_transitions",
                 "KTheoryFixedPointModule._f_transitions",
                 "KTheoryFixedPointModule._psi_rat"],
    "yangian": ["CohomologyFixedPointModule._e_transitions",
                "CohomologyFixedPointModule._f_transitions",
                "CohomologyFixedPointModule._psi_rat"],
    "scalars": ["TSeries.__mul__", "TSeries.__add__", "TSeries.inv", "series_exp",
                "series_log", "series_zlog", "series_sqrt", "ratfn_expand",
                "RatFn.from_factors"],
    "upsilon": ["UpsilonBridge.kcoeffs", "UpsilonBridge.B_at", "UpsilonBridge.gamma_at",
                "UpsilonBridge.g_at", "UpsilonBridge.t_eigen", "UpsilonBridge.apply_e",
                "UpsilonBridge.apply_f", "UpsilonBridge.psi_pm_coeff", "ch_solver"],
    "multipoly": ["MPoly.__mul__", "MPoly.apply_perm", "MPoly.div_vandermonde",
                  "MPoly.div_linear", "MPoly.collapse_monomial", "MPoly.collapse_affine"],
    "shuffle": ["star", "wheel_check", "stable_membership", "K_element", "L_element"],
    "diffops": ["QOp.bracket", "HOp.bracket", "hall_image"],
    "horizontal": ["apply_vertex_mode", "matrix_coeff_series", "horizontal_tensor_coeff"],
    "whittaker": ["whittaker_eigencheck", "shuffle_matrix_coeff"],
    "params": ["ToroidalParams.certify", "YangianParams.certify"],
    "partitions": ["enum_multipartitions", "addable_boxes", "removable_boxes"],
}

# public cache fronts of the transition hooks: counted, not timed, so that
# their lookups stay in the callers' self time
COUNT_ONLY = [("toryang.repbase", "Module.e_transitions"),
              ("toryang.repbase", "Module.f_transitions")]

TRANSITION_HOOKS = [f"{mod}.{cls}._{g}_transitions"
                    for mod, cls in (("toroidal", "KTheoryFixedPointModule"),
                                     ("yangian", "CohomologyFixedPointModule"))
                    for g in ("e", "f")]


def _vec_key(v):
    return tuple(v.items())


def _mpoly_key(F):
    return (F.flavor, F.n, tuple(sorted(F.num.d.items())))


class Observers:
    """Distinct-key sets and outcome counters fed by the wrappers."""

    def __init__(self):
        self.word_keys = set()
        self.word_nonzero = 0
        self.teigen_keys = set()
        self.star_keys = set()

    def apply_word(self, args, kwargs, result):
        module, word, v = args[:3]
        self.word_keys.add((id(module), _vec_key(v), tuple(word)))
        if result:
            self.word_nonzero += 1

    def t_eigen(self, args, kwargs, result):
        bridge, label, m = args[:3]
        self.teigen_keys.add((id(bridge), label, m))

    def star(self, args, kwargs, result):
        F, G, params = args[:3]
        convention = args[3] if len(args) > 3 else kwargs.get("convention", "plain")
        self.star_keys.add((_mpoly_key(F), _mpoly_key(G), id(params), convention))

    def table(self):
        return {"repbase.apply_word": self.apply_word,
                "upsilon.UpsilonBridge.t_eigen": self.t_eigen,
                "shuffle.star": self.star}


def targets():
    return [(f"toryang.{mod}", q) for mod, qs in LAYERS.items() for q in qs]


def _share(num, den):
    return num / den if den else 0.0


def _hit(misses, calls):
    return 1 - misses / calls if calls else 0.0


def _ratios(tracer, obs, calls):
    public = sum(tracer.counts.get(f"repbase.Module.{g}_transitions", 0) for g in ("e", "f"))
    hooks = sum(calls.get(h, 0) for h in TRANSITION_HOOKS)
    words = calls.get("repbase.apply_word", 0)
    psi = calls.get("repbase.Module.psi_series", 0)
    g_at = calls.get("upsilon.UpsilonBridge.g_at", 0)
    return {
        "repbase.apply_word.distinct_share": _share(len(obs.word_keys), words),
        "repbase.apply_word.nonzero_share": _share(obs.word_nonzero, words),
        "repbase.Module.transitions.hit_share": _hit(hooks, public),
        "repbase.Module.psi_series.hit_share": _hit(
            tracer.child_calls("scalars.ratfn_expand", "repbase.Module.psi_series"), psi),
        "upsilon.UpsilonBridge.g_at.hit_share": _hit(
            tracer.child_calls("upsilon.UpsilonBridge.gamma_at", "upsilon.UpsilonBridge.g_at"),
            g_at),
        "upsilon.UpsilonBridge.t_eigen.distinct_share": _share(
            len(obs.teigen_keys), calls.get("upsilon.UpsilonBridge.t_eigen", 0)),
        "shuffle.star.distinct_share": _share(len(obs.star_keys), calls.get("shuffle.star", 0)),
    }


RATIOS = ["repbase.apply_word.distinct_share", "repbase.apply_word.nonzero_share",
          "repbase.Module.transitions.hit_share", "repbase.Module.psi_series.hit_share",
          "upsilon.UpsilonBridge.g_at.hit_share",
          "upsilon.UpsilonBridge.t_eigen.distinct_share", "shuffle.star.distinct_share"]


def metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for mod, qs in LAYERS.items():
        for q in qs:
            out.append((f"{mod}.{q}.calls", "count", "lower"))
            out.append((f"{mod}.{q}.self_s", "s", "lower"))
    out.extend((name, "ratio", "higher") for name in RATIOS)
    out.append(("trace_overhead_share", "ratio", "lower"))
    return out


def collect(tracer, obs):
    """{metric: value} for every per-layer metric except the overhead share."""
    per = tracer.self_times()
    calls = {name: c for name, (c, _) in per.items()}
    out = {}
    for mod, qs in LAYERS.items():
        for q in qs:
            c, s = per.get(f"{mod}.{q}", (0, 0.0))
            out[f"{mod}.{q}.calls"] = c
            out[f"{mod}.{q}.self_s"] = s
    out.update(_ratios(tracer, obs, calls))
    return out
