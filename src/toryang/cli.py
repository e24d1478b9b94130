"""Batch verification driver with deterministic JSON reports.

Exit codes: 0 all selected checks pass; 1 at least one check failed;
2 configuration error; 3 genericity certification failure.

All numeric configuration travels as rational strings ("3/2", "7") so no
floating point can leak in.  Reports are reproducible: the only
non-deterministic fields are the per-check timings, kept separate from the
payload.  Every option a suite reads is declared once, in `OPTIONS`, and
`run` checks the given options against it before any suite starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from .params import (DEFAULT_G, GenericityError, ToroidalParams, YangianParams,
                     default_toroidal, default_yangian, sample_generic_params)
from .repbase import (PerturbedModule, RELATION_BUILDERS_T, RELATION_BUILDERS_Y,
                      _additive_kernel_terms, check_relation)

__all__ = ["run", "main", "parse_rational"]

SCHEMA = 1


def parse_rational(s):
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {s!r}")
    return Fraction(s)


def _result(cid, ok, details=None):
    """One check's entry in the report."""
    out = {"id": cid, "status": "pass" if ok else "fail"}
    if details is not None:
        out["details"] = details
    return out


def _read(config, key, suite=None, capped=True):
    """Option `key` as `suite` reads it (every suite, if None): the given
    value, else the default.  A value the suite does not take (another
    selected suite does) reads as the default, one above the cap as the cap
    unless `capped` is false, and one replacing a tuple default as a 1-tuple."""
    opt = (COMMON if suite is None else OPTIONS[suite])[key]
    value = config.get(key)
    if value is None or opt.values and value not in opt.values:
        return opt.default
    if isinstance(opt.default, tuple):
        return (value,)
    return min(value, opt.cap) if capped and opt.cap is not None else value


def _suite_relations(config, checks):
    from .toroidal import FockModule, KTheoryFixedPointModule, VectorModule
    from .yangian import CohomologyFixedPointModule

    L = _read(config, "L", "relations", capped=False)
    fixed_point_level = _read(config, "L", "relations")
    window = _read(config, "I", "relations")
    which = _read(config, "module", "relations")
    r = _read(config, "r", "relations")
    perturb = _read(config, "perturb")
    if perturb is True:
        perturb = "psi"
    families = {"toroidal": ("_tparams", KTheoryFixedPointModule, RELATION_BUILDERS_T),
                "yangian": ("_yparams", CohomologyFixedPointModule, RELATION_BUILDERS_Y)}
    for flavor in _read(config, "flavor", "relations"):
        pkey, fixed_point, relations = families[flavor]
        params = config[pkey]
        try:
            modules = [(name, cls(params, Fraction(1, 5)), L)
                       for name, cls in (("vector", VectorModule), ("fock", FockModule))
                       if which in (name, "all")]
            if which in ("fixedpoint", "all"):
                modules += [(f"fixedpoint-r{rr}", fixed_point(params, rr), fixed_point_level)
                            for rr in range(1, r + 1)]
        except ValueError as exc:
            raise ConfigError(f"--r {r}: {exc}") from None
        for name, module, lvl in modules:
            if perturb:
                module = PerturbedModule(module, perturb)
            for rel in relations:
                rep = check_relation(module, rel, params, lvl, window=window)
                cid = f"relations:{flavor}:{name}:{rel}"
                if not rep.nonvacuous:
                    what = "compares only 0 with 0" if rep.checked else "has no instance"
                    raise ConfigError(f"{cid} {what} at --L {L} --I {window}")
                checks.append(_result(cid, rep.ok, rep.counterexample))


def _suite_whittaker(config, checks):
    from .whittaker import whittaker_eigencheck

    perturb = _read(config, "perturb")
    L = _read(config, "L", "whittaker")
    only_j = _read(config, "j", "whittaker")
    for flavor in _read(config, "flavor", "whittaker"):
        for r in _read(config, "r", "whittaker"):
            params = (config["_tparams"] if flavor == "K" else config["_yparams"])
            if not 1 <= r <= len(params.framings):
                raise ConfigError(f"--r {r}: needs 1 <= r <= {len(params.framings)}, "
                                  "the number of framing parameters")
            if only_j is not None and only_j > r:
                raise ConfigError(f"--j {only_j}: the eigenvalue needs 0 <= j <= r = {r}")
            for n in _read(config, "n", "whittaker"):
                for j in range(r + 1) if only_j is None else [only_j]:
                    val, fails = whittaker_eigencheck(flavor, r, n, j, L, params,
                                                      perturb=bool(perturb))
                    checks.append(_result(
                        f"whittaker:{flavor}:r{r}:n{n}:j{j}",
                        not fails,
                        {"eigenvalue": str(val), "failures": [str(f) for f in fails]}))


def _suite_shuffle(config, checks):
    from .shuffle import (K_element, L_element, star_commutator, stable_membership,
                          wheel_check, x_power, star)

    tp = config["_tparams"]
    yp = config["_yparams"]
    perturb = _read(config, "perturb")
    deg = _read(config, "L", "shuffle")
    for flavor, p in (("m", tp), ("a", yp)):
        gens = {}
        for jj in range(1, deg):
            gens[("K", jj)] = K_element(flavor, jj, p)
            gens[("L", jj)] = L_element(flavor, jj, p)
        ok = all(wheel_check(g, p) for g in gens.values())
        checks.append(_result(f"shuffle:{flavor}:wheel", ok))
        ok = all(stable_membership(g) for g in gens.values())
        checks.append(_result(f"shuffle:{flavor}:membership", ok))
        comm_ok = True
        for (na, ia) in gens:
            for (nb, ib) in gens:
                if ia + ib <= deg and (na, ia) <= (nb, ib):
                    c = star_commutator(gens[(na, ia)], gens[(nb, ib)], p)
                    if perturb:
                        c = c + star(x_power(flavor, 0), x_power(flavor, 0), p) \
                            * Fraction(1, 16) if ia + ib == 2 else c
                    if not c.is_zero():
                        comm_ok = False
        checks.append(_result(f"shuffle:{flavor}:commutativity", comm_ok))
    # the Y1 relation's image under the arity-one assignment: each word
    # [(e, a), (e, b)] of its term list is the star product of x^a and x^b
    sig2 = yp.sigma2() + (Fraction(1, 16) if perturb else 0)
    sig3 = yp.sigma3()
    img_ok = True
    for i in (0, 1):
        for j in (0, 1):
            acc = None
            for cc, [(_, a), (_, b)] in _additive_kernel_terms("e", "e", i, j, 1, sig2, sig3):
                t = star(x_power("a", a), x_power("a", b), yp) * cc
                acc = t if acc is None else acc + t
            if not acc.is_zero():
                img_ok = False
    checks.append(_result("shuffle:a:relation-image", img_ok))


def _suite_limits(config, checks):
    from .diffops import (check_theta_a_relations, check_theta_m_relations,
                          hall_image, jacobi_hop, jacobi_qop, nested_ratio_additive,
                          nested_ratio_multiplicative, pick_closed_form,
                          serre_multiple_a, serre_multiple_m)

    q = config["_tparams"].q1
    h = config["_yparams"].h1
    perturb = _read(config, "perturb")
    bound = _read(config, "L", "limits")
    window = _read(config, "I", "limits")
    fails = check_theta_m_relations(q, window=window)
    checks.append(_result("limits:theta-m-relations", not fails, [str(f) for f in fails]))
    fails = check_theta_a_relations(h, window=window)
    checks.append(_result("limits:theta-a-relations", not fails, [str(f) for f in fails]))
    cache = {}
    ok = True
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            if (k, l) == (0, 0):
                continue
            got = hall_image(k, l, q, cache)
            want = pick_closed_form(k, l, q)
            if perturb:
                want = want.scale(Fraction(17, 16))
            if not (got - want).is_zero():
                ok = False
    checks.append(_result("limits:pick-closed-forms", ok))
    ok = True
    for N in range(2, 7):
        for n in range(3, 5):
            lam_ok, _ = nested_ratio_multiplicative(N, n, q)
            bet_ok, _ = nested_ratio_additive(N, n, h)
            ok = ok and lam_ok and bet_ok
    checks.append(_result("limits:nested-ratios", ok))
    checks.append(_result("limits:serre-multiples",
                          all(serre_multiple_m(n, q) and serre_multiple_a(n, h)
                              for n in (3, 4, 5))))
    checks.append(_result("limits:jacobi",
                          jacobi_qop(q, [((1, 2), (0, -2), (-1, 1)),
                                         ((2, -1), (1, 1), (-3, 0))])
                          and jacobi_hop(h, [((1, 2), (0, -2), (1, 1)),
                                             ((2, -1), (1, 1), (3, 0))])))


def _suite_upsilon(config, checks):
    from .upsilon import (UpsilonBridge, borel_kernel_identity, borel_log_identity,
                          ch_solver, limit_h3_diffop_identities,
                          limit_h3_module_check)

    perturb = _read(config, "perturb")
    trunc = _read(config, "N", "upsilon")
    hmod = min(9, trunc - 4)
    L = _read(config, "L", "upsilon")
    br = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=trunc)
    if perturb:
        br.gpre = br.gpre * Fraction(17, 16)
    checks.append(_result("upsilon:specialization", True,
                          {"direction": ["13", "1"], "shifts": ["1/5"],
                           "truncation": trunc, "residual-order": hmod}))
    checks.append(_result("upsilon:borel-log-identity", borel_log_identity(8)))
    fails = borel_kernel_identity(br, L, 3, hmod=hmod)
    checks.append(_result("upsilon:borel-kernel", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_t3(L, 2, hmod=hmod)
    checks.append(_result("upsilon:t3-audit", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_t4_ladder(L, range(-2, 3), range(-1, 2), hmod=hmod)
    checks.append(_result("upsilon:ladder-audit", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_cubic(L, hmod=hmod)
    checks.append(_result("upsilon:cubic-audit", not fails, [str(f) for f in fails[:3]]))
    _, fails = ch_solver(13, 1, (Fraction(1, 5),), 1, min(L + 1, 3),
                         trunc=trunc, hmod=hmod)
    checks.append(_result("upsilon:comparison-map", not fails, [str(f) for f in fails[:3]]))
    fails = limit_h3_diffop_identities(hmod=hmod)
    checks.append(_result("upsilon:limit-diffop", not fails, [str(f) for f in fails[:3]]))
    fails = limit_h3_module_check(1, level_bound=L, hmod=min(8, hmod))
    checks.append(_result("upsilon:limit-module", not fails, [str(f) for f in fails[:3]]))


def _suite_horizontal(config, checks):
    from .horizontal import (closed_form_series, horizontal_params,
                             horizontal_tensor_coeff, matrix_coeff_series,
                             single_factor_closed_form, tt3_check)
    from .shuffle import stable_membership, wheel_check

    perturb = _read(config, "perturb")
    p = horizontal_params()
    c = (1 - p.q3) * Fraction(1, 5)
    order = _read(config, "N", "horizontal")
    fails = tt3_check(p, c, window=2, degree_cap=_read(config, "L", "horizontal"))
    checks.append(_result("horizontal:tt3", not fails, [str(f) for f in fails[:3]]))
    for n in (2, 3):
        a = matrix_coeff_series(p, c, n, order)
        b = closed_form_series(p, c, n, order)
        if perturb:
            b = b * Fraction(17, 16)
        checks.append(_result(f"horizontal:product-formula:n{n}", a == b))
    t = horizontal_tensor_coeff([c, (1 - p.q3) * Fraction(2, 7)], 2, p)
    checks.append(_result("horizontal:tensor-membership",
                          wheel_check(t, p) and stable_membership(t)))
    t1 = horizontal_tensor_coeff([c], 2, p)
    checks.append(_result("horizontal:single-factor",
                          t1.num == single_factor_closed_form(p, c, 2).num))


SUITES = {
    "relations": _suite_relations,
    "whittaker": _suite_whittaker,
    "shuffle": _suite_shuffle,
    "limits": _suite_limits,
    "upsilon": _suite_upsilon,
    "horizontal": _suite_horizontal,
}


class Opt(NamedTuple):
    """One option as a suite reads it.  A tuple default lists the values the
    suite sweeps when the option is not given."""
    default: object = None
    least: int | None = None  # the least value the suite takes ...
    why: str = "every scale starts at 0"  # ... and the reason the error gives
    cap: int | None = None  # the largest value the suite uses
    values: tuple = ()  # the values the suite takes, when it takes few


NO_CHECK = "there is no check below 1"

# the options every suite reads
COMMON = {"G": Opt(DEFAULT_G, 1, "genericity is certified against the relations up to G"),
          "seed": Opt(), "params": Opt({}), "perturb": Opt()}

# every option each suite reads
OPTIONS = {
    "relations": {
        "flavor": Opt(("toroidal", "yangian"), values=("toroidal", "yangian")),
        "module": Opt("all", values=("vector", "fock", "fixedpoint", "all")),
        # the cap bounds the fixed-point modules' level only
        "r": Opt(2, 1, NO_CHECK), "L": Opt(3, 0, cap=3), "I": Opt(2, 0)},
    "whittaker": {
        "flavor": Opt(("K", "H"), values=("K", "H")),
        "r": Opt((1, 2), 1, NO_CHECK), "n": Opt((1, 2), 1, NO_CHECK),
        "j": Opt(None, 0, "the eigenvalue index j runs over 0..r"),  # None: every j
        "L": Opt(2, 0)},
    "shuffle": {"L": Opt(4, 2, "below it the shuffle battery has no generator")},
    "limits": {"L": Opt(3, 1, "at L 0 the closed-form sweep has no (k, l) pair"),
               "I": Opt(2, 0)},
    "upsilon": {"N": Opt(14, 5, "below it the series bridge's residual order N - 4 "
                         "is <= 0"), "L": Opt(2, 0, cap=2)},
    "horizontal": {"N": Opt(6, 0), "L": Opt(2, 0, cap=2)},
}

# per family: where run keeps its parameter pack, the pack's class and
# default point, and the --params keys with their defaults, the framings last
FAMILIES = (("toroidal", "_tparams", ToroidalParams, default_toroidal,
             {"q1": "2", "q2": "3", "chis": ["5", "7", "11"]}),
            ("yangian", "_yparams", YangianParams, default_yangian,
             {"h1": "13", "h2": "1", "xs": ["1/5", "1/7", "1/11"]}))
PARAM_KEYS = tuple(key for *_, keys in FAMILIES for key in keys)


def _check_params(praw):
    if not isinstance(praw, dict):
        raise ConfigError(f"--params must be a JSON object, not {type(praw).__name__}")
    for key, val in praw.items():
        vals = val if key in ("chis", "xs") else [val]
        if key not in PARAM_KEYS or not isinstance(vals, list) \
                or not all(isinstance(v, str) for v in vals):
            raise ConfigError(f"--params {key!r}: {val!r}; the keys are "
                              f"{', '.join(PARAM_KEYS)} with rational strings "
                              "(lists of them for chis and xs)")


def _build_params(config):
    G = _read(config, "G")
    # at least the two framings of whittaker's default ranks 1, 2
    rank = max(_read(config, "r", "relations"), 2)
    praw = _read(config, "params")
    seed = _read(config, "seed")
    _check_params(praw)
    try:
        for flavor, pkey, cls, default, defaults in FAMILIES:
            x, y, frames = defaults
            # any key of the family builds its pack; the defaults fill the rest
            if any(key in praw for key in defaults):
                given = {**defaults, **praw}
                framings = [parse_rational(v) for v in given[frames]]
                if flavor == "toroidal" and 0 in framings:
                    raise ConfigError(f"--params chis: chi_{framings.index(0) + 1} = 0; "
                                      "a framing must be a nonzero rational")
                config[pkey] = cls(parse_rational(given[x]), parse_rational(given[y]),
                                   tuple(framings[:rank]), G=G)
            elif seed is not None:
                config[pkey] = sample_generic_params(seed, flavor, r=rank, G=G)
            else:
                config[pkey] = default(rank, G=G)
    except GenericityError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc))


class ConfigError(ValueError):
    pass


def _error(report, code, status, exc):
    report["status"] = status
    report["error"] = str(exc)
    return code, report


def _check_options(config, names):
    """Reject a given option that no selected suite reads, a value no
    selected suite takes, and a value below a selected suite's least one."""
    for key, value in config.items():
        if key == "suite" or key.startswith("_") or value is None:
            continue
        readers = {"every suite": COMMON[key]} if key in COMMON else \
            {n: OPTIONS[n][key] for n in names if key in OPTIONS[n]}
        if not readers:
            every = " and ".join(n for n in OPTIONS if key in OPTIONS[n]) or "no suite"
            raise ConfigError(f"--{key} {value!r}: no selected suite reads it, only {every}")
        takes = {n: opt.values for n, opt in readers.items() if opt.values}
        if takes and not any(value in vals for vals in takes.values()):
            raise ConfigError(f"--{key} {value!r} has no check; " + ", ".join(
                f"{n} takes {'|'.join(vals)}" for n, vals in takes.items()))
        for n, opt in readers.items():
            if opt.least is not None and value < opt.least:
                raise ConfigError(f"--{key} {value}: {n} needs {key} >= {opt.least}, "
                                  f"{opt.why}")


def run(config):
    """Execute the selected suites; returns (exit_code, report_dict)."""
    report = {"schema": SCHEMA, "config": {k: v for k, v in config.items()
                                           if not k.startswith("_")}}
    try:
        suite = config.get("suite", "all")
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
        names = list(SUITES) if suite == "all" else [suite]
        kind = _read(config, "perturb")
        if kind and kind is not True and (names != ["relations"]
                                          or kind not in PerturbedModule.KINDS):
            raise ConfigError(f"--perturb {kind!r}: relations takes psi|e|f, "
                              "every other suite only the bare flag")
        _check_options(config, names)
        _build_params(config)
    except GenericityError as exc:
        return _error(report, 3, "genericity-error", exc)
    except ConfigError as exc:
        return _error(report, 2, "config-error", exc)
    checks = []
    timings = {}
    for name in names:
        t0 = time.perf_counter()
        before = len(checks)
        try:
            SUITES[name](config, checks)
            if len(checks) == before:
                raise ConfigError(f"suite {name!r} has no check at this configuration")
        except ConfigError as exc:
            return _error(report, 2, "config-error", exc)
        except GenericityError as exc:
            # a weight the certification does not cover vanished
            return _error(report, 3, "genericity-error", exc)
        except ZeroDivisionError:
            # a resonance above the certified bound made some weight vanish
            return _error(report, 3, "genericity-error",
                          f"suite {name!r} divided by zero at a parameter point "
                          f"certified generic only up to --G {_read(config, 'G')}")
        timings[name] = round(time.perf_counter() - t0, 3)
    report["checks"] = sorted(checks, key=lambda c: c["id"])
    report["timings"] = timings
    ok = all(c["status"] == "pass" for c in checks)
    report["status"] = "pass" if ok else "fail"
    return (0 if ok else 1), report


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="toryang-verify",
        description="exact verification suites for the toroidal/Yangian package")
    ap.add_argument("suite", nargs="?", default="all",
                    choices=sorted(SUITES) + ["all"])
    ap.add_argument("--flavor", help="toroidal|yangian (relations) or K|H (whittaker)")
    ap.add_argument("--module", help="|".join(OPTIONS["relations"]["module"].values))
    ap.add_argument("--r", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--j", type=int)
    ap.add_argument("--L", type=int, help="level bound")
    ap.add_argument("--I", type=int, help="mode window")
    ap.add_argument("--N", type=int, help="series truncation order")
    ap.add_argument("--G", type=int, default=DEFAULT_G, help="genericity bound")
    ap.add_argument("--seed", type=int, help="sample parameters from this seed")
    ap.add_argument("--params", help="JSON file with rational parameter strings")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--perturb", nargs="?", const=True,
                    help="negative control: perturb one coefficient class; the "
                         "bare flag selects the suite's own control, relations "
                         "also takes psi|e|f")
    args = ap.parse_args(argv)

    config = {key: val for key, val in vars(args).items()
              if val is not None and key not in ("params", "out")}
    if args.params:
        try:
            with open(args.params) as fh:
                config["params"] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    code, report = run(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
