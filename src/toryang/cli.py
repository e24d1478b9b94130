"""Batch verification driver with deterministic JSON reports.

Exit codes: 0 all selected checks pass; 1 at least one check failed;
2 configuration error; 3 genericity certification failure.

All numeric configuration travels as rational strings ("3/2", "7") so no
floating point can leak in.  Reports are reproducible: the only
non-deterministic fields are the per-check timings, kept separate from the
payload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .params import (GenericityError, ToroidalParams, YangianParams,
                     default_toroidal, default_yangian, sample_generic_params)
from .repbase import (PerturbedModule, RELATION_BUILDERS_T, RELATION_BUILDERS_Y,
                      check_relation)

__all__ = ["run", "main", "parse_rational"]

SCHEMA = 1


def parse_rational(s):
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {s!r}")
    f = Fraction(s)
    return f


class Check:
    def __init__(self, cid, ok, details=None):
        self.cid = cid
        self.ok = ok
        self.details = details
        self.seconds = 0.0

    def to_json(self):
        out = {"id": self.cid, "status": "pass" if self.ok else "fail"}
        if self.details is not None:
            out["details"] = self.details
        return out


def _modules(config, params, fixed_point):
    from .toroidal import FockModule, VectorModule

    which = config.get("module", "all")
    r = config.get("r", 2)
    out = []
    if which in ("vector", "all"):
        out.append(("vector", VectorModule(params, Fraction(1, 5))))
    if which in ("fock", "all"):
        out.append(("fock", FockModule(params, Fraction(1, 5))))
    if which in ("fixedpoint", "all"):
        for rr in range(1, r + 1):
            out.append((f"fixedpoint-r{rr}", fixed_point(params, rr)))
    return out


def _suite_relations(config, checks):
    from .toroidal import KTheoryFixedPointModule
    from .yangian import CohomologyFixedPointModule

    L = config.get("L", 3)
    window = config.get("I", 2)
    perturb = config.get("perturb")
    flavors = [config["flavor"]] if config.get("flavor") in ("toroidal", "yangian") \
        else ["toroidal", "yangian"]
    if perturb is True:
        perturb = "psi"
    families = {"toroidal": ("_tparams", KTheoryFixedPointModule, RELATION_BUILDERS_T),
                "yangian": ("_yparams", CohomologyFixedPointModule, RELATION_BUILDERS_Y)}
    for flavor in flavors:
        pkey, fixed_point, relations = families[flavor]
        params = config[pkey]
        try:
            modules = _modules(config, params, fixed_point)
        except ValueError as exc:
            raise ConfigError(f"--r {config.get('r', 2)}: {exc}") from None
        for name, module in modules:
            lvl = L if "fixedpoint" not in name else min(L, 3)
            if perturb:
                module = PerturbedModule(module, perturb)
            for rel in relations:
                rep = check_relation(module, rel, params, lvl, window=window)
                cid = f"relations:{flavor}:{name}:{rel}"
                if not rep.checked:
                    raise ConfigError(f"{cid} has no instance at --L {L} --I {window}")
                checks.append(Check(cid, rep.ok, rep.counterexample))


def _suite_whittaker(config, checks):
    from .whittaker import whittaker_eigencheck

    perturb = config.get("perturb")
    flavors = [config["flavor"]] if config.get("flavor") in ("K", "H") else ["K", "H"]
    rs = [config["r"]] if config.get("r") else [1, 2]
    ns = [config["n"]] if config.get("n") else [1, 2]
    L = config.get("L", 2)
    for flavor in flavors:
        for r in rs:
            params = (config["_tparams"] if flavor == "K" else config["_yparams"])
            if len((params.chis if flavor == "K" else params.xs)) < r:
                params = (default_toroidal(r) if flavor == "K" else default_yangian(r))
            for n in ns:
                js = [config["j"]] if config.get("j") is not None else list(range(r + 1))
                for j in js:
                    val, fails = whittaker_eigencheck(flavor, r, n, j, L, params,
                                                      perturb=bool(perturb))
                    checks.append(Check(
                        f"whittaker:{flavor}:r{r}:n{n}:j{j}",
                        not fails,
                        {"eigenvalue": str(val), "failures": [str(f) for f in fails]}))


def _suite_shuffle(config, checks):
    from .shuffle import (K_element, L_element, star_commutator, stable_membership,
                          wheel_check, x_power, star)

    tp = config["_tparams"]
    yp = config["_yparams"]
    perturb = config.get("perturb")
    deg = config.get("L", 4)
    for flavor, p in (("m", tp), ("a", yp)):
        gens = {}
        for jj in range(1, deg):
            gens[("K", jj)] = K_element(flavor, jj, p)
            gens[("L", jj)] = L_element(flavor, jj, p)
        ok = all(wheel_check(g, p) for g in gens.values())
        checks.append(Check(f"shuffle:{flavor}:wheel", ok))
        ok = all(stable_membership(g) for g in gens.values())
        checks.append(Check(f"shuffle:{flavor}:membership", ok))
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
        checks.append(Check(f"shuffle:{flavor}:commutativity", comm_ok))
    # relation images under the arity-one assignment
    sig2 = yp.sigma2() + (Fraction(1, 16) if perturb else 0)
    sig3 = yp.sigma3()
    img_ok = True
    for i in (0, 1):
        for j in (0, 1):
            acc = None
            terms = [(1, (i + 3, j)), (-3, (i + 2, j + 1)), (3, (i + 1, j + 2)),
                     (-1, (i, j + 3)), (sig2, (i + 1, j)), (-sig2, (i, j + 1))]
            for cc, (a, b) in terms:
                t = star_commutator(x_power("a", a), x_power("a", b), yp) * cc
                acc = t if acc is None else acc + t
            for (a, b) in ((i, j), (j, i)):
                acc = acc - star(x_power("a", a), x_power("a", b), yp) * sig3
            if not acc.is_zero():
                img_ok = False
    checks.append(Check("shuffle:a:relation-image", img_ok))


def _suite_limits(config, checks):
    from .diffops import (check_theta_a_relations, check_theta_m_relations,
                          hall_image, jacobi_hop, jacobi_qop,
                          lambda_constant, nested_ratio_additive,
                          nested_ratio_multiplicative, pick_closed_form,
                          serre_multiple_a, serre_multiple_m)

    q = config["_tparams"].q1
    h = config["_yparams"].h1
    perturb = config.get("perturb")
    bound = config.get("L", 3)
    fails = check_theta_m_relations(q, window=config.get("I", 2))
    checks.append(Check("limits:theta-m-relations", not fails, [str(f) for f in fails]))
    fails = check_theta_a_relations(h, window=config.get("I", 2))
    checks.append(Check("limits:theta-a-relations", not fails, [str(f) for f in fails]))
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
    checks.append(Check("limits:pick-closed-forms", ok))
    ok = True
    for N in range(2, 7):
        for n in range(3, 5):
            lam_ok, _ = nested_ratio_multiplicative(N, n, q)
            bet_ok, _ = nested_ratio_additive(N, n, h)
            ok = ok and lam_ok and bet_ok
    checks.append(Check("limits:nested-ratios", ok))
    checks.append(Check("limits:serre-multiples",
                        all(serre_multiple_m(n, q) and serre_multiple_a(n, h)
                            for n in (3, 4, 5))))
    checks.append(Check("limits:jacobi",
                        jacobi_qop(q, [((1, 2), (0, -2), (-1, 1)),
                                       ((2, -1), (1, 1), (-3, 0))])
                        and jacobi_hop(h, [((1, 2), (0, -2), (1, 1)),
                                           ((2, -1), (1, 1), (3, 0))])))


def _suite_upsilon(config, checks):
    from .upsilon import (UpsilonBridge, borel_kernel_identity, borel_log_identity,
                          ch_solver, limit_h3_diffop_identities,
                          limit_h3_module_check)

    perturb = config.get("perturb")
    trunc = config.get("N", 14)
    hmod = min(9, trunc - 4)
    L = min(config.get("L", 2), 2)
    br = UpsilonBridge(13, 1, (Fraction(1, 5),), 1, trunc=trunc)
    if perturb:
        br.gpre = br.gpre * Fraction(17, 16)
    checks.append(Check("upsilon:specialization", True,
                        {"direction": ["13", "1"], "shifts": ["1/5"],
                         "truncation": trunc, "residual-order": hmod}))
    checks.append(Check("upsilon:borel-log-identity", borel_log_identity(8)))
    fails = borel_kernel_identity(br, L, 3, hmod=hmod)
    checks.append(Check("upsilon:borel-kernel", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_t3(L, 2, hmod=hmod)
    checks.append(Check("upsilon:t3-audit", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_t4_ladder(L, range(-2, 3), range(-1, 2), hmod=hmod)
    checks.append(Check("upsilon:ladder-audit", not fails, [str(f) for f in fails[:3]]))
    fails = br.audit_cubic(L, hmod=hmod)
    checks.append(Check("upsilon:cubic-audit", not fails, [str(f) for f in fails[:3]]))
    consts, fails = ch_solver(13, 1, (Fraction(1, 5),), 1, min(L + 1, 3),
                              trunc=trunc, hmod=hmod)
    checks.append(Check("upsilon:comparison-map", not fails, [str(f) for f in fails[:3]]))
    fails = limit_h3_diffop_identities(hmod=hmod)
    checks.append(Check("upsilon:limit-diffop", not fails, [str(f) for f in fails[:3]]))
    fails = limit_h3_module_check(1, level_bound=L, hmod=min(8, hmod))
    checks.append(Check("upsilon:limit-module", not fails, [str(f) for f in fails[:3]]))


def _suite_horizontal(config, checks):
    from .horizontal import (closed_form_series, horizontal_params,
                             horizontal_tensor_coeff, matrix_coeff_series,
                             single_factor_closed_form, tt3_check)
    from .shuffle import stable_membership, wheel_check

    perturb = config.get("perturb")
    p = horizontal_params()
    c = (1 - p.q3) * Fraction(1, 5)
    order = config.get("N", 6)
    fails = tt3_check(p, c, window=2, degree_cap=min(config.get("L", 2), 2))
    checks.append(Check("horizontal:tt3", not fails, [str(f) for f in fails[:3]]))
    for n in (2, 3):
        a = matrix_coeff_series(p, c, n, order)
        b = closed_form_series(p, c, n, order)
        if perturb:
            b = b * Fraction(17, 16)
        checks.append(Check(f"horizontal:product-formula:n{n}", a == b))
    t = horizontal_tensor_coeff([c, (1 - p.q3) * Fraction(2, 7)], 2, p)
    checks.append(Check("horizontal:tensor-membership",
                        wheel_check(t, p) and stable_membership(t)))
    t1 = horizontal_tensor_coeff([c], 2, p)
    checks.append(Check("horizontal:single-factor",
                        t1.num == single_factor_closed_form(p, c, 2).num))


SUITES = {
    "relations": _suite_relations,
    "whittaker": _suite_whittaker,
    "shuffle": _suite_shuffle,
    "limits": _suite_limits,
    "upsilon": _suite_upsilon,
    "horizontal": _suite_horizontal,
}


def _build_params(config):
    G = config.get("G", 12)
    r = config.get("r", 2)
    praw = config.get("params") or {}
    try:
        if "q1" in praw or "q2" in praw:
            chis = [parse_rational(x) for x in praw.get("chis", ["5", "7", "11"])]
            tp = ToroidalParams(parse_rational(praw.get("q1", "2")),
                                parse_rational(praw.get("q2", "3")),
                                tuple(chis[:max(r, 2)]), G=G)
        elif config.get("seed") is not None:
            tp = sample_generic_params(config["seed"], "toroidal", r=max(r, 2), G=G)
        else:
            tp = default_toroidal(max(r, 2), G=G)
        if "h1" in praw or "h2" in praw:
            xs = [parse_rational(x) for x in praw.get("xs", ["1/5", "1/7", "1/11"])]
            yp = YangianParams(parse_rational(praw.get("h1", "13")),
                               parse_rational(praw.get("h2", "1")),
                               tuple(xs[:max(r, 2)]), G=G)
        elif config.get("seed") is not None:
            yp = sample_generic_params(config["seed"], "yangian", r=max(r, 2), G=G)
        else:
            yp = default_yangian(max(r, 2), G=G)
    except GenericityError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc))
    config["_tparams"] = tp
    config["_yparams"] = yp


class ConfigError(ValueError):
    pass


def _error(report, code, status, exc):
    report["status"] = status
    report["error"] = str(exc)
    return code, report


def run(config):
    """Execute the selected suites; returns (exit_code, report_dict)."""
    report = {"schema": SCHEMA, "config": {k: v for k, v in config.items()
                                           if not k.startswith("_")}}
    try:
        suite = config.get("suite", "all")
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}")
        names = list(SUITES) if suite == "all" else [suite]
        kind = config.get("perturb")
        if kind and kind is not True and (names != ["relations"]
                                          or kind not in PerturbedModule.KINDS):
            raise ConfigError(f"--perturb {kind!r}: relations takes psi|e|f, "
                              "every other suite only the bare flag")
        for key in ("L", "I", "N"):
            if config.get(key, 0) < 0:
                raise ConfigError(f"--{key} {config[key]} is negative; every scale "
                                  "starts at 0")
        if "upsilon" in names and config.get("N", 14) <= 4:
            raise ConfigError(f"--N {config['N']} leaves the series bridge a "
                              "residual order <= 0; it needs N >= 5")
        if "shuffle" in names and config.get("L", 4) < 2:
            raise ConfigError(f"--L {config['L']} leaves the shuffle battery no "
                              "generator; it needs L >= 2")
        if "limits" in names and config.get("L", 3) < 1:
            raise ConfigError(f"--L {config['L']} leaves the closed-form sweep no "
                              "(k, l) pair; it needs L >= 1")
        _build_params(config)
    except GenericityError as exc:
        return _error(report, 3, "genericity-error", exc)
    except ConfigError as exc:
        return _error(report, 2, "config-error", exc)
    checks = []
    timings = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            SUITES[name](config, checks)
        except ConfigError as exc:
            return _error(report, 2, "config-error", exc)
        timings[name] = round(time.perf_counter() - t0, 3)
    checks.sort(key=lambda c: c.cid)
    report["checks"] = [c.to_json() for c in checks]
    report["timings"] = timings
    ok = all(c.ok for c in checks)
    report["status"] = "pass" if ok else "fail"
    return (0 if ok else 1), report


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="toryang-verify",
        description="exact verification suites for the toroidal/Yangian package")
    ap.add_argument("suite", nargs="?", default=None,
                    choices=sorted(SUITES) + ["all"])
    ap.add_argument("--suite", dest="suite_opt", default=None,
                    choices=sorted(SUITES) + ["all"])
    ap.add_argument("--flavor", help="toroidal|yangian (relations) or K|H (whittaker)")
    ap.add_argument("--module", help="vector|fock|fixedpoint|all")
    ap.add_argument("--r", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--j", type=int)
    ap.add_argument("--L", type=int, help="level bound")
    ap.add_argument("--I", type=int, help="mode window")
    ap.add_argument("--N", type=int, help="series truncation order")
    ap.add_argument("--G", type=int, default=12, help="genericity bound")
    ap.add_argument("--seed", type=int, help="sample parameters from this seed")
    ap.add_argument("--params", help="JSON file with rational parameter strings")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--perturb", nargs="?", const=True,
                    help="negative control: perturb one coefficient class; the "
                         "bare flag selects the suite's own control, relations "
                         "also takes psi|e|f")
    args = ap.parse_args(argv)

    config = {"suite": args.suite_opt or args.suite or "all", "G": args.G}
    for key in ("flavor", "module", "r", "n", "j", "L", "I", "N", "seed", "perturb"):
        val = getattr(args, key)
        if val is not None:
            config[key] = val
    if args.params:
        try:
            with open(args.params) as fh:
                config["params"] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        code, report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
