"""Shared machinery for modules with explicit matrix coefficients.

Every module in this package acts on finitely supported vectors over basis
labels.  Raising and lowering currents always have the delta-supported shape

    e(z) v_label = sum over transitions (target, c, p) of  c * delta-power(p)

so the mode-k operator multiplies the base coefficient c by p**k.  Each
module computes the mode-k row [(target, c * p**k)] of a label once and
keeps it.  The diagonal current is stored per label as a rational function
of z kept in factored form (constant, zeros, poles).  Its modes come from
the series expansion, made on demand; its log-modes come from power sums of
the zeros and poles without any expansion.  This removes all
formal-distribution bookkeeping.

`check_relation` applies each word suffix to each basis vector once per
call: a word's image is its leftmost letter applied to the image of the
rest, and words of an instance family share most of their suffixes.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ratfn_expand, ratfn_log_coeffs, is_zero_mod

__all__ = [
    "vec", "vadd", "vscale", "vsub", "is_vec_zero",
    "Module", "ModuleWrapper", "PerturbedModule", "coeff_of", "apply_word",
    "word_images", "RelationReport", "check_relation",
    "RELATION_BUILDERS_T", "RELATION_BUILDERS_Y",
]


# -- sparse vectors --------------------------------------------------------

def vec(label, coeff=1):
    return {label: coeff}


def vadd(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) + c
        if not s:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vscale(u, c):
    return {k: v * c for k, v in u.items()}


def vsub(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) - c
        if not s:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def is_vec_zero(u, hmod=None):
    for c in u.values():
        if hmod is None:
            if c != 0:
                return False
        else:
            if not is_zero_mod(c, hmod):
                return False
    return True


class Module:
    """Base class: subclasses provide transitions and the diagonal data.

    e_transitions(label) -> [(target, base_coeff, point)]
    f_transitions(label) -> [(target, base_coeff, point)]
    psi_rat(label)       -> RatFn in z, built with RatFn.from_factors
    level(label)         -> int; basis(level) -> list of labels
    """

    def __init__(self):
        self._e_cache = {}
        self._f_cache = {}
        self._psi_cache = {}
        self._series_cache = {}
        self._row_cache = {}

    # subclass hooks
    def _e_transitions(self, label):
        raise NotImplementedError

    def _f_transitions(self, label):
        raise NotImplementedError

    def _psi_rat(self, label):
        raise NotImplementedError

    def e_transitions(self, label):
        if label not in self._e_cache:
            self._e_cache[label] = self._e_transitions(label)
        return self._e_cache[label]

    def f_transitions(self, label):
        if label not in self._f_cache:
            self._f_cache[label] = self._f_transitions(label)
        return self._f_cache[label]

    def psi_rat(self, label):
        """Diagonal eigenvalue psi(z) on the label, as a factored RatFn
        (constant, zeros, poles); num/den are multiplied out only when read."""
        if label not in self._psi_cache:
            self._psi_cache[label] = self._psi_rat(label)
        return self._psi_cache[label]

    # -- generic operators ------------------------------------------------
    def mode_row(self, kind, label, mode):
        """[(target, base * point**mode)] over the 'e' or 'f' transitions of
        the label, computed once per (kind, label, mode)."""
        key = (kind, label, mode)
        row = self._row_cache.get(key)
        if row is None:
            ts = self.e_transitions(label) if kind == "e" else self.f_transitions(label)
            row = self._row_cache[key] = [(tgt, base * point ** mode)
                                          for tgt, base, point in ts]
        return row

    def _apply_mode(self, kind, mode, v):
        out = {}
        for label, c in v.items():
            for tgt, coeff in self.mode_row(kind, label, mode):
                out[tgt] = out.get(tgt, 0) + c * coeff
        return {k: c for k, c in out.items() if not _zero(c)}

    def apply_e(self, mode, v):
        return self._apply_mode("e", mode, v)

    def apply_f(self, mode, v):
        return self._apply_mode("f", mode, v)

    def psi_series(self, label, direction, order):
        """Truncated expansion of the diagonal eigenvalue (X = z^-1 or z)."""
        key = (label, direction, order)
        if key not in self._series_cache:
            self._series_cache[key] = ratfn_expand(self.psi_rat(label), direction, order)
        return self._series_cache[key]

    def psi_plus_coeff(self, label, k, order=None):
        """Coefficient of z^-k in the expansion around infinity (k >= 0)."""
        if k < 0:
            return 0
        s = self.psi_series(label, +1, order or k + 1)
        return s.coeff(k)

    def psi_minus_coeff(self, label, k, order=None):
        if k < 0:
            return 0
        s = self.psi_series(label, -1, order or k + 1)
        return s.coeff(k)

    def apply_psi(self, sign, k, v):
        get = self.psi_plus_coeff if sign > 0 else self.psi_minus_coeff
        out = {}
        for label, c in v.items():
            val = c * get(label, k)
            if not _zero(val):
                out[label] = val
        return out

    # yangian-normalized psi_j modes: psi(z) = 1 + sig3 * sum psi_j z^-j-1
    def apply_psi_y(self, j, v, sig3):
        out = {}
        for label, c in v.items():
            ev = (self.psi_plus_coeff(label, j + 1)) / sig3
            val = c * ev
            if not _zero(val):
                out[label] = val
        return out

    def t_eigenvalue(self, label, m, beta):
        """Eigenvalue of the log-mode generator t_m extracted from psi.

        psi^+(z)/psi0 = exp(-sum_{m>0} beta_m/m t_m z^-m) and mirrored for
        m < 0 on the opposite expansion.  The log coefficient comes from
        power sums of psi's zeros and poles (`ratfn_log_coeffs`).
        """
        if m == 0:
            raise ValueError("t_0 is not defined")
        n = abs(m)
        coeff = ratfn_log_coeffs(self.psi_rat(label), +1 if m > 0 else -1, n)[n - 1]
        # for + direction: coeff = -beta_m/m * t_m ; for -: +beta_m/m * t_m
        bm = beta(m)
        if m > 0:
            return -coeff * m / bm
        return coeff * m / bm

    def apply_t(self, m, v, beta):
        out = {}
        for label, c in v.items():
            val = c * self.t_eigenvalue(label, m, beta)
            if not _zero(val):
                out[label] = val
        return out


def _zero(c):
    return not c


def coeff_of(transitions, label):
    """Coefficient of the transition into `label` (0 when there is none)."""
    for (tgt, c, p) in transitions:
        if tgt == label:
            return c
    return Fraction(0)


class ModuleWrapper(Module):
    """A module acting through `base`: every hook passes through until a
    subclass overrides it, and attributes it lacks (params, r, ...) are
    read from the base."""

    def __init__(self, base):
        super().__init__()
        self.base = base

    def __getattr__(self, name):
        return getattr(self.base, name)

    def level(self, label):
        return self.base.level(label)

    def basis(self, level):
        return self.base.basis(level)

    def _e_transitions(self, label):
        return self.base.e_transitions(label)

    def _f_transitions(self, label):
        return self.base.f_transitions(label)

    def _psi_rat(self, label):
        return self.base.psi_rat(label)


class PerturbedModule(ModuleWrapper):
    """Wrap a module, corrupting one class of coefficients (negative controls).

    'psi' scales the diagonal eigenvalue; 'f' scales the first lowering
    coefficient; 'e' scales the first raising support point (a plain
    coefficient rescale of a single raising edge is a gauge transformation
    at small levels and would slip through the quadratic relations).
    Any other kind raises ValueError.
    """

    KINDS = ("psi", "e", "f")

    def __init__(self, base, kind, factor=Fraction(17, 16)):
        if kind not in self.KINDS:
            raise ValueError(f"unknown perturbation kind {kind!r}; "
                             f"expected one of {', '.join(self.KINDS)}")
        super().__init__(base)
        self.kind = kind
        self.factor = factor

    def _e_transitions(self, label):
        ts = self.base.e_transitions(label)
        if self.kind == "e" and ts:
            ts = [(ts[0][0], ts[0][1], ts[0][2] * self.factor)] + list(ts[1:])
        return ts

    def _f_transitions(self, label):
        ts = self.base.f_transitions(label)
        if self.kind == "f" and ts:
            ts = [(ts[0][0], ts[0][1] * self.factor, ts[0][2])] + list(ts[1:])
        return ts

    def _psi_rat(self, label):
        r = self.base.psi_rat(label)
        if self.kind == "psi":
            return r * self.factor
        return r


# -- operator words and relation instantiation ----------------------------

def apply_word(module, word, v, ctx):
    """Apply a composition of mode operators, leftmost letter acting last.

    Letters: ('e', i), ('f', i), ('psi+', k), ('psi-', k), ('psiy', j),
    ('t', m).  ctx supplies beta/sig3 where needed.
    """
    for gen, idx in reversed(word):
        if gen == "e":
            v = module.apply_e(idx, v)
        elif gen == "f":
            v = module.apply_f(idx, v)
        elif gen == "psi+":
            v = module.apply_psi(+1, idx, v)
        elif gen == "psi-":
            v = module.apply_psi(-1, idx, v)
        elif gen == "psiy":
            v = module.apply_psi_y(idx, v, ctx["sig3"])
        elif gen == "t":
            v = module.apply_t(idx, v, ctx["beta"])
        else:
            raise ValueError(f"unknown generator {gen}")
        if not v:
            return v
    return v


def word_images(module, ctx):
    """image(label, word) = apply_word(module, word, vec(label), ctx), word a
    tuple, with every suffix's image computed once and kept.

    The leftmost letter acts on the kept image of the rest of the word; an
    empty image stays empty.  The memo belongs to one module and ctx, so
    callers make one per sweep and drop it afterwards.
    """
    memo = {}

    def image(label, word):
        key = (label, word)
        r = memo.get(key)
        if r is None:
            if not word:
                r = vec(label)
            else:
                r = image(label, word[1:])
                if r:
                    r = apply_word(module, word[:1], r, ctx)
            memo[key] = r
        return r

    return image


def _commutator_words(w1, w2):
    return [(1, w1 + w2), (-1, w2 + w1)]


def _nested(letter, indices):
    """[a_{i1}, [a_{i2}, [... a_{in}]]] as (coeff, word) pairs."""
    terms = [(1, [(letter, indices[-1])])]
    for i in reversed(indices[:-1]):
        new = []
        for c, w in terms:
            new.append((c, [(letter, i)] + w))
            new.append((-c, w + [(letter, i)]))
        terms = new
    return terms


def _sym3_nested(letter, i1, i2, i3, shift_mid, shift_last):
    from itertools import permutations

    out = []
    for a, b, c in permutations((i1, i2, i3)):
        out.extend(_nested(letter, (a, b + shift_mid, c + shift_last)))
    return out


# Each builder returns a list of instances; an instance is
# (instance_id, [(coeff_fn(params), word), ...], rhs_diag_fn or None).
# Residual = sum coeff * word(v) - diagonal(v); must vanish.


def _cubic_coeffs_t(p):
    return [1, -p.sigma1(), p.sigma2(), -1]


def t_relation_instances(rel, window, params, cubic=1):
    """Instantiated operator identities for the multiplicative family.

    `cubic` bounds the mode triples of the degree-three symmetrized family;
    its higher-mode instances are generated from these by the log-mode
    ladder, which the sweep covers at the full window.
    """
    W = range(-window, window + 1)
    ins = []
    if rel == "T0":
        for a in range(0, window + 1):
            for b in range(0, window + 1):
                for s1 in ("psi+", "psi-"):
                    for s2 in ("psi+", "psi-"):
                        terms = _commutator_words([(s1, a)], [(s2, b)])
                        ins.append((f"[{s1}_{a},{s2}_{b}]", terms, None))
        return ins
    if rel == "T1" or rel == "T2":
        g = "e" if rel == "T1" else "f"
        cs = _cubic_coeffs_t(params)
        for i in W:
            for j in W:
                terms = []
                for k in range(4):
                    if g == "e":
                        terms.append((cs[k], [(g, i + 3 - k), (g, j + k)]))
                        terms.append((cs[k], [(g, j + 3 - k), (g, i + k)]))
                    else:
                        # opposite kernel order for the lowering family
                        terms.append((cs[k], [(g, i + k), (g, j + 3 - k)]))
                        terms.append((cs[k], [(g, j + k), (g, i + 3 - k)]))
                ins.append((f"{rel}[{i},{j}]", terms, None))
        return ins
    if rel == "T3":
        beta1 = params.beta(1)
        for i in W:
            for j in W:
                terms = [(1, [("e", i), ("f", j)]), (-1, [("f", j), ("e", i)])]
                k = i + j

                def rhs(module, label, k=k, beta1=beta1):
                    return (module.psi_plus_coeff(label, k)
                            - module.psi_minus_coeff(label, -k)) / beta1

                ins.append((f"T3[{i},{j}]", terms, rhs))
        return ins
    if rel == "T4t" or rel == "T5t":
        g, sgn = ("e", 1) if rel == "T4t" else ("f", -1)
        for m in W:
            if m == 0:
                continue
            for j in W:
                terms = [(1, [("t", m), (g, j)]), (-1, [(g, j), ("t", m)]),
                         (-sgn, [(g, m + j)])]
                ins.append((f"{rel}[{m},{j}]", terms, None))
        return ins
    if rel == "T6":
        sw = range(-cubic, cubic + 1)
        ins = []
        for g in ("e", "f"):
            for i1 in sw:
                for i2 in sw:
                    for i3 in sw:
                        terms = _sym3_nested(g, i1, i2, i3, +1, -1)
                        ins.append((f"T6{g}[{i1},{i2},{i3}]", terms, None))
        return ins
    if rel == "T6t":
        ins = []
        for g in ("e", "f"):
            terms = _nested(g, (0, 1, -1))
            ins.append((f"T6t{g}", terms, None))
        return ins
    raise ValueError(f"unknown relation {rel}")


def y_relation_instances(rel, window, params, cubic=1):
    """Instantiated operator identities for the additive family."""
    W = range(0, window + 1)
    s2, s3 = params.sigma2(), params.sigma3()
    ins = []
    if rel == "Y0":
        for a in W:
            for b in W:
                terms = [(1, [("psiy", a), ("psiy", b)]), (-1, [("psiy", b), ("psiy", a)])]
                ins.append((f"Y0[{a},{b}]", terms, None))
        return ins
    if rel in ("Y1", "Y2"):
        g, sgn = ("e", 1) if rel == "Y1" else ("f", -1)
        for i in W:
            for j in W:
                terms = []
                for c, (a, b) in [(1, (i + 3, j)), (-3, (i + 2, j + 1)),
                                  (3, (i + 1, j + 2)), (-1, (i, j + 3))]:
                    terms.append((c, [(g, a), (g, b)]))
                    terms.append((-c, [(g, b), (g, a)]))
                for c, (a, b) in [(s2, (i + 1, j)), (-s2, (i, j + 1))]:
                    terms.append((c, [(g, a), (g, b)]))
                    terms.append((-c, [(g, b), (g, a)]))
                # anticommutator term moves to the left side
                terms.append((-sgn * s3, [(g, i), (g, j)]))
                terms.append((-sgn * s3, [(g, j), (g, i)]))
                ins.append((f"{rel}[{i},{j}]", terms, None))
        return ins
    if rel == "Y3":
        for i in W:
            for j in W:
                terms = [(1, [("e", i), ("f", j)]), (-1, [("f", j), ("e", i)]),
                         (-1, [("psiy", i + j)])]
                ins.append((f"Y3[{i},{j}]", terms, None))
        return ins
    if rel in ("Y4", "Y5"):
        g, sgn = ("e", 1) if rel == "Y4" else ("f", -1)
        for i in W:
            for j in W:
                terms = []
                for c, (a, b) in [(1, (i + 3, j)), (-3, (i + 2, j + 1)),
                                  (3, (i + 1, j + 2)), (-1, (i, j + 3)),
                                  (s2, (i + 1, j)), (-s2, (i, j + 1))]:
                    terms.append((c, [("psiy", a), (g, b)]))
                    terms.append((-c, [(g, b), ("psiy", a)]))
                terms.append((-sgn * s3, [("psiy", i), (g, j)]))
                terms.append((-sgn * s3, [(g, j), ("psiy", i)]))
                ins.append((f"{rel}[{i},{j}]", terms, None))
        # the low-mode anchors
        for j in W:
            for k, rhsc in ((0, 0), (1, 0), (2, 2 * sgn)):
                terms = [(1, [("psiy", k), (g, j)]), (-1, [(g, j), ("psiy", k)]),
                         (-rhsc, [(g, j)])]
                ins.append((f"{rel}'[{k},{j}]", terms, None))
        return ins
    if rel == "Y6":
        sw = range(0, cubic + 1)
        for g in ("e", "f"):
            for i1 in sw:
                for i2 in sw:
                    for i3 in sw:
                        terms = _sym3_nested(g, i1, i2, i3, 0, +1)
                        ins.append((f"Y6{g}[{i1},{i2},{i3}]", terms, None))
        return ins
    raise ValueError(f"unknown relation {rel}")


RELATION_BUILDERS_T = ("T0", "T1", "T2", "T3", "T4t", "T5t", "T6", "T6t")
RELATION_BUILDERS_Y = ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6")


class RelationReport:
    def __init__(self, relation, ok, counterexample=None, checked=0):
        self.relation = relation
        self.ok = ok
        self.counterexample = counterexample
        self.checked = checked

    def to_json(self):
        return {
            "relation": self.relation,
            "status": "pass" if self.ok else "fail",
            "instances_checked": self.checked,
            "counterexample": self.counterexample,
        }

    def __repr__(self):
        return f"RelationReport({self.relation}, ok={self.ok}, checked={self.checked})"


def check_relation(module, relation, params, level_bound, window=3, hmod=None,
                   cubic=1):
    """Sweep one relation over all basis labels up to level_bound.

    Returns a RelationReport; the first failing (instance, label) is recorded.
    """
    if relation.startswith("T"):
        instances = t_relation_instances(relation, window, params, cubic=cubic)
        ctx = {"beta": params.beta}
    else:
        instances = y_relation_instances(relation, window, params, cubic=cubic)
        ctx = {"sig3": params.sigma3()}
    image = word_images(module, ctx)
    checked = 0
    for level in range(0, level_bound + 1):
        for label in module.basis(level):
            for inst_id, terms, rhs in instances:
                acc = {}
                for coeff, word in terms:
                    if _zero(coeff):
                        continue
                    r = image(label, tuple(word))
                    if r:
                        acc = vadd(acc, vscale(r, coeff))
                if rhs is not None:
                    d = rhs(module, label)
                    if not _zero(d):
                        acc = vadd(acc, {label: -d})
                checked += 1
                if not is_vec_zero(acc, hmod=hmod):
                    bad = {str(k): repr(c) for k, c in acc.items()}
                    return RelationReport(
                        relation, False,
                        {"instance": inst_id, "level": level, "label": label,
                         "residual": bad}, checked)
    return RelationReport(relation, True, None, checked)
