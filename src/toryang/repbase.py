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

One loop, `RelationSweep`, checks operator identities, applying each word
suffix to each basis vector once per sweep.  `check_relation` feeds it one
defining relation and stops at the first failure; the series bridge's
audits (`upsilon`) and `horizontal.tt3_check` feed it instance lists of
their own, through the same hooks as the modules here.  In the additive
family, the kernel relation of g against g (Y1, Y2) and of psi against g
(Y4, Y5) is one term list, `_additive_kernel_terms`.

Exact linear combinations.  `lincomb` takes (label, a, b) triples and
returns {label: sum of a * b}.  When every factor is an int or a Fraction
it adds the products as integer (numerator, denominator) pairs and builds
one Fraction per label at the end; any other factor (a TSeries) sends the
sum through `vsum` of the products.  Either way the labels keep
first-insertion order and sums that are zero are dropped once, at the end,
by `vsum`'s rule.  `apply_mode`, `_apply_diagonal` and each (instance,
label) residual of the sweep are one `lincomb` call.

Memos.  Every value a module, a series bridge or a parameter pack keeps
for later follows one rule.  A `memoized` method (or a hand-keyed table
from `memo_table`) stores it in a dict in the owner's own `__dict__`,
keyed by the full tuple of the method's arguments, for as long as the
owner lives; the owner's attributes that such a value reads are set before
its first use.  The owner's `__dict__` is read directly, never through
`getattr`, so a `ModuleWrapper`, whose `__getattr__` passes to its base,
never serves the base's memo: a `PerturbedModule` keeps its own rows.  A
value that depends on a callable argument is split so that the memoized
part takes none (`Module.t_eigenvalue` keeps psi's beta-free log
coefficient per (label, m) and divides by beta(m) on every call).
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd

from .scalars import ratfn_expand, ratfn_log_coeffs, is_zero_mod

__all__ = [
    "memo_table", "memoized",
    "vec", "vsum", "lincomb", "is_vec_zero",
    "Module", "ModuleWrapper", "PerturbedModule", "apply_mode", "coeff_of", "apply_word",
    "word_images", "RelationSweep", "RelationReport", "check_relation",
    "RELATION_BUILDERS_T", "RELATION_BUILDERS_Y",
]


# -- memos -----------------------------------------------------------------

def memo_table(owner, name):
    """The memo dict `name` in the owner's own `__dict__`, made on first use."""
    table = owner.__dict__.get(name)
    if table is None:
        table = owner.__dict__[name] = {}
    return table


def memoized(method):
    """Keep method(self, *args) in `memo_table(self, method.__qualname__)`
    under the key args.  Arguments are passed by position."""
    name = method.__qualname__

    @wraps(method)
    def memo(self, *args):
        try:
            return self.__dict__[name][args]
        except KeyError:
            pass
        val = memo_table(self, name)[args] = method(self, *args)
        return val

    return memo


# -- sparse vectors --------------------------------------------------------

def _zero(c):
    return not c


def vec(label):
    return {label: 1}


def vsum(terms, start=()):
    """The vector `start` plus the (label, coeff) pairs of `terms`.  Entries
    only accumulate; those that sum to zero are dropped once, at the end.
    This is the one place a plain-dict vector loses its zeros."""
    out = dict(start)
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not _zero(c)}


def lincomb(triples):
    """The vector {label: sum of a * b} over the (label, a, b) triples, in
    `vsum`'s first-insertion order, with sums that are zero dropped once,
    at the end, by the same rule.

    When every a and b is an int or a Fraction, each label's products are
    added as integer (numerator, denominator) pairs over the lcm of the
    denominators seen, and one Fraction is built per label at the end (an
    int when every factor for that label is an int, as the plain sum
    gives).  Any other factor sends the whole sum through `vsum` of the
    products a * b, so series values and truncations are those of the plain
    sum."""
    triples = list(triples)
    acc = {}
    for k, a, b in triples:
        ta, tb = type(a), type(b)
        if ta is Fraction:
            an, ad = a.numerator, a.denominator
        elif ta is int:
            an, ad = a, 1
        else:
            return vsum((k, a * b) for k, a, b in triples)
        if tb is Fraction:
            bn, bd = b.numerator, b.denominator
        elif tb is int:
            bn, bd = b, 1
        else:
            return vsum((k, a * b) for k, a, b in triples)
        n, d = an * bn, ad * bd
        frac = ta is Fraction or tb is Fraction
        s = acc.get(k)
        if s is None:
            acc[k] = [n, d, frac]
            continue
        D = s[1]
        if D == d:
            s[0] += n
        elif D % d == 0:
            s[0] += n * (D // d)
        else:
            g = gcd(D, d)
            s[0] = s[0] * (d // g) + n * (D // g)
            s[1] = D * (d // g)
        if frac:
            s[2] = True
    return {k: Fraction(n, d) if frac else n
            for k, (n, d, frac) in acc.items() if n}


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

    # subclass hooks
    def _e_transitions(self, label):
        raise NotImplementedError

    def _f_transitions(self, label):
        raise NotImplementedError

    def _psi_rat(self, label):
        raise NotImplementedError

    @memoized
    def e_transitions(self, label):
        return self._e_transitions(label)

    @memoized
    def f_transitions(self, label):
        return self._f_transitions(label)

    @memoized
    def psi_rat(self, label):
        """Diagonal eigenvalue psi(z) on the label, as a factored RatFn
        (constant, zeros, poles); num/den are multiplied out only when read."""
        return self._psi_rat(label)

    # -- generic operators ------------------------------------------------
    @memoized
    def mode_row(self, kind, label, mode):
        """[(target, base * point**mode)] over the 'e' or 'f' transitions of
        the label."""
        ts = self.e_transitions(label) if kind == "e" else self.f_transitions(label)
        return [(tgt, base * point ** mode) for tgt, base, point in ts]

    def apply_e(self, mode, v):
        return apply_mode(self, "e", mode, v)

    def apply_f(self, mode, v):
        return apply_mode(self, "f", mode, v)

    @memoized
    def psi_series(self, label, direction, order):
        """Truncated expansion of the diagonal eigenvalue (X = z^-1 or z)."""
        return ratfn_expand(self.psi_rat(label), direction, order)

    def psi_coeff(self, label, sign, k):
        """Coefficient of z^-k (sign +1, expansion around infinity) or of z^k
        (sign -1, around 0) of the diagonal eigenvalue; 0 when k < 0."""
        if k < 0:
            return 0
        return self.psi_series(label, sign, k + 1).coeff(k)

    def apply_psi(self, sign, k, v):
        return _apply_diagonal(v, lambda label: self.psi_coeff(label, sign, k))

    # yangian-normalized psi_j modes: psi(z) = 1 + sig3 * sum psi_j z^-j-1
    def apply_psi_y(self, j, v, sig3):
        return _apply_diagonal(v, lambda label: self.psi_coeff(label, +1, j + 1) / sig3)

    @memoized
    def _t_log(self, label, m):
        """The z^-|m| (m > 0) or z^|m| (m < 0) coefficient of log psi on the
        label, from power sums of psi's zeros and poles (`ratfn_log_coeffs`)."""
        n = abs(m)
        return ratfn_log_coeffs(self.psi_rat(label), +1 if m > 0 else -1, n)[n - 1]

    def t_eigenvalue(self, label, m, beta):
        """Eigenvalue of the log-mode generator t_m extracted from psi.

        psi^+(z)/psi0 = exp(-sum_{m>0} beta_m/m t_m z^-m) and mirrored for
        m < 0 on the opposite expansion: the log coefficient (`_t_log`)
        divided by beta(m) on every call.
        """
        if m == 0:
            raise ValueError("t_0 is not defined")
        coeff = self._t_log(label, m)
        # for + direction: coeff = -beta_m/m * t_m ; for -: +beta_m/m * t_m
        bm = beta(m)
        if m > 0:
            return -coeff * m / bm
        return coeff * m / bm

    def apply_t(self, m, v, beta):
        return _apply_diagonal(v, lambda label: self.t_eigenvalue(label, m, beta))


def apply_mode(rows, kind, mode, v):
    """Mode `mode` of the 'e' or 'f' current on the vector v, read from
    `rows.mode_row(kind, label, mode)`: every module and the series bridge
    act through this one function."""
    return lincomb((tgt, c, coeff) for label, c in v.items()
                   for tgt, coeff in rows.mode_row(kind, label, mode))


def _apply_diagonal(v, eigenvalue):
    """The diagonal operator with eigenvalue(label) on each label, on v."""
    return lincomb((label, c, eigenvalue(label)) for label, c in v.items())


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

    Each kind scales by FACTOR: 'psi' the diagonal eigenvalue; 'f' the
    first lowering coefficient; 'e' the first raising support point (a plain
    coefficient rescale of a single raising edge is a gauge transformation
    at small levels and would slip through the quadratic relations).
    Any other kind raises ValueError.
    """

    KINDS = ("psi", "e", "f")
    FACTOR = Fraction(17, 16)

    def __init__(self, base, kind):
        if kind not in self.KINDS:
            raise ValueError(f"unknown perturbation kind {kind!r}; "
                             f"expected one of {', '.join(self.KINDS)}")
        super().__init__(base)
        self.kind = kind

    def _e_transitions(self, label):
        ts = self.base.e_transitions(label)
        if self.kind == "e" and ts:
            ts = [(ts[0][0], ts[0][1], ts[0][2] * self.FACTOR)] + list(ts[1:])
        return ts

    def _f_transitions(self, label):
        ts = self.base.f_transitions(label)
        if self.kind == "f" and ts:
            ts = [(ts[0][0], ts[0][1] * self.FACTOR, ts[0][2])] + list(ts[1:])
        return ts

    def _psi_rat(self, label):
        r = self.base.psi_rat(label)
        if self.kind == "psi":
            return r * self.FACTOR
        return r


# -- operator words and relation instantiation ----------------------------

def _apply_letter(module, letter, v, ctx):
    """One letter of a word on v: the step of `apply_word` and of the sweep's
    memo, which does not go through `apply_word` because the traced
    benchmark keys each `apply_word` call by its input vector, and a
    series-valued vector cannot be hashed (`perfbench/layers.py`)."""
    gen, idx = letter
    if gen == "e":
        return module.apply_e(idx, v)
    if gen == "f":
        return module.apply_f(idx, v)
    if gen == "psi+":
        return module.apply_psi(+1, idx, v)
    if gen == "psi-":
        return module.apply_psi(-1, idx, v)
    if gen == "psiy":
        return module.apply_psi_y(idx, v, ctx["sig3"])
    if gen == "t":
        return module.apply_t(idx, v, ctx["beta"])
    raise ValueError(f"unknown generator {gen}")


def apply_word(module, word, v, ctx):
    """Apply a composition of mode operators, leftmost letter acting last.

    Letters: ('e', i), ('f', i), ('psi+', k), ('psi-', k), ('psiy', j),
    ('t', m).  ctx supplies beta/sig3 where needed.
    """
    for letter in reversed(word):
        v = _apply_letter(module, letter, v, ctx)
        if not v:
            return v
    return v


def word_images(module, ctx):
    """image(label, word) = apply_word(module, word, vec(label), ctx), word a
    tuple, with every suffix's image computed once and kept.

    The leftmost letter acts on the kept image of the rest of the word
    (`_apply_letter`, the step of `apply_word`); an empty image stays empty.
    The memo belongs to one module and ctx.  Its keys start with the label
    and no image is shared between labels, so `RelationSweep` makes one per
    label and drops it when it moves on.
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
                    r = _apply_letter(module, word[0], r, ctx)
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


def _ladder_instances(rel, m_range, j_range):
    """[t_m, g_j] = +-g_{m+j} over m != 0, with instance ids (m, j): T4t with
    g = e and sign +, T5t with g = f and sign -."""
    g, sgn = ("e", 1) if rel == "T4t" else ("f", -1)
    return [((m, j), [(1, [("t", m), (g, j)]), (-1, [(g, j), ("t", m)]),
                      (-sgn, [(g, m + j)])], None)
            for m in m_range if m for j in j_range]


def _cubic_coeffs_t(p):
    return [1, -p.sigma1(), p.sigma2(), -1]


def t_relation_instances(rel, window, params):
    """Instantiated operator identities for the multiplicative family.

    The degree-three symmetrized family takes mode triples in [-1, 1]; its
    higher-mode instances are generated from these by the log-mode ladder,
    which the sweep covers at the full window.
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
                    return (module.psi_coeff(label, +1, k)
                            - module.psi_coeff(label, -1, -k)) / beta1

                ins.append((f"T3[{i},{j}]", terms, rhs))
        return ins
    if rel == "T4t" or rel == "T5t":
        return [(f"{rel}[{m},{j}]", terms, rhs)
                for (m, j), terms, rhs in _ladder_instances(rel, W, W)]
    if rel == "T6":
        sw = range(-1, 2)
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


def _additive_kernel_terms(x, g, i, j, sgn, s2, s3):
    """x against g in the additive kernel relation at modes (i, j), x = g or
    'psiy': the commutators [x_a, g_b] weighted by (z - w)^3 + s2 (z - w),
    and the anticommutator {x_i, g_j} times -sgn * s3."""
    terms = []
    for c, (a, b) in [(1, (i + 3, j)), (-3, (i + 2, j + 1)), (3, (i + 1, j + 2)),
                      (-1, (i, j + 3)), (s2, (i + 1, j)), (-s2, (i, j + 1))]:
        terms.append((c, [(x, a), (g, b)]))
        terms.append((-c, [(g, b), (x, a)]))
    terms.append((-sgn * s3, [(x, i), (g, j)]))
    terms.append((-sgn * s3, [(g, j), (x, i)]))
    return terms


def y_relation_instances(rel, window, params):
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
        return [(f"{rel}[{i},{j}]", _additive_kernel_terms(g, g, i, j, sgn, s2, s3), None)
                for i in W for j in W]
    if rel == "Y3":
        for i in W:
            for j in W:
                terms = [(1, [("e", i), ("f", j)]), (-1, [("f", j), ("e", i)]),
                         (-1, [("psiy", i + j)])]
                ins.append((f"Y3[{i},{j}]", terms, None))
        return ins
    if rel in ("Y4", "Y5"):
        g, sgn = ("e", 1) if rel == "Y4" else ("f", -1)
        ins = [(f"{rel}[{i},{j}]", _additive_kernel_terms("psiy", g, i, j, sgn, s2, s3), None)
               for i in W for j in W]
        # the low-mode anchors
        for j in W:
            for k, rhsc in ((0, 0), (1, 0), (2, 2 * sgn)):
                terms = [(1, [("psiy", k), (g, j)]), (-1, [(g, j), ("psiy", k)]),
                         (-rhsc, [(g, j)])]
                ins.append((f"{rel}'[{k},{j}]", terms, None))
        return ins
    if rel == "Y6":
        sw = range(0, 2)
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
    """`checked` counts the (instance, label) pairs swept; `nonvacuous` those
    among them where some word image with a nonzero coefficient, or the
    right-hand side, is nonzero, so that the check compares more than 0
    with 0."""

    def __init__(self, relation, ok, counterexample=None, checked=0, nonvacuous=0):
        self.relation = relation
        self.ok = ok
        self.counterexample = counterexample
        self.checked = checked
        self.nonvacuous = nonvacuous

    def __repr__(self):
        return (f"RelationReport({self.relation}, ok={self.ok}, checked={self.checked}, "
                f"nonvacuous={self.nonvacuous})")


class RelationSweep:
    """The failing (instance_id, level, label, residual), in the order of
    levels, then the module's basis, then the instances, which are in the
    builders' format with rhs(module, label) the right-hand side.  Each
    residual, sum of coeff * image(word) minus rhs, is one `lincomb` call,
    compared with zero exactly or mod X^hmod.  `checked` and `nonvacuous`
    count the pairs swept so far, as in `RelationReport`."""

    def __init__(self, module, instances, ctx, level_bound, hmod=None):
        self.module, self.ctx, self.level_bound, self.hmod = module, ctx, level_bound, hmod
        self.instances = [(inst_id, [(coeff, tuple(word)) for coeff, word in terms
                                     if not _zero(coeff)], rhs)
                          for inst_id, terms, rhs in instances]
        self.checked = self.nonvacuous = 0

    def __iter__(self):
        module, hmod = self.module, self.hmod
        self.checked = self.nonvacuous = 0
        for level in range(self.level_bound + 1):
            for label in module.basis(level):
                # no image is shared between labels: free each label's memo
                image = word_images(module, self.ctx)
                for inst_id, terms, rhs in self.instances:
                    triples = [(k, c, coeff) for coeff, word in terms
                               for k, c in image(label, word).items()]
                    if rhs is not None:
                        d = rhs(module, label)
                        if not _zero(d):
                            triples.append((label, d, -1))
                    self.checked += 1
                    if triples:
                        self.nonvacuous += 1
                    acc = lincomb(triples)
                    if not is_vec_zero(acc, hmod=hmod):
                        yield inst_id, level, label, acc


def check_relation(module, relation, params, level_bound, window=3, hmod=None):
    """Sweep one relation over all basis labels up to level_bound.

    Returns a RelationReport; the sweep stops at the first failing
    (instance, label), which is recorded.
    """
    if relation.startswith("T"):
        build, ctx = t_relation_instances, {"beta": params.beta}
    else:
        build, ctx = y_relation_instances, {"sig3": params.sigma3()}
    sweep = RelationSweep(module, build(relation, window, params), ctx, level_bound, hmod)
    for inst_id, level, label, resid in sweep:
        bad = {str(k): repr(c) for k, c in resid.items()}
        return RelationReport(relation, False, {"instance": inst_id, "level": level,
                                                "label": label, "residual": bad},
                              sweep.checked, sweep.nonvacuous)
    return RelationReport(relation, True, None, sweep.checked, sweep.nonvacuous)
