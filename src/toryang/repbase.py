"""Shared machinery for modules with explicit matrix coefficients.

Every module in this package acts on finitely supported vectors over basis
labels.  Raising and lowering currents always have the delta-supported shape

    e(z) v_label = sum over transitions (target, c, p) of  c * delta-power(p)

so the mode-k operator multiplies c by `point_power(p, k)`: p**k, or
exp(k * p) on the series bridge.  Each module computes the mode-k row of a
label once and keeps it.  The diagonal current is stored per label as a
rational function of z in factored form (constant, zeros, poles).  Its
log-modes come from power sums of the zeros and poles without any
expansion, and its modes from the exponential of the log-modes,
k b_k = sum_j j c_j b_(k-j): one table per (label, sign),
`Module.psi_modes`, read by the psi+-, psiy and t letters and extended in
place when a larger mode is read (`RatFnModes`).  `psi_series`, the
expansion by `ratfn_expand`, stays as an independent route.

One loop, `RelationSweep`, checks operator identities, applying each word
suffix to each basis vector once per sweep.  `check_relation` feeds it one
defining relation and stops at the first failure; the series bridge's
audits (`upsilon`) and `horizontal.tt3_check` feed it instance lists of
their own.  An instance is (id, [(coeff, word)]), and the relation states
that the sum of coeff * word vanishes: a diagonal right-hand side, such as
T3's psi+- or Y3's psiy, is one more word of diagonal letters.  Every
object it sweeps, a `Module` (the series bridge is one, whose psi+- are
its reconstructed family over 1 - q3) or the boson states, answers one
hook, `sweep_row`, for every letter.  It puts each instance list in normal
form once: terms collected per word; an instance left with no term, a
formal tautology, counted as holding by construction and never swept; and
one whose terms are a rational multiple of an earlier one's, an alias,
reading that one's residual, scaled.  `checked` and `nonvacuous` still
count every instance, and every failing instance is reported.  In the
additive family, the kernel relation of g against g (Y1, Y2) and of psi
against g (Y4, Y5) is one term list, `_additive_kernel_terms`, and in the
multiplicative family T3 on a module and on the bridge is `_t3_terms`.

Exact linear combinations.  A sweep keeps its word images as numerators
over one denominator, on every object it sweeps: each (letter, label) is
compiled once to a row (den, [(target, n)]), n an int, or a TSeries as its
own numerator over 1.  A `Module` builds an e or f row from the transitions
of its (kind, label), kept once as (target, base numerator, base
denominator, point), and the point's factor at the mode, with no Fraction
product; a diagonal letter's row is its eigenvalue on the label.  Each
instance's terms are written over one denominator once (`_collect`).  A
letter is one exact sum of the rows it reads, and a residual one exact sum
of its terms' images, both by the package's one kernel
(`scalars._int_sum`, reduced by `scalars._int_reduce`), a residual turned
into Fractions (or series) only when it fails.  The public
actions, `apply_word` and `Module.apply_e`/`apply_f`/`apply_psi`/
`apply_psi_y`/`apply_t`, run on the same compiled rows and return a vector
of Fractions and TSeries.  The Fraction schoolbook they are checked
against lives in the tests.

Memos.  Every value a module, a series bridge or a parameter pack keeps
for later follows one rule.  A `memoized` method (or a hand-keyed table
from `memo_table`) stores it in a dict in the owner's own `__dict__`,
keyed by the full tuple of the method's arguments, for as long as the
owner lives; the owner's attributes that such a value reads are set before
its first use.  The owner's `__dict__` is read directly, never through
`getattr`, so a `ModuleWrapper`, whose `__getattr__` passes to its base,
never serves the base's memo: a `PerturbedModule` keeps its own rows and
tables, the sweep's compiled rows (`sweep_row`) included.  A letter reads
its parameters (beta for t, sigma3 for psiy) from the object swept, so
every compiled row is kept in that object's one memo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd

from .scalars import RatFnModes, ratfn_expand, is_zero_mod, _int_reduce, _int_sum, _over, _rational

__all__ = [
    "memo_table", "memoized",
    "vec", "vsum", "is_vec_zero",
    "Module", "ModuleWrapper", "PerturbedModule", "coeff_of", "apply_word",
    "RelationSweep", "RelationReport", "check_relation",
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
    return {label: Fraction(1)}


def vsum(terms, start=()):
    """The vector `start` plus the (label, coeff) pairs of `terms`.  Entries
    only accumulate; those that sum to zero are dropped once, at the end.
    This is the one place a plain-dict vector loses its zeros."""
    out = dict(start)
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not _zero(c)}


def is_vec_zero(u, hmod=None):
    for c in u.values():
        if hmod is None:
            if c != 0:
                return False
        else:
            if not is_zero_mod(c, hmod):
                return False
    return True


def _int_row(row):
    """The row [(target, c)] over one denominator, (den, [(target, n)]), each
    c = n/den (`_rational`, `_int_sum`)."""
    den, nums = _int_sum([(n, d, ((tgt, 1),)) for tgt, c in row for n, d in (_rational(c),)])
    return den, list(nums.items())


def _eigen_row(label, c):
    """The compiled row of a diagonal letter with eigenvalue c on the label:
    the label alone, or no entry when c is zero."""
    return _int_row([(label, c)] if c else [])


class Module:
    """Base class: subclasses provide transitions and the diagonal data.

    e_transitions(label) -> [(target, base_coeff, point)]
    f_transitions(label) -> [(target, base_coeff, point)]
    psi_rat(label)       -> RatFn in z, built with RatFn.from_factors
    basis(level)         -> list of labels
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
    def transitions(self, kind, label):
        """The 'e' or 'f' transitions of the label; any other kind raises
        ValueError."""
        if kind == "e":
            return self.e_transitions(label)
        if kind == "f":
            return self.f_transitions(label)
        raise ValueError(f"unknown row kind {kind!r}; expected 'e' or 'f'")

    def point_power(self, point, mode):
        """The support point's factor at the mode, point**mode; an int point
        is raised as a Fraction, so that a negative mode stays exact."""
        return (Fraction(point) if type(point) is int else point) ** mode

    @memoized
    def mode_row(self, kind, label, mode):
        """[(target, base * point_power(point, mode))] over the 'e' or 'f'
        transitions of the label."""
        return [(tgt, base * self.point_power(point, mode))
                for tgt, base, point in self.transitions(kind, label)]

    @memoized
    def _mode_table(self, kind, label):
        """The 'e' or 'f' transitions of the label as (target, n, d, point),
        base = n/d (`_rational`): the mode-free data of every mode's row
        (`sweep_row`)."""
        return [(tgt,) + _rational(base) + (point,)
                for tgt, base, point in self.transitions(kind, label)]

    def apply_e(self, mode, v):
        return apply_word(self, [("e", mode)], v)

    def apply_f(self, mode, v):
        return apply_word(self, [("f", mode)], v)

    @memoized
    def psi_series(self, label, direction, order):
        """Truncated expansion of the diagonal eigenvalue (X = z^-1 or z), by
        `ratfn_expand`: independent of the mode table (`psi_modes`)."""
        return ratfn_expand(self.psi_rat(label), direction, order)

    @memoized
    def psi_modes(self, label, sign):
        """The modes of the diagonal eigenvalue on the label around infinity
        (sign +1) or 0 (sign -1): one log and psi table (`RatFnModes`), which
        the psi+-, psiy and t letters read and extend in place."""
        return RatFnModes(self.psi_rat(label), sign)

    def psi_coeff(self, label, sign, k):
        """Coefficient of z^-k (sign +1, expansion around infinity) or of z^k
        (sign -1, around 0) of the diagonal eigenvalue; 0 when k < 0."""
        if k < 0:
            return 0
        return self.psi_modes(label, sign).coeff(k)

    def apply_psi(self, sign, k, v):
        return apply_word(self, [("psi+" if sign > 0 else "psi-", k)], v)

    def psi_y_eigenvalue(self, label, j):
        """The yangian-normalized mode psi_j on the label:
        psi(z) = 1 + sig3 * sum psi_j z^-j-1, sig3 = params.sigma3()."""
        return self.psi_coeff(label, +1, j + 1) / self.params.sigma3()

    def apply_psi_y(self, j, v):
        return apply_word(self, [("psiy", j)], v)

    def t_eigenvalue(self, label, m):
        """Eigenvalue of the log-mode generator t_m extracted from psi.

        psi^+(z)/psi0 = exp(-sum_{m>0} beta_m/m t_m z^-m) and mirrored for
        m < 0 on the opposite expansion: the z^-|m| or z^|m| coefficient of
        log psi (`psi_modes`) divided by beta_m = params.beta(m).
        """
        if m == 0:
            raise ValueError("t_0 is not defined")
        coeff = self.psi_modes(label, +1 if m > 0 else -1).log_coeff(abs(m))
        # for + direction: coeff = -beta_m/m * t_m ; for -: +beta_m/m * t_m
        bm = self.params.beta(m)
        if m > 0:
            return -coeff * m / bm
        return coeff * m / bm

    def apply_t(self, m, v):
        return apply_word(self, [("t", m)], v)

    def sweep_row(self, letter, label):
        """The letter on the basis vector of the label, compiled for the
        relation sweep: (den, [(target, n)]).  An e or f row is
        base * point_power(point, mode) over the transitions' mode-free table
        (`_mode_table`), with no Fraction product; every other letter is
        diagonal, its row the eigenvalue on the label (`_eigen_row`)."""
        gen, idx = letter
        if gen == "e" or gen == "f":
            den, nums = _int_sum([(n * pn, d * pd, ((tgt, 1),))
                                  for tgt, n, d, point in self._mode_table(gen, label)
                                  for pn, pd in (_rational(self.point_power(point, idx)),)])
            return den, list(nums.items())
        if gen == "psi+" or gen == "psi-":
            c = self.psi_coeff(label, +1 if gen == "psi+" else -1, idx)
        elif gen == "psiy":
            c = self.psi_y_eigenvalue(label, idx)
        elif gen == "t":
            c = self.t_eigenvalue(label, idx)
        else:
            raise ValueError(f"unknown generator {gen}")
        return _eigen_row(label, c)


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

    def basis(self, level):
        return self.base.basis(level)

    def _e_transitions(self, label):
        return self.base.e_transitions(label)

    def _f_transitions(self, label):
        return self.base.f_transitions(label)

    def _psi_rat(self, label):
        return self.base.psi_rat(label)

    def point_power(self, point, mode):
        return self.base.point_power(point, mode)


class PerturbedModule(ModuleWrapper):
    """Wrap a module, corrupting one class of coefficients (negative controls).

    Each kind scales by FACTOR: 'psi' the diagonal eigenvalue; 'f' the
    first lowering coefficient; 'e' the first raising support point (a plain
    coefficient rescale of a single raising edge is a gauge transformation
    at small levels and would slip through the quadratic relations).
    Any other kind raises ValueError.  psi is the base's or 17/16 times it,
    a factor constant in z, so psi's log modes past the constant, and with
    them t, are the base's: t is read from the base, which also lets the
    series bridge, whose t does not come from a psi, be wrapped.
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

    def t_eigenvalue(self, label, m):
        return self.base.t_eigenvalue(label, m)


# -- operator words and relation instantiation ----------------------------

def _suffix_images(start, step):
    """image(label, word) = step(word[0], image(label, word[1:])), with
    image(label, ()) = start(label) and every suffix's image computed once
    and kept; an empty (falsy) image stays empty.  The relation sweep runs
    it over compiled vectors, and the tests' Fraction schoolbook over plain
    dicts.  It runs from the longest suffix kept, so `image` does not call
    itself and its memo is freed with it, without the cycle collector."""
    memo = {}

    def image(label, word):
        r = memo.get((label, word))
        if r is not None:
            return r
        i = 1
        while i < len(word) and (label, word[i:]) not in memo:
            i += 1
        r = memo.get((label, word[i:]))
        if r is None:
            r = memo[label, ()] = start(label)
        for j in range(i - 1, -1, -1):
            if r:
                r = step(word[j], r)
            memo[label, word[j:]] = r
        return r

    return image


# -- the relation sweep's vectors and compiled rows --------------------------
#
# A vector is (D, {label: n}): the entry n/D on each label, D > 0 and no
# entry zero, n an int or a TSeries (`_rational`).  The empty vector is ().

def _int_vec(D, nums):
    """The vector with entries nums/D in canonical form (`_int_reduce`)."""
    nums, D = _int_reduce(nums, D)
    return (D, nums) if nums else ()


def _int_start(label):
    return 1, {label: 1}


def _int_stepper(module):
    """step(letter, v), the letter on a vector: one exact sum of the rows of
    its labels (`_int_sum`), reduced (`_int_vec`).  A row comes from the
    hook every swept object answers, `sweep_row(letter, label)`: the letter
    on the basis vector of the label over one denominator,
    (den, [(target, n)]).  Each row is compiled once and kept in the
    object's own memo, keyed by (letter, label)."""
    rows = memo_table(module, "_sweep_rows")

    def step(letter, v):
        D, nums = v
        parts = []
        for label, n in nums.items():
            r = rows.get((letter, label))
            if r is None:
                r = rows[letter, label] = module.sweep_row(letter, label)
            parts.append((n,) + r)
        L, out = _int_sum(parts)
        return _int_vec(D * L, out)

    return step


def apply_word(module, word, v):
    """Apply a composition of mode operators, leftmost letter acting last,
    to the vector v, on the compiled rows of the relation sweep.

    Letters: ('e', i), ('f', i), ('psi+', k), ('psi-', k), ('psiy', j),
    ('t', m).
    """
    den, entries = _int_row(v.items())
    u, step = _int_vec(den, dict(entries)), _int_stepper(module)
    for letter in reversed(word):
        if not u:
            break
        u = step(letter, u)
    return {k: _over(n, u[0]) for k, n in u[1].items()} if u else {}


def _int_residual(image, label, terms):
    """(live, residual) of one (instance, label) pair: the exact sum of
    c * image(label, word) over terms [(n, d, word)] (c = n/d, `_int_sum`).
    live says whether any image is nonzero; the residual is {} when the sum
    is zero, else its vector of Fractions and TSeries (`_over`)."""
    parts = [(n, d * img[0], img[1].items()) for n, d, word in terms
             for img in (image(label, word),) if img]
    if not parts:
        return False, {}
    L, acc = _int_sum(parts)
    nums, L = _int_reduce(acc, L)
    return True, {k: _over(n, L) for k, n in nums.items()}


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


def _sym3_instances(rel, modes, shift_mid, shift_last):
    """T6 or Y6 at every mode triple in modes**3, e half first."""
    return [(f"{rel}{g}[{i1},{i2},{i3}]", _sym3_nested(g, i1, i2, i3, shift_mid, shift_last))
            for g in ("e", "f") for i1 in modes for i2 in modes for i3 in modes]


# Each builder returns a list of instances; an instance is
# (instance_id, [(coeff, word), ...]), and its residual, the sum of
# coeff * word(v), must vanish.


def _ladder_instances(rel, m_range, j_range):
    """[t_m, g_j] = +-g_{m+j} over m != 0, with instance ids (m, j): T4t with
    g = e and sign +, T5t with g = f and sign -."""
    g, sgn = ("e", 1) if rel == "T4t" else ("f", -1)
    return [((m, j), [(1, [("t", m), (g, j)]), (-1, [(g, j), ("t", m)]),
                      (-sgn, [(g, m + j)])])
            for m in m_range if m for j in j_range]


def _t3_terms(i, j, c):
    """T3[i, j], [e_i, f_j] = c (psi+_(i+j) - psi-_(-(i+j))), as terms: c is
    1/beta_1 on a module and 1 on the series bridge, whose psi+- letters
    carry the 1/(1 - q3).  psi+ has no mode k < 0 and psi- none k > 0
    (`Module.psi_coeff`): those words act by 0."""
    return _commutator_words([("e", i)], [("f", j)]) + [(-c, [("psi+", i + j)]),
                                                        (c, [("psi-", -(i + j))])]


def _cubic_coeffs_t(p):
    return [1, -p.sigma1(), p.sigma2(), -1]


def t_relation_instances(rel, window, params):
    """Instantiated operator identities for the multiplicative family.

    The degree-three symmetrized family takes mode triples in [-1, 1]; its
    higher-mode instances are generated from these by the log-mode ladder,
    which the sweep covers at the full window.
    """
    W = range(-window, window + 1)
    if rel == "T0":
        return [(f"[{s1}_{a},{s2}_{b}]", _commutator_words([(s1, a)], [(s2, b)]))
                for a in range(window + 1) for b in range(window + 1)
                for s1 in ("psi+", "psi-") for s2 in ("psi+", "psi-")]
    if rel == "T1" or rel == "T2":
        g, cs = ("e" if rel == "T1" else "f"), _cubic_coeffs_t(params)

        def word(a, b, k):
            # opposite kernel order for the lowering family
            return [(g, a + 3 - k), (g, b + k)] if g == "e" else [(g, a + k), (g, b + 3 - k)]

        # each term at (i, j) and at (j, i): T1[i, j] = T1[j, i]
        return [(f"{rel}[{i},{j}]", [(cs[k], word(a, b, k)) for k in range(4)
                                     for a, b in ((i, j), (j, i))])
                for i in W for j in W]
    if rel == "T3":
        c = 1 / params.beta(1)
        return [(f"T3[{i},{j}]", _t3_terms(i, j, c)) for i in W for j in W]
    if rel == "T4t" or rel == "T5t":
        return [(f"{rel}[{m},{j}]", terms) for (m, j), terms in _ladder_instances(rel, W, W)]
    if rel == "T6":
        return _sym3_instances(rel, range(-1, 2), +1, -1)
    if rel == "T6t":
        return [(f"T6t{g}", _nested(g, (0, 1, -1))) for g in ("e", "f")]
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
    if rel == "Y0":
        return [(f"Y0[{a},{b}]", _commutator_words([("psiy", a)], [("psiy", b)]))
                for a in W for b in W]
    if rel in ("Y1", "Y2"):
        g, sgn = ("e", 1) if rel == "Y1" else ("f", -1)
        return [(f"{rel}[{i},{j}]", _additive_kernel_terms(g, g, i, j, sgn, s2, s3))
                for i in W for j in W]
    if rel == "Y3":
        return [(f"Y3[{i},{j}]", _commutator_words([("e", i)], [("f", j)])
                 + [(-1, [("psiy", i + j)])]) for i in W for j in W]
    if rel in ("Y4", "Y5"):
        g, sgn = ("e", 1) if rel == "Y4" else ("f", -1)
        ins = [(f"{rel}[{i},{j}]", _additive_kernel_terms("psiy", g, i, j, sgn, s2, s3))
               for i in W for j in W]
        # the low-mode anchors
        for j in W:
            for k, rhsc in ((0, 0), (1, 0), (2, 2 * sgn)):
                terms = [(1, [("psiy", k), (g, j)]), (-1, [(g, j), ("psiy", k)]),
                         (-rhsc, [(g, j)])]
                ins.append((f"{rel}'[{k},{j}]", terms))
        return ins
    if rel == "Y6":
        return _sym3_instances(rel, range(0, 2), 0, +1)
    raise ValueError(f"unknown relation {rel}")


RELATION_BUILDERS_T = ("T0", "T1", "T2", "T3", "T4t", "T5t", "T6", "T6t")
RELATION_BUILDERS_Y = ("Y0", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6")


class RelationReport:
    """`checked` counts the (instance, label) pairs swept; `nonvacuous` those
    among them where some word image with a nonzero coefficient is nonzero,
    so that the check compares more than 0 with 0.  `distinct` and
    `by_construction` count the instances swept and the formal tautologies
    (`RelationSweep`)."""

    def __init__(self, relation, ok, counterexample=None, checked=0, nonvacuous=0,
                 distinct=0, by_construction=0):
        self.relation = relation
        self.ok = ok
        self.counterexample = counterexample
        self.checked = checked
        self.nonvacuous = nonvacuous
        self.distinct = distinct
        self.by_construction = by_construction

    def __repr__(self):
        return (f"RelationReport({self.relation}, ok={self.ok}, checked={self.checked}, "
                f"nonvacuous={self.nonvacuous})")


def _collect(terms):
    """(kept, dead): the terms [(coeff, word)] summed per word over one
    denominator (`_int_sum`, `_int_reduce`), kept [(n, D, word)] the
    nonzero sums n/D, dead the words whose nonzero coefficients cancel."""
    D, acc = _int_sum([(n, d, ((tuple(word), 1),)) for coeff, word in terms
                       if not _zero(coeff) for n, d in (_rational(coeff),)])
    nums, D = _int_reduce(acc, D)
    return [(n, D, w) for w, n in nums.items()], [w for w in acc if w not in nums]


class RelationSweep:
    """The failing (instance_id, level, label, residual), in the order of
    levels, then the module's basis, then the instances, which are in the
    builders' format (id, [(coeff, word)]).  Each residual, the sum of
    coeff * image(word), is compared with zero exactly or mod X^hmod.

    The instances are normalized once, here (`_collect`): terms are summed
    per word and zero sums dropped.  An instance left with no term holds by
    construction (`by_construction`) and is never swept.  One whose terms
    are r times an earlier one's, its representative, is an alias
    (`aliases`: id -> (representative id, r)) and reads r times the
    representative's residual; a series coefficient makes none.  `distinct`
    counts the instances swept; `instances` keeps each as
    (id, [(n, d, word)], dead words, representative's slot, r).  `checked`
    and `nonvacuous` count every (instance, label) pair swept so far, as in
    `RelationReport`, reading the images of the words that cancelled (dead)
    too, and every failing pair is yielded, aliases included, each after
    its representative.

    Every object swept (a `Module`, the series bridge, the boson states)
    runs one path.  A word image is a vector (D, {label: n}) over one
    denominator, each letter read from compiled rows (`_int_stepper`), and
    each residual one exact sum of its terms' images (`_int_residual`), with
    a Fraction built only for a failing residual.
    A coefficient or row value is an int, a Fraction or a TSeries
    (`_rational`); anything else raises TypeError."""

    def __init__(self, module, instances, level_bound, hmod=None):
        self.module, self.level_bound, self.hmod = module, level_bound, hmod
        self.instances, self.aliases, reps = [], {}, {}
        self.checked = self.nonvacuous = self.distinct = self.by_construction = 0
        for inst_id, terms in instances:
            kept, dead = _collect(terms)
            rep = ratio = None
            if kept and all(type(n) is int for n, _, _ in kept):
                # key: the sorted words and their coefficients, all over one
                # denominator L, as a primitive int vector with first entry > 0
                L = kept[0][1]
                items = sorted([(w, n) for n, _, w in kept])
                xs = [x for _, x in items]
                g = gcd(*xs) if xs[0] > 0 else -gcd(*xs)
                key = (tuple([w for w, _ in items]), tuple([x // g for x in xs]))
                hit = reps.get(key)
                if hit is None:
                    reps[key] = self.distinct, inst_id, g, L
                else:
                    rep, ratio = hit[0], Fraction(g * hit[3], L * hit[2])
                    self.aliases[inst_id] = hit[1], ratio
            if rep is None:
                if kept:
                    self.distinct += 1
                else:
                    self.by_construction += 1
            self.instances.append((inst_id, kept, dead, rep, ratio))

    def __iter__(self):
        module, hmod = self.module, self.hmod
        self.checked = self.nonvacuous = 0
        step = _int_stepper(module)
        for level in range(self.level_bound + 1):
            for label in module.basis(level):
                # no image is shared between labels: free each label's memo
                image = _suffix_images(_int_start, step)
                found = []  # (live, residual, failed) of each distinct instance
                for inst_id, terms, dead, rep, ratio in self.instances:
                    if rep is not None:
                        live, acc, failed = found[rep]
                        if failed and ratio != 1:
                            acc = {k: c * ratio for k, c in acc.items()}
                    elif terms:
                        live, acc = _int_residual(image, label, terms)
                        failed = not is_vec_zero(acc, hmod=hmod)
                        found.append((live, acc, failed))
                    else:
                        live = failed = False
                    if not live and dead:
                        live = any(image(label, w) for w in dead)
                    self.checked += 1
                    self.nonvacuous += live
                    if failed:
                        yield inst_id, level, label, acc


def check_relation(module, relation, params, level_bound, window=3, hmod=None):
    """Sweep one relation over all basis labels up to level_bound.

    Returns a RelationReport; the sweep stops at the first failing
    (instance, label), which is recorded.
    """
    build = t_relation_instances if relation.startswith("T") else y_relation_instances
    sweep = RelationSweep(module, build(relation, window, params), level_bound, hmod)
    for inst_id, level, label, resid in sweep:
        bad = {str(k): repr(c) for k, c in resid.items()}
        return RelationReport(relation, False, {"instance": inst_id, "level": level,
                                                "label": label, "residual": bad},
                              sweep.checked, sweep.nonvacuous, sweep.distinct,
                              sweep.by_construction)
    return RelationReport(relation, True, None, sweep.checked, sweep.nonvacuous,
                          sweep.distinct, sweep.by_construction)
