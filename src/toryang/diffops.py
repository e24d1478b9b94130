"""Centrally extended difference-operator algebras and the limit
homomorphisms into them.

Two flavors: the multiplicative one generated by Z, D with D Z = q Z D, and
the additive one generated by x, the shift \\partial with \\partial x =
(x+h) \\partial.  Both carry an explicit 2-cocycle supported on opposite
shift powers; elements are kept in normal-ordered form (Z before D, x
before the shift) plus a central coefficient.  The `QOp` and `HOp`
constructors are the one place that drops zero coefficients (and emptied
shift slots): every operation only accumulates into plain dicts and hands
them over.

The two relation audits compute each generator image and each bracket of
two generator images once per call (`_audit_brackets`).  The memo is a
pair of dicts local to the call, keyed by value, ((kind, index),
(kind, index)) for a bracket, and dropped when the audit returns.  A hit
is sound because an image is an exact function of (kind, index) at the
call's parameter and no operation mutates an operator.  Nothing is keyed
by id(): a transient result's id can be reused by the next one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, gcd

from .scalars import _cf

__all__ = [
    "QOp", "HOp", "theta_m_e", "theta_m_f", "theta_m_H", "theta_m_kappa",
    "theta_a_e", "theta_a_f", "theta_a_psi", "check_theta_m_relations",
    "check_theta_a_relations", "hall_image", "pick_closed_form",
    "nested_ratio_multiplicative", "nested_ratio_additive",
    "lambda_constant", "beta_constant", "serre_multiple_m", "serre_multiple_a",
    "jacobi_qop",
    "jacobi_hop",
    "pick_printed_central",
    "lattice_interior_count",
    "in_limit_span",
]


class QOp:
    """sum over (i, j) of c_{ij} Z^i D^j, plus central * c.  The constructor
    drops zero coefficients; callers only accumulate."""

    __slots__ = ("terms", "central", "q")

    def __init__(self, q, terms=None, central=0):
        self.q = q
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = _cf(c)
                if c:
                    self.terms[k] = c
        self.central = _cf(central)

    @staticmethod
    def monomial(q, i, j, c=1):
        return QOp(q, {(i, j): c})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return QOp(self.q, out, self.central + other.central)

    def __neg__(self):
        return QOp(self.q, {k: -c for k, c in self.terms.items()}, -self.central)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return QOp(self.q, {k: v * c for k, v in self.terms.items()}, self.central * c)

    def is_zero(self):
        return not self.terms and not self.central

    def __eq__(self, other):
        return self.q == other.q and self.terms == other.terms and self.central == other.central

    def __hash__(self):
        raise TypeError

    def mul(self, other):
        """Associative product of the operator parts (normal-ordered); only
        defined away from the central line."""
        if self.central or other.central:
            raise ValueError("associative product is defined on operator parts")
        q = self.q
        out = {}
        for (a, j), c1 in self.terms.items():
            for (b, k), c2 in other.terms.items():
                key = (a + b, j + k)
                out[key] = out.get(key, 0) + c1 * c2 * q ** (j * b)
        return QOp(q, out)

    def bracket(self, other):
        """Lie bracket with the cocycle correction on the shift-opposite part."""
        q = self.q
        out = {}
        central = Fraction(0)
        for (a, j), c1 in self.terms.items():
            for (b, k), c2 in other.terms.items():
                key = (a + b, j + k)
                out[key] = out.get(key, 0) + c1 * c2 * (q ** (j * b) - q ** (k * a))
                central += c1 * c2 * _cocycle_q(q, a, j, b, k)
        return QOp(q, out, central)

    def __repr__(self):
        return f"QOp({self.terms}, central={self.central})"


def _cocycle_q(q, a, j, b, k):
    """Cocycle on normal-ordered monomials Z^a D^j, Z^b D^k (k = -j)."""
    if j + k != 0 or j == 0:
        return Fraction(0)
    if j > 0:
        return sum((q ** (a * i + b * (j + i)) for i in range(-j, 0)), Fraction(0))
    return -sum((q ** (b * i + a * (-j + i)) for i in range(j, 0)), Fraction(0))


class HOp:
    """sum over j of p_j(x) shift^j, plus central * c; p_j sparse in x.  The
    constructor drops zero coefficients and empty slots; callers only
    accumulate."""

    __slots__ = ("terms", "central", "h")

    def __init__(self, h, terms=None, central=0):
        self.h = h
        self.terms = {}
        if terms:
            for j, poly in terms.items():
                poly = {e: _cf(c) for e, c in poly.items() if c}
                if poly:
                    self.terms[j] = poly
        self.central = _cf(central)

    @staticmethod
    def monomial(h, i, j, c=1):
        return HOp(h, {j: {i: c}})

    def __add__(self, other):
        out = {j: dict(p) for j, p in self.terms.items()}
        for j, p in other.terms.items():
            slot = out.setdefault(j, {})
            for e, c in p.items():
                slot[e] = slot.get(e, 0) + c
        return HOp(self.h, out, self.central + other.central)

    def __neg__(self):
        return HOp(self.h,
                   {j: {e: -c for e, c in p.items()} for j, p in self.terms.items()},
                   -self.central)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return HOp(self.h,
                   {j: {e: v * c for e, v in p.items()} for j, p in self.terms.items()},
                   self.central * c)

    def is_zero(self):
        return not self.terms and not self.central

    def __eq__(self, other):
        return self.h == other.h and self.terms == other.terms and self.central == other.central

    def __hash__(self):
        raise TypeError

    def _mul_polys(self, p1, p2):
        out = {}
        for e1, c1 in p1.items():
            for e2, c2 in p2.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return out

    def _shift_poly(self, p, j):
        """p(x + j*h) expanded."""
        h = self.h
        out = {}
        for e, c in p.items():
            for m in range(e + 1):
                add = c * comb(e, m) * (j * h) ** (e - m)
                if add:
                    out[m] = out.get(m, 0) + add
        return out

    def mul(self, other):
        """Associative product of the operator parts (normal-ordered)."""
        if self.central or other.central:
            raise ValueError("associative product is defined on operator parts")
        acc = {}
        for j1, p1 in self.terms.items():
            for j2, p2 in other.terms.items():
                prod = self._mul_polys(p1, self._shift_poly(p2, j1))
                slot = acc.setdefault(j1 + j2, {})
                for e, c in prod.items():
                    slot[e] = slot.get(e, 0) + c
        return HOp(self.h, acc)

    def bracket(self, other):
        h = self.h
        acc = {}
        central = Fraction(0)
        for j1, p1 in self.terms.items():
            for j2, p2 in other.terms.items():
                a = self._mul_polys(p1, self._shift_poly(p2, j1))
                b = self._mul_polys(p2, self._shift_poly(p1, j2))
                slot = acc.setdefault(j1 + j2, {})
                for e, c in a.items():
                    slot[e] = slot.get(e, 0) + c
                for e, c in b.items():
                    slot[e] = slot.get(e, 0) - c
                central += _cocycle_h(h, p1, j1, p2, j2)
        return HOp(h, acc, central)

    def poly(self, j):
        return dict(self.terms.get(j, {}))

    def top_degree_part(self, j):
        p = self.terms.get(j, {})
        if not p:
            return None, None
        d = max(p)
        return d, p[d]

    def __repr__(self):
        return f"HOp({self.terms}, central={self.central})"


def _eval_poly(p, x):
    return sum((c * x ** e for e, c in p.items()), Fraction(0))


def _cocycle_h(h, f, r, g, s):
    if r + s != 0 or r == 0:
        return Fraction(0)
    if r > 0:
        return sum((_eval_poly(f, l * h) * _eval_poly(g, (l + r) * h)
                    for l in range(-r, 0)), Fraction(0))
    return -sum((_eval_poly(g, l * h) * _eval_poly(f, (l - r) * h)
                 for l in range(r, 0)), Fraction(0))


# -- images of the limit presentations --------------------------------------

def theta_m_e(q, i):
    return QOp.monomial(q, i, 1)


def theta_m_f(q, i):
    # -D^{-1} Z^i = -q^{-i} Z^i D^{-1} in normal order
    return QOp.monomial(q, i, -1, -(q ** (-i)))


def theta_m_H(q, k):
    return QOp(q, {(k, 0): -(1 - q ** (-k))}, central=-(q ** (-k)))


def theta_m_kappa(q):
    return QOp(q, {}, central=1)


def theta_a_e(h, j):
    return HOp.monomial(h, j, 1)


def theta_a_f(h, j):
    # -shift^{-1} x^j = -(x - h)^j shift^{-1}
    out = {}
    for m in range(j + 1):
        out[m] = -Fraction(comb(j, m)) * (-h) ** (j - m)
    return HOp(h, {-1: out})


def theta_a_psi(h, j):
    """(x-h)^j - x^j as a pure multiplication operator, plus -(-h)^j central."""
    out = {}
    for m in range(j + 1):
        c = Fraction(comb(j, m)) * (-h) ** (j - m)
        if m == j:
            c -= 1
        out[m] = c
    return HOp(h, {0: out}, central=-((-h) ** j))


def _nested_bracket(ops):
    acc = ops[-1]
    for op in reversed(ops[:-1]):
        acc = op.bracket(acc)
    return acc


def _audit_brackets(param, images):
    """gen(kind, i) = images[kind](param, i) and br(x, y) = [gen(*x), gen(*y)]
    for generator keys x = (kind, i), each computed once per audit call (see
    the module docstring for the keys and why a hit is sound)."""
    gens, brackets = {}, {}

    def gen(kind, i):
        op = gens.get((kind, i))
        if op is None:
            op = gens[kind, i] = images[kind](param, i)
        return op

    def br(x, y):
        out = brackets.get((x, y))
        if out is None:
            out = brackets[x, y] = gen(*x).bracket(gen(*y))
        return out

    return gen, br


def check_theta_m_relations(q, window=2):
    """Audit of the limit-presentation relations on the multiplicative images.

    Returns a list of (relation, instance) failures; empty means all hold.
    Each bracket of two generator images is computed once per call
    (`_audit_brackets`).
    """
    fails = []
    W = range(-window, window + 1)
    sig = 1 + q + 1 / q
    gen, br = _audit_brackets(q, {"e": theta_m_e, "f": theta_m_f, "H": theta_m_H})
    e = lambda i: gen("e", i)
    f = lambda i: gen("f", i)
    H = lambda k: gen("H", k)

    for k in W:
        for m in W:
            if k and m and not br(("H", k), ("H", m)).is_zero():
                fails.append(("HH", (k, m)))
    for i in W:
        for j in W:
            for x in ("e", "f"):
                r = br((x, i + 3), (x, j)) - br((x, i + 2), (x, j + 1)).scale(sig) \
                    + br((x, i + 1), (x, j + 2)).scale(sig) - br((x, i), (x, j + 3))
                if not r.is_zero():
                    fails.append((f"cubic-{x}", (i, j)))
            r = br(("e", i), ("f", j))
            want = H(i + j) if i + j != 0 else theta_m_kappa(q).scale(-1)
            if not (r - want).is_zero():
                fails.append(("ef", (i, j)))
    for m in W:
        if m == 0:
            continue
        for i in W:
            c = -(1 - q ** m) * (1 - q ** (-m))
            if not (br(("H", m), ("e", i)) - e(i + m).scale(c)).is_zero():
                fails.append(("He", (m, i)))
            if not (br(("H", m), ("f", i)) - f(i + m).scale(-c)).is_zero():
                fails.append(("Hf", (m, i)))
    for x in ("e", "f"):
        if not gen(x, 0).bracket(br((x, 1), (x, -1))).is_zero():
            fails.append((f"serre-{x}", ()))
    return fails


def check_theta_a_relations(h, window=2):
    """Audit of the additive limit relations on the shift-operator images.

    Each bracket of two generator images is computed once per call
    (`_audit_brackets`).
    """
    fails = []
    W = range(0, window + 1)
    gen, br = _audit_brackets(h, {"e": theta_a_e, "f": theta_a_f, "psi": theta_a_psi})
    e = lambda j: gen("e", j)
    f = lambda j: gen("f", j)
    psi = lambda j: gen("psi", j)
    h0sq = h * h

    def cubic(x, i, y, j):
        """[x_{i+3}, y_j] - 3[x_{i+2}, y_{j+1}] + 3[x_{i+1}, y_{j+2}] - [x_i, y_{j+3}]
        - h^2 ([x_{i+1}, y_j] - [x_i, y_{j+1}])."""
        return br((x, i + 3), (y, j)) - br((x, i + 2), (y, j + 1)).scale(3) \
            + br((x, i + 1), (y, j + 2)).scale(3) - br((x, i), (y, j + 3)) \
            - (br((x, i + 1), (y, j)) - br((x, i), (y, j + 1))).scale(h0sq)

    for a in W:
        for b in W:
            if not br(("psi", a), ("psi", b)).is_zero():
                fails.append(("psipsi", (a, b)))
    for i in W:
        for j in W:
            for x in ("e", "f"):
                if not cubic(x, i, x, j).is_zero():
                    fails.append((f"cubic-{x}", (i, j)))
            if not (br(("e", i), ("f", j)) - psi(i + j)).is_zero():
                fails.append(("ef", (i, j)))
    for k in W:
        for j in W:
            if not cubic("psi", k, "e", j).is_zero():
                fails.append(("psie", (k, j)))
    for j in W:
        if not br(("psi", 0), ("e", j)).is_zero():
            fails.append(("psi0e", j))
        if not br(("psi", 1), ("e", j)).is_zero():
            fails.append(("psi1e", j))
        if not (br(("psi", 2), ("e", j)) - e(j).scale(2 * h0sq)).is_zero():
            fails.append(("psi2e", j))
        if not (br(("psi", 2), ("f", j)) + f(j).scale(2 * h0sq)).is_zero():
            fails.append(("psi2f", j))
    for idx in ((0, 0, 0), (0, 1, 0), (1, 0, 0)):
        acc = None
        for (a, b, c) in permutations(idx):
            t = e(a).bracket(br(("e", b), ("e", c + 1)))
            acc = t if acc is None else acc + t
        if not acc.is_zero():
            fails.append(("serre", idx))
    return fails


# -- lattice elements in the image algebra ----------------------------------

def _alpha_limit(q, m):
    """Limit Hall normalization ratio carrier: (1-q^m)(1-q^-m); ratios of the
    full normalizations reduce to ratios of these."""
    return (1 - q ** m) * (1 - q ** (-m))


def hall_image(k, l, q, cache=None):
    """Image of the lattice element u_(k,l) under the limit realization.

    Degree-one columns are the raising/lowering images; other elements are
    built by the empty-triangle commutation recursion, with the central row
    (k = 0) produced from the opposite-corner bracket.  ``cache`` is
    caller-owned and keyed by (k, l, q), so one dict may serve several q.
    """
    if cache is None:
        cache = {}
    key = (k, l, q)
    if key in cache:
        return cache[key]
    if k == 1:
        out = theta_m_e(q, l)
    elif k == -1:
        out = theta_m_f(q, l)
    elif k == 0:
        if l == 0:
            raise ValueError("(0,0) is not a lattice element")
        r = l
        sign = 1 if r > 0 else -1
        br = hall_image(-1, 0, q, cache).bracket(hall_image(1, r, q, cache))
        ratio = _alpha_limit(q, 1) / _alpha_limit(q, abs(r))
        out = br.scale(sign * ratio)
    elif k > 1:
        from .shuffle import _empty_triangle_split

        d = gcd(k, abs(l)) if l else k
        (k1, l1), (k2, l2) = _empty_triangle_split(k, l)
        br = hall_image(k2, l2, q, cache).bracket(hall_image(k1, l1, q, cache))
        out = br.scale(_alpha_limit(q, 1) / _alpha_limit(q, d))
    else:  # k < -1: mirror through the lowering half
        from .shuffle import _empty_triangle_split

        d = gcd(-k, abs(l)) if l else -k
        (k1, l1), (k2, l2) = _empty_triangle_split(-k, -l)
        x = (-k1, -l1)
        y = (-k2, -l2)
        # det(x, y) = det of the mirrored pair = same positive d
        br = hall_image(y[0], y[1], q, cache).bracket(hall_image(x[0], x[1], q, cache))
        out = br.scale(_alpha_limit(q, 1) / _alpha_limit(q, d))
    cache[key] = out
    return out


def lattice_interior_count(k, l):
    """(k*l - k - l - gcd + 2)/2: signed interior points of the lattice
    triangle with legs (0,l) and (k,0) attached at the corner."""
    d = gcd(k, abs(l)) if l else k
    f = Fraction(k * l - k - l - d + 2, 2)
    assert f.denominator == 1
    return int(f)


def pick_closed_form(k, l, q):
    """Closed-form image of u_(k,l) for k != 0, and of the central row.

    For k > 0:  q^f(k,l) (1-q^-1)/(1-q^-d) (1-q)^{k-1} Z^l D^k.
    For k < 0:  -q^{-f} (1-q)/(1-q^d) (1-q^-1)^{|k|-1} D^{-|k|} Z^{-|l|}-form.
    For k = 0:  sign(l) (1-q^-1)(1-q)/(1-q^l) (Z^l - c/(1-q^l)).
    """
    if k > 0:
        d = gcd(k, abs(l)) if l else k
        f = lattice_interior_count(k, l)
        c = q ** f * (1 - 1 / q) / (1 - q ** (-d)) * (1 - q) ** (k - 1)
        return QOp(q, {(l, k): c})
    if k < 0:
        kk = -k
        ll = -l
        d = gcd(kk, abs(ll)) if ll else kk
        f = lattice_interior_count(kk, ll)
        # -q^{-f} (1-q)/(1-q^d) (1-q^-1)^{kk-1} D^{-kk} Z^{-ll}
        c = -q ** (-f) * (1 - q) / (1 - q ** d) * (1 - 1 / q) ** (kk - 1)
        # normal order: D^{-kk} Z^{-ll} = q^{kk*ll} Z^{-ll} D^{-kk}
        return QOp(q, {(-ll, -kk): c * q ** (kk * ll)})
    r = l
    sign = 1 if r > 0 else -1
    pref = sign * (1 - 1 / q) * (1 - q) / (1 - q ** r)
    return QOp(q, {(r, 0): pref}, central=-pref / (1 - q ** r))


def pick_printed_central(l, q):
    """The central coefficient of the row element as printed in the source
    derivation; kept separate because it disagrees with the recursion by a
    factor (1 - q) (documented inconsistency)."""
    r = l
    sign = 1 if r > 0 else -1
    pref = sign * (1 - 1 / q) * (1 - q) / (1 - q ** r)
    return -pref * (1 - q) / (1 - q ** r)


# -- nested commutator constants ---------------------------------------------

def lambda_constant(N, n, q):
    return (q ** (N - 1) - 1) ** (n - 2) * (q ** (N - 1) - q ** (n - 1)) / (q ** N - 1) ** (n - 1)


def beta_constant(N, n):
    return Fraction(N - 2 * n + 2, N)


def nested_ratio_multiplicative(N, n, q):
    """Compare [e_1; e_0; ...; e_0; e_{N-1}]_n with [e_0; ...; e_0; e_N]_n
    in the multiplicative image; returns (holds_exactly, ratio)."""
    A = _nested_bracket([theta_m_e(q, 1)] + [theta_m_e(q, 0)] * (n - 2)
                        + [theta_m_e(q, N - 1)])
    B = _nested_bracket([theta_m_e(q, 0)] * (n - 1) + [theta_m_e(q, N)])
    lam = lambda_constant(N, n, q)
    return (A - B.scale(lam)).is_zero(), lam


def nested_ratio_additive(N, n, h):
    """Top-filtration comparison of the additive nested commutators."""
    A = _nested_bracket([theta_a_e(h, 1)] + [theta_a_e(h, 0)] * (n - 2)
                        + [theta_a_e(h, N - 1)])
    B = _nested_bracket([theta_a_e(h, 0)] * (n - 1) + [theta_a_e(h, N)])
    db, cb = B.top_degree_part(n)
    bet = beta_constant(N, n)
    top = N - n + 1
    da = A.top_degree_part(n)[0]
    if db is None:
        # both sides collapse entirely; proportionality is vacuous
        return da is None, bet
    ca = A.poly(n).get(top, Fraction(0))
    ok = (db == top) and (da is None or da <= top) and ca == bet * cb
    return ok, bet


def serre_multiple_m(n, q):
    """[e_0; e_1; e_0; ...; e_0; e_{-1}]_n vanishes in the image."""
    ops = [theta_m_e(q, 0), theta_m_e(q, 1)] + [theta_m_e(q, 0)] * (n - 3) \
        + [theta_m_e(q, -1)]
    return _nested_bracket(ops).is_zero()


def serre_multiple_a(n, h):
    """[e_0; ...; e_0; e_{n-2}]_n vanishes in the additive image."""
    ops = [theta_a_e(h, 0)] * (n - 1) + [theta_a_e(h, n - 2)]
    return _nested_bracket(ops).is_zero()


def in_limit_span(op):
    """Valuation bookkeeping over a series coefficient ring: the limit images
    live in the span of {c, h Z^k, h^{j-1} Z^i D^{+-j}}; checked by requiring
    coefficient valuation >= max(j-1, 1-0) per shift power (and >= 1 on the
    pure multiplication part)."""
    for (i, j), c in op.terms.items():
        need = 1 if j == 0 else abs(j) - 1
        val = getattr(c, "val", 0 if c else 10 ** 9)
        if val < need:
            return False
    return True


def jacobi_qop(q, triples):
    """Exact Jacobi identity for the cocycle-twisted bracket (certifies the
    2-cocycle condition on the sampled monomials)."""
    for (m1, m2, m3) in triples:
        a = QOp.monomial(q, *m1)
        b = QOp.monomial(q, *m2)
        c = QOp.monomial(q, *m3)
        s = a.bracket(b.bracket(c)) + b.bracket(c.bracket(a)) + c.bracket(a.bracket(b))
        if not s.is_zero():
            return False
    return True


def jacobi_hop(h, triples):
    for (m1, m2, m3) in triples:
        a = HOp.monomial(h, *m1)
        b = HOp.monomial(h, *m2)
        c = HOp.monomial(h, *m3)
        s = a.bracket(b.bracket(c)) + b.bracket(c.bracket(a)) + c.bracket(a.bracket(b))
        if not s.is_zero():
            return False
    return True
