"""Centrally extended difference-operator algebras and the limit
homomorphisms into them.

Two families: the multiplicative one generated by Z, D with D Z = q Z D,
and the additive one generated by x, the shift \\partial with \\partial x =
(x+h) \\partial.  Both are one operator body, `_ShiftOp`, over `param` (q
or h), whose sums, product `mul` and bracket [A, B] = AB - BA + cocycle
are written once.  Each family keeps only its two own rules:

- `_reorder(ctx, a, j, b, k)`, the normal-ordered product of the monomials
  (a, j) and (b, k): q^(jb) Z^(a+b) D^(j+k) for `QOp`, and x^a (x + jh)^b
  shift^(j+k), expanded binomially, for `HOp`;
- `_cocycle(ctx, a, j, b)`, the central 2-cocycle on the monomials (a, j)
  and (b, -j), j != 0; it vanishes on every other pair and is bilinear, so
  the bracket sums it over the monomial pairs.

Storage.  An operator keeps integer numerators over one positive int `den`:
`nums` = {(i, j): n} for the monomials (Z^i D^j, or x^i shift^j) and the
central `cnum`, with no zero in `nums` and gcd(den, cnum, *nums) == 1;
`terms` and `central` build Fractions when read.  Every operation writes
its result as parts (s, d, items) of the package's one exact sum,
`scalars._int_sum`, the central numerator under the key None: a sum or a
scaling one part per operator, a product or a bracket one per row d of a
dict {d: {key: n}} that it accumulates.  It ends in `_op`, which joins the
parts and brings them to canonical form with the package's one reducer,
`scalars._int_reduce`.  The family rules read each weight as an int pair
(n, d) from `ctx`, made once per product (`_context`).  Values enter
through `scalars._rational`, so anything but an int, a Fraction or a series
raises TypeError; a series q is its own numerator over 1, and as series
numerators have no gcd, an operator holding them keeps its den.
The rows of (x + jh)^b are kept in `_SHIFT_ROWS`, keyed by (h_n, h_d, j, b)
for the life of the process with no size bound, like `shuffle`'s star
tables; a row is an exact function of its key.  A series h cannot key it.

The two relation audits compute each generator image and each bracket of
two generator images once per call (`_audit_brackets`), in two dicts local
to the call keyed by value ((kind, index), or a pair of them for a
bracket) and dropped when the audit returns.  A hit is sound because an
image is an exact function of its key at the call's parameter and no
operation mutates an operator.  Nothing is keyed by id(): a transient
result's id can be reused by the next one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, gcd

from .scalars import _exact, _int_reduce, _int_sum, _over, _rational

__all__ = [
    "QOp", "HOp", "theta_m_e", "theta_m_f", "theta_m_H", "theta_m_kappa", "theta_a_e",
    "theta_a_f", "theta_a_psi", "check_theta_m_relations", "check_theta_a_relations",
    "hall_image", "pick_closed_form", "nested_ratio_multiplicative", "nested_ratio_additive",
    "lambda_constant", "beta_constant", "serre_multiple_m", "serre_multiple_a", "jacobi_qop",
    "jacobi_hop", "pick_printed_central", "lattice_interior_count", "in_limit_span",
]

_new = object.__new__


def _op(cls, param, parts, den=1):
    """The operator of cls that is the sum of the parts (s, d, items) of
    `_int_sum` over den, in canonical form (see the module docstring)."""
    L, acc = _int_sum(parts)
    nums, den = _int_reduce(acc, den * L)
    op = _new(cls)
    op.param, op.cnum, op.nums, op.den = param, nums.pop(None, 0), nums, den
    return op


def _rows(out):
    """The rows {d: {key: n}} of a product as parts of `_int_sum`."""
    return [(1, d, row.items()) for d, row in out.items()]


class _ShiftOp:
    """sum over (i, j) of nums[i, j]/den times the normal-ordered monomial
    (i, j), plus cnum/den times c.  A family subclass supplies `_context`,
    `_reorder` and `_cocycle`."""

    __slots__ = ("param", "nums", "cnum", "den")

    def __new__(cls, param, terms=None, central=0):
        _rational(param)  # TypeError for an inexact parameter
        items = [*(terms or {}).items(), (None, central)]
        return _op(cls, param, [(n, d, ((k, 1),)) for k, c in items for n, d in (_rational(c),)])

    @classmethod
    def monomial(cls, param, i, j, c=1):
        return cls(param, {(i, j): c})

    @property
    def terms(self):
        return {k: _over(n, self.den) for k, n in self.nums.items()}

    @property
    def central(self):
        return _over(self.cnum, self.den)

    def _part(self, s=1):
        """s times self as a part of `_int_sum`: s, den and the numerators."""
        return s, self.den, [*self.nums.items(), (None, self.cnum)]

    def __add__(self, other, sign=1):
        return _op(type(self), self.param, [self._part(), other._part(sign)])

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, c):
        n, d = _rational(c)
        return _op(type(self), self.param, [self._part(n)], d)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.nums and not self.cnum

    def __eq__(self, other):
        return (type(self) is type(other) and self.param == other.param
                and (self - other).is_zero())

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.terms}, central={self.central})"

    def _mul_into(self, out, other, ctx, sign=1):
        """Add sign times the normal-ordered product of the operator parts of
        self and other into out, over self.den * other.den."""
        reorder = self._reorder
        get = out.get
        for (a, j), c1 in self.nums.items():
            c1 = sign * c1
            for (b, k), c2 in other.nums.items():
                c = c1 * c2
                for key, n, d in reorder(ctx, a, j, b, k):
                    row = get(d)
                    if row is None:
                        row = out[d] = {}
                    row[key] = row.get(key, 0) + c * n
        return out

    def mul(self, other):
        """Associative product of the operator parts (normal-ordered); only
        defined away from the central line."""
        if self.cnum or other.cnum:
            raise ValueError("associative product is defined on operator parts")
        out = self._mul_into({}, other, self._context())
        return _op(type(self), self.param, _rows(out), self.den * other.den)


def _bracket(self, other):
    """Lie bracket: self other - other self, plus the family's cocycle summed
    over the monomial pairs with opposite nonzero shifts, over one den.
    Bound as `bracket` in each family's class body, so each keeps its name."""
    ctx = self._context()
    out = other._mul_into(self._mul_into({}, other, ctx), self, ctx, -1)
    for (a, j), c1 in self.nums.items():
        for (b, k), c2 in other.nums.items():
            if j and j + k == 0:
                for n, d in self._cocycle(ctx, a, j, b):
                    row = out.setdefault(d, {})
                    row[None] = row.get(None, 0) + c1 * c2 * n
    return _op(type(self), self.param, _rows(out), self.den * other.den)


class QOp(_ShiftOp):
    """c Z^i D^j under the key (i, j), over q = param, with D Z = q Z D."""

    __slots__ = ()

    bracket = _bracket

    def _context(self):
        """pw(e), q^e as an int pair: from the pair of q for e >= 0, of 1/q
        for e < 0.  For a rational q = n/d, 1/q is d/n with the sign on the
        numerator; a series q keeps its inverse."""
        n, d = _rational(self.param)
        if type(n) is not int:
            inv = _rational(Fraction(1) / self.param)
        elif n:
            inv = (d, n) if n > 0 else (-d, -n)
        else:
            raise ZeroDivisionError("q = 0 has no inverse")
        pairs = (n, d), inv
        return lambda e: (pairs[e < 0][0] ** abs(e), pairs[e < 0][1] ** abs(e))

    def _reorder(self, pw, a, j, b, k):
        """Z^a D^j Z^b D^k = q^(jb) Z^(a+b) D^(j+k)."""
        return (((a + b, j + k),) + pw(j * b),)

    def _cocycle(self, pw, a, j, b):
        """The pairs that sum to the cocycle on Z^a D^j, Z^b D^-j."""
        if j > 0:
            return [pw(a * i + b * (j + i)) for i in range(-j, 0)]
        return [(-n, d) for i in range(j, 0) for n, d in (pw(b * i + a * (i - j)),)]


_SHIFT_ROWS = {}


def _shift_row(h, j, b):
    """The row [(m, n, d)] of (x + jh)^b, n/d = C(b, m) (jh)^(b-m), only
    m = b when j = 0, for h = (h_n, h_d), kept in `_SHIFT_ROWS`."""
    row = _SHIFT_ROWS.get(h + (j, b))
    if row is None:
        hn, hd = h
        row = _SHIFT_ROWS[h + (j, b)] = [(m, comb(b, m) * (j * hn) ** (b - m), hd ** (b - m))
                                         for m in range(b + 1) if j or m == b]
    return row


class HOp(_ShiftOp):
    """c x^i shift^j under the key (i, j), over h = param, with
    shift x = (x + h) shift."""

    __slots__ = ()

    bracket = _bracket

    def _context(self):
        return _rational(self.param)

    def _reorder(self, ctx, a, j, b, k):
        """x^a shift^j x^b shift^k = x^a (x + jh)^b shift^(j+k)."""
        return [((a + m, j + k), n, d) for m, n, d in _shift_row(ctx, j, b)]

    def _cocycle(self, ctx, a, r, b):
        """Cocycle on x^a shift^r, x^b shift^-r: h^(a+b) times the sum over
        -r <= l < 0 of l^a (l + r)^b for r > 0, and minus the sum over
        r <= l < 0 of l^b (l - r)^a for r < 0."""
        if r > 0:
            s = sum(l ** a * (l + r) ** b for l in range(-r, 0))
        else:
            s = -sum(l ** b * (l - r) ** a for l in range(r, 0))
        return [(s * ctx[0] ** (a + b), ctx[1] ** (a + b))]

    def poly(self, j):
        """The x-polynomial {i: c} multiplying shift^j."""
        return {i: _over(n, self.den) for (i, s), n in self.nums.items() if s == j}


# -- images of the limit presentations --------------------------------------

def theta_m_e(q, i):
    return QOp.monomial(q, i, 1)


def theta_m_f(q, i):
    # -D^{-1} Z^i = -q^{-i} Z^i D^{-1} in normal order
    return QOp.monomial(q, i, -1, -(_exact(q) ** (-i)))


def theta_m_H(q, k):
    p = _exact(q) ** (-k)
    return QOp(q, {(k, 0): -(1 - p)}, central=-p)


def theta_m_kappa(q):
    return QOp(q, {}, central=1)


def theta_a_e(h, j):
    return HOp.monomial(h, j, 1)


def theta_a_f(h, j):
    # -shift^{-1} x^j = -(x - h)^j shift^{-1}
    return HOp(h, {(m, -1): -comb(j, m) * (-h) ** (j - m) for m in range(j + 1)})


def theta_a_psi(h, j):
    """(x-h)^j - x^j as a pure multiplication operator, plus -(-h)^j central."""
    out = {(m, 0): comb(j, m) * (-h) ** (j - m) for m in range(j + 1)}
    out[j, 0] -= 1
    return HOp(h, out, central=-((-h) ** j))


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
    """Audit of the limit-presentation relations on the multiplicative images:
    the list of (relation, instance) failures, empty when all hold.  Each
    bracket of two generator images is computed once (`_audit_brackets`)."""
    fails = []
    q, W = _exact(q), range(-window, window + 1)
    sig = 1 + q + 1 / q
    gen, br = _audit_brackets(q, {"e": theta_m_e, "f": theta_m_f, "H": theta_m_H})

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
            want = gen("H", i + j) if i + j != 0 else theta_m_kappa(q).scale(-1)
            if not (r - want).is_zero():
                fails.append(("ef", (i, j)))
    for m in filter(None, W):
        c = -(1 - q ** m) * (1 - q ** (-m))
        for i in W:
            if not (br(("H", m), ("e", i)) - gen("e", i + m).scale(c)).is_zero():
                fails.append(("He", (m, i)))
            if not (br(("H", m), ("f", i)) - gen("f", i + m).scale(-c)).is_zero():
                fails.append(("Hf", (m, i)))
    for x in ("e", "f"):
        if not gen(x, 0).bracket(br((x, 1), (x, -1))).is_zero():
            fails.append((f"serre-{x}", ()))
    return fails


def check_theta_a_relations(h, window=2):
    """Audit of the additive limit relations on the shift-operator images;
    each bracket of two generator images is computed once (`_audit_brackets`)."""
    fails = []
    W = range(0, window + 1)
    gen, br = _audit_brackets(h, {"e": theta_a_e, "f": theta_a_f, "psi": theta_a_psi})
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
            if not (br(("e", i), ("f", j)) - gen("psi", i + j)).is_zero():
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
        if not (br(("psi", 2), ("e", j)) - gen("e", j).scale(2 * h0sq)).is_zero():
            fails.append(("psi2e", j))
        if not (br(("psi", 2), ("f", j)) + gen("f", j).scale(2 * h0sq)).is_zero():
            fails.append(("psi2f", j))
    # the Serre sum over the arrangements of idx depends only on its multiset:
    # each distinct arrangement is bracketed once, weighted by its multiplicity
    serre = {}
    for idx in ((0, 0, 0), (0, 1, 0), (1, 0, 0)):
        key = tuple(sorted(idx))
        if key not in serre:
            acc = None
            for (a, b, c), n in Counter(permutations(key)).items():
                t = gen("e", a).bracket(br(("e", b), ("e", c + 1))).scale(n)
                acc = t if acc is None else acc + t
            serre[key] = acc
        if not serre[key].is_zero():
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
    caller-owned and keyed by (k, l, q), so one dict may serve several q."""
    if cache is None:
        cache = {}
    q = _exact(q)
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
        br = hall_image(-1, 0, q, cache).bracket(hall_image(1, l, q, cache))
        out = br.scale((1 if l > 0 else -1) * _alpha_limit(q, 1) / _alpha_limit(q, abs(l)))
    else:  # |k| > 1; k < -1 mirrors the split of (-k, -l) through the lowering half
        from .shuffle import _empty_triangle_split

        s = 1 if k > 0 else -1
        d = gcd(k, l)  # the mirrored pair keeps det = d
        (k1, l1), (k2, l2) = _empty_triangle_split(s * k, s * l)
        br = hall_image(s * k2, s * l2, q, cache).bracket(hall_image(s * k1, s * l1, q, cache))
        out = br.scale(_alpha_limit(q, 1) / _alpha_limit(q, d))
    cache[key] = out
    return out


def lattice_interior_count(k, l):
    """(k*l - k - l - gcd + 2)/2: signed interior points of the lattice
    triangle with legs (0,l) and (k,0) attached at the corner."""
    d = gcd(k, abs(l)) if l else k
    f, odd = divmod(k * l - k - l - d + 2, 2)
    if odd:
        raise ValueError(f"no interior count at ({k}, {l}): odd numerator")
    return f


def pick_closed_form(k, l, q):
    """Closed-form image of u_(k,l) for k != 0, and of the central row.

    For k > 0:  q^f(k,l) (1-q^-1)/(1-q^-d) (1-q)^{k-1} Z^l D^k.
    For k < 0:  -q^{-f} (1-q)/(1-q^d) (1-q^-1)^{|k|-1} D^{-|k|} Z^{-|l|}-form.
    For k = 0:  sign(l) (1-q^-1)(1-q)/(1-q^l) (Z^l - c/(1-q^l))."""
    q = _exact(q)
    if k > 0:
        d = gcd(k, abs(l)) if l else k
        f = lattice_interior_count(k, l)
        c = q ** f * (1 - 1 / q) / (1 - q ** (-d)) * (1 - q) ** (k - 1)
        return QOp(q, {(l, k): c})
    if k < 0:
        kk, ll = -k, -l
        d = gcd(kk, abs(ll)) if ll else kk
        f = lattice_interior_count(kk, ll)
        # -q^{-f} (1-q)/(1-q^d) (1-q^-1)^{kk-1} D^{-kk} Z^{-ll}
        c = -q ** (-f) * (1 - q) / (1 - q ** d) * (1 - 1 / q) ** (kk - 1)
        # normal order: D^{-kk} Z^{-ll} = q^{kk*ll} Z^{-ll} D^{-kk}
        return QOp(q, {(-ll, -kk): c * q ** (kk * ll)})
    pref = (1 if l > 0 else -1) * (1 - 1 / q) * (1 - q) / (1 - q ** l)
    return QOp(q, {(l, 0): pref}, central=-pref / (1 - q ** l))


def pick_printed_central(l, q):
    """The central coefficient of the row element as printed in the source
    derivation; kept separate because it disagrees with the recursion by a
    factor (1 - q) (documented inconsistency)."""
    q = _exact(q)
    pref = (1 if l > 0 else -1) * (1 - 1 / q) * (1 - q) / (1 - q ** l)
    return -pref * (1 - q) / (1 - q ** l)


# -- nested commutator constants ---------------------------------------------

def lambda_constant(N, n, q):
    q = _exact(q)
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
    pa, pb = A.poly(n), B.poly(n)
    bet = beta_constant(N, n)
    top = N - n + 1
    if not pb:
        # both sides collapse entirely; proportionality is vacuous
        return not pa, bet
    return max(pb) == top and max(pa, default=top) <= top and pa.get(top, 0) == bet * pb[top], bet


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
    pure multiplication part); a stored numerator has its coefficient's val."""
    return all(getattr(n, "val", 0) >= (abs(j) - 1 if j else 1) for (_, j), n in op.nums.items())


def jacobi_qop(q, triples):
    """Exact Jacobi identity for the cocycle-twisted bracket (certifies the
    2-cocycle condition on the sampled monomials)."""
    return _jacobi(QOp, q, triples)


def jacobi_hop(h, triples):
    return _jacobi(HOp, h, triples)


def _jacobi(cls, param, triples):
    ops = ([cls.monomial(param, *m) for m in t] for t in triples)
    return all((a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
                + c.bracket(a.bracket(b))).is_zero() for a, b, c in ops)
