"""Small shuffle algebras of both flavors: star products, the wheel
condition, stable-limit subalgebra membership, and the distinguished
generator families.

An element is a symmetric (Laurent) polynomial numerator f over the squared
discriminant of its variables.  Equality is decided by comparing numerators
exactly, never by sampling.  The star product antisymmetrizes one numerator
over the (i, j)-shuffles and divides by the Vandermonde; the public default,
the plain sum over the full symmetric group, is i!j! times that coset sum.
The star commutator is one such antisymmetrization too, with the
commutator kernel in place of the star kernel (`star_commutator`).

Both steps run on integers: the twisted product T is an `MPoly`, stored
as integer numerators over one denominator (`nums`, `den`); its signed,
permuted numerators are summed into one dict,
`multipoly._div_vandermonde_int` divides that dict by each (x_a - x_b), and
the quotient over T's denominator is the result, reduced by one gcd pass.
No Fraction is built on the way.  The closed-form oracle
`L_element_symmetrized` keeps its own `MPoly.apply_perm` loop and goes
through `MPoly.div_vandermonde`.

`star` and `star_commutator` compute each distinct product once per
process.  Two module-level tables, both kept for the life of the process
with no size bound, hold:

- the twisted kernel, keyed by (kernel, flavor, weights, i, j), where the
  kernel is 'star' or 'commutator' and the weights are ``params.qs`` ('m')
  or ``params.hs`` ('a'), with the exponent map and sign of each
  (i, j)-shuffle;
- the coset numerator of every product or commutator with i, j >= 1,
  keyed by (kernel, flavor, weights, i, F's denominator, frozenset of F's
  numerator items, j, G's denominator, frozenset of G's); the stored form
  is canonical, so equal numerators give equal keys.

Each key holds every input its value is computed from, so a hit returns
exactly what a fresh computation would.  `MPoly` values are never mutated
in place, so returned elements may share a cached numerator.  The
closed-form oracle `L_element_symmetrized` builds its own kernel product and
reads neither table.

The pairwise-product generators (`K_element`) and the wheel loci
(`wheel_check`) are written once over the parameter pack's family weights
(`params`: `mono`, `unit` and `KERNEL_WEIGHTS`).  The kernel numerator of
the star product (`_kernel_factor`) and its memo keys (`_weights`) stay
selected by the elements' flavor: a star product reads of the pack only the
weight tuple (`qs` or `hs`) that its memo key holds, so the flavor, not the
pack, names the family.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from operator import itemgetter

from .multipoly import MPoly, _div_vandermonde_int, _mpoly
from .params import KERNEL_WEIGHTS

__all__ = [
    "ShuffleElement",
    "unit",
    "x_power",
    "star",
    "star_commutator",
    "wheel_check",
    "limit_scaled",
    "limit_shifted",
    "stable_membership",
    "K_element",
    "L_element",
    "L_element_symmetrized",
    "hall_u",
    "hall_theta",
]


class ShuffleElement:
    """flavor 'm' (Laurent) or 'a' (polynomial), arity n, numerator f."""

    __slots__ = ("flavor", "n", "num")

    def __init__(self, flavor, n, num):
        if flavor not in ("m", "a"):
            raise ValueError("flavor must be 'm' or 'a'")
        self.flavor = flavor
        self.n = n
        self.num = num

    def __eq__(self, other):
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return (self.flavor == other.flavor and self.n == other.n
                and self.num == other.num)

    def __hash__(self):
        raise TypeError("unhashable")

    def _check_same_space(self, other):
        if self.flavor != other.flavor or self.n != other.n:
            raise ValueError(
                f"cannot combine flavor {self.flavor!r} arity {self.n} with "
                f"flavor {other.flavor!r} arity {other.n}")

    def __add__(self, other):
        self._check_same_space(other)
        return ShuffleElement(self.flavor, self.n, self.num + other.num)

    def __sub__(self, other):
        self._check_same_space(other)
        return ShuffleElement(self.flavor, self.n, self.num - other.num)

    def __mul__(self, c):
        return ShuffleElement(self.flavor, self.n, self.num * c)

    __rmul__ = __mul__

    def is_zero(self):
        return self.num.is_zero()

    def scalar_ratio(self, other):
        """c with self == c * other, or None; both must be nonzero."""
        if self.n != other.n or self.num.is_zero() or other.num.is_zero():
            return None
        a, b = self.num, other.num
        e0 = next(iter(b.nums))
        if e0 not in a.nums:
            return None
        c = Fraction(a.nums[e0] * b.den, b.nums[e0] * a.den)
        return c if a == b * c else None

    def __repr__(self):
        return f"ShuffleElement({self.flavor}, n={self.n}, {self.num!r})"


def unit(flavor):
    return ShuffleElement(flavor, 0, MPoly.const(0, 1))


def x_power(flavor, i):
    if flavor == "a" and i < 0:
        raise ValueError("additive flavor needs nonnegative powers")
    return ShuffleElement(flavor, 1, MPoly.monomial(1, (i,)))


def _kernel_factor(flavor, n, l, k, params):
    """Numerator of the kernel weight attached to the ordered pair (x_l, x_k)."""
    xl = MPoly.var(n, l)
    xk = MPoly.var(n, k)
    if flavor == "m":
        q1, q2, q3 = params.qs
        return (xl - q1 * xk) * (xl - q2 * xk) * (xl - q3 * xk)
    h1, h2, h3 = params.hs
    return (xl - xk - MPoly.const(n, h1)) * (xl - xk - MPoly.const(n, h2)) \
        * (xl - xk - MPoly.const(n, h3))


def _embed(num, n, offset):
    left, right = (0,) * offset, (0,) * (n - offset - num.n)
    return _mpoly(n, {left + e + right: c for e, c in num.nums.items()}, num.den)


def _shuffles(i, j):
    """(i, j)-shuffles of 0..i+j-1 as position images (sigma[pos] = slot)."""
    n = i + j
    for left in combinations(range(n), i):
        right = [s for s in range(n) if s not in left]
        yield tuple(list(left) + right)


# Process-wide memo tables of `star` and `star_commutator` (see the module
# docstring).
_TWISTED_KERNELS = {}
_COSET_NUMERATORS = {}


def _weights(flavor, params):
    return params.qs if flavor == "m" else params.hs


def _twisted_kernel(kind, flavor, i, j, params):
    """The kernel of `kind` with the within-block Vandermonde, and (exponent
    map, sign sigma) for each (i, j)-shuffle sigma and all pairs.  The star
    kernel is (-1)^(ij) times the cross kernels kf(x_l, x_k), k < i <= l;
    the commutator kernel subtracts the swapped cross kernels kf(x_k, x_l)
    (see `star_commutator`).  x_k -> x_sigma(k) sends an exponent e to
    e o sigma^-1."""
    key = (kind, flavor, _weights(flavor, params), i, j)
    hit = _TWISTED_KERNELS.get(key)
    if hit is None:
        n = i + j
        cross = [(k, l) for k in range(i) for l in range(i, n)]
        K = MPoly.const(n, (-1) ** (i * j))
        for k, l in cross:
            K = K * _kernel_factor(flavor, n, l, k, params)
        if kind == "commutator":
            swapped = MPoly.const(n, 1)
            for k, l in cross:
                swapped = swapped * _kernel_factor(flavor, n, k, l, params)
            K = K - swapped
        allpairs = list(combinations(range(n), 2))
        for (a, b) in allpairs:
            if (a < i) == (b < i):
                K = K * (MPoly.var(n, a) - MPoly.var(n, b))
        shuffles = [(itemgetter(*sorted(range(n), key=sigma.__getitem__)), _perm_sign(sigma))
                    for sigma in _shuffles(i, j)]
        hit = _TWISTED_KERNELS[key] = (K, shuffles, allpairs)
    return hit


def _coset_numerator(kind, F, G, params):
    """Numerator of the coset-convention product ('star') or commutator
    ('commutator') of F and G (i, j >= 1), antisymmetrized and divided on
    integers over T's common denominator."""
    i, j, n = F.n, G.n, F.n + G.n
    key = (kind, F.flavor, _weights(F.flavor, params), i, F.num.den,
           frozenset(F.num.nums.items()), j, G.num.den, frozenset(G.num.nums.items()))
    num = _COSET_NUMERATORS.get(key)
    if num is None:
        K, shuffles, allpairs = _twisted_kernel(kind, F.flavor, i, j, params)
        T = _embed(F.num, n, 0) * _embed(G.num, n, i) * K
        terms = list(T.nums.items())
        acc = {}
        for image, sign in shuffles:
            for e, c in terms:
                e = image(e)
                acc[e] = acc.get(e, 0) + sign * c
        num = _COSET_NUMERATORS[key] = _mpoly(n, _div_vandermonde_int(acc, allpairs), T.den)
    return num


def _check_operands(F, G, convention):
    if F.flavor != G.flavor:
        raise ValueError(f"star of flavors {F.flavor!r} and {G.flavor!r}")
    if convention not in ("plain", "coset"):
        raise ValueError("convention must be 'plain' or 'coset'")


def star(F, G, params, convention="plain"):
    """Kernel-twisted symmetrized product.

    Antisymmetrizes F(x_1..x_i) G(x_i+1..x_n) times the cross kernels, the
    within-block Vandermonde and (-1)^(ij) over the (i, j)-shuffles, and
    divides by the Vandermonde (a shuffle keeps each block's order).

    convention 'plain' sums over the whole symmetric group (so the result
    carries an i!j! multiplicity over the coset convention 'coset').

    For i, j >= 1 the coset numerator is memoized for the whole process, with
    no size bound, under ('star', flavor, weights, i, F's denominator and
    frozenset of numerator items, j, G's), the weights being params.qs ('m')
    or params.hs ('a'); the twisted kernel is built once per ('star',
    flavor, weights, i, j).  The key holds every input the numerator depends
    on, so a hit is exactly the fresh result; the i!j! factor of 'plain' is
    applied after the lookup, so either convention may fill the entry.
    """
    _check_operands(F, G, convention)
    i, j, n = F.n, G.n, F.n + G.n
    if i == 0:
        out = ShuffleElement(G.flavor, n, G.num * F.num.eval(()))
    elif j == 0:
        out = ShuffleElement(F.flavor, n, F.num * G.num.eval(()))
    else:
        out = ShuffleElement(F.flavor, n, _coset_numerator("star", F, G, params))
    if convention == "plain":
        out = out * (factorial(i) * factorial(j))
    return out


def star_commutator(F, G, params, convention="plain"):
    """[F, G] = star(F, G) - star(G, F), as one antisymmetrization.

    Relabelling the variables of star(G, F) so that G's block comes last is
    a permutation of sign (-1)^(ij), and it turns that product's cross
    kernels kf(x_l, x_k) (x_k in G's block, x_l in F's) into kf(x_k, x_l)
    with x_k in F's block and x_l in G's.  So for i, j >= 1 both products
    are antisymmetrizations of F(x_A) G(x_B) V_A V_B times a kernel over the
    same (i, j)-shuffles, and their difference is one, with the commutator
    kernel

        K_c = (-1)^(ij) prod kf(x_l, x_k) - prod kf(x_k, x_l),  k < i <= l,

    (the product of (-1)^(ij) from `star` and the (-1)^(ij) of the swap
    being 1) in place of the star kernel; V_A, V_B are the within-block
    Vandermondes and kf is `_kernel_factor`.  The numerator and the kernel
    are memoized as in `star`, under keys that begin with 'commutator', so
    star and commutator entries never meet; 'plain' multiplies by i!j! as
    `star` does.  An arity-0 operand is a scalar, and the commutator is
    star(F, G) - star(G, F) as written, the zero element of arity n.
    """
    _check_operands(F, G, convention)
    i, j, n = F.n, G.n, F.n + G.n
    if i == 0 or j == 0:
        return star(F, G, params, convention) - star(G, F, params, convention)
    out = ShuffleElement(F.flavor, n, _coset_numerator("commutator", F, G, params))
    if convention == "plain":
        out = out * (factorial(i) * factorial(j))
    return out


def wheel_check(F, params):
    """True iff the numerator vanishes on the wheel locus (vacuous for n < 3):
    x1/x2 = q_u, x2/x3 = q_v, resp. x1 - x2 = h_u, x2 - x3 = h_v, over the
    six ordered pairs u = (a, b) != v = (c, d) of kernel weights, where
    q_u = q1^a q2^b and h_u = a h1 + b h2."""
    if F.n < 3:
        return True
    collapse = F.num.collapse_monomial if F.flavor == "m" else F.num.collapse_affine
    one = params.unit
    for (a, b), (c, d) in permutations(KERNEL_WEIGHTS, 2):
        locus = (params.mono(a, b, one), one, params.mono(-c, -d, one))
        if not collapse((0, 1, 2), locus).is_zero():
            return False
    return True


class LimitData:
    """Outcome of one stable-limit evaluation."""

    def __init__(self, exists, top=None):
        self.exists = exists
        self.top = top  # numerator of the limit (None when divergent)

    def __repr__(self):
        return "LimitData(divergent)" if not self.exists else f"LimitData({self.top!r})"


def limit_scaled(F, k, direction):
    """Multiplicative stable limit: scale the last k variables by xi and send
    xi to infinity (direction +1) or zero (direction -1)."""
    n = F.n
    if not (1 <= k <= n):
        raise ValueError("1 <= k <= n required")
    last = list(range(n - k, n))
    parts = F.num.graded_parts(last)
    dtop = 2 * comb(k, 2) + 2 * k * (n - k)
    dlow = 2 * comb(k, 2)
    if direction == +1:
        dmax = max(parts, default=0)
        if dmax > dtop:
            return LimitData(False)
        return LimitData(True, parts.get(dtop, MPoly.zero(n)))
    dmin = min(parts, default=0)
    if dmin < dlow:
        return LimitData(False)
    return LimitData(True, parts.get(dlow, MPoly.zero(n)))


def limit_shifted(F, k):
    """Additive stable limit: shift the last k variables by xi, xi -> infinity."""
    n = F.n
    if not (1 <= k <= n):
        raise ValueError("1 <= k <= n required")
    last = list(range(n - k, n))
    parts = F.num.xi_shift_parts(last)
    dtop = 2 * k * (n - k)
    dmax = max(parts, default=0)
    if dmax > dtop:
        return LimitData(False)
    return LimitData(True, parts.get(dtop, MPoly.zero(n)))


def stable_membership(F):
    """Membership in the commutative stable-limit subalgebra.

    Multiplicative flavor: both one-sided limits must exist and agree for
    every k.  Additive flavor: the shifted limits must exist for every k.
    """
    n = F.n
    for k in range(1, n + 1):
        if F.flavor == "m":
            up = limit_scaled(F, k, +1)
            dn = limit_scaled(F, k, -1)
            if not (up.exists and dn.exists):
                return False
            # cross-multiplied equality of top/denominator-top vs low/den-low
            lhs = up.top
            rhs = dn.top
            for a in range(n - k):
                lhs = lhs.shift_var(a, 2 * k)
            for b in range(n - k, n):
                rhs = rhs.shift_var(b, 2 * (n - k))
            if lhs != rhs:
                return False
        else:
            if not limit_shifted(F, k).exists:
                return False
    return True


def K_element(flavor, n, params, power=0):
    """Pairwise-product generator of the commutative family, times a
    diagonal monomial weight."""
    num = MPoly.const(n, 1)
    for a in range(n):
        for b in range(a + 1, n):
            xa, xb = MPoly.var(n, a), MPoly.var(n, b)
            num = num * (xa - params.mono(1, 0, xb)) * (xb - params.mono(1, 0, xa))
    for a in range(n):
        num = num.shift_var(a, power)
    return ShuffleElement(flavor, n, num)


def L_element(flavor, j, params):
    """Nested star-commutator generator of the commutative family."""
    if j < 1:
        raise ValueError("j >= 1")
    if j == 1:
        return x_power(flavor, 0)
    if flavor == "m":
        acc = x_power("m", -1)
        for _ in range(j - 2):
            acc = star_commutator(x_power("m", 0), acc, params)
        return star_commutator(x_power("m", 1), acc, params)
    acc = x_power("a", j - 1)
    for _ in range(j - 1):
        acc = star_commutator(x_power("a", 0), acc, params)
    return acc


def L_element_symmetrized(n, params):
    """Closed antisymmetrized form of the multiplicative nested generator.

    Returns the element whose numerator is the alternating sum over the
    symmetric group of (telescoping ratio sums) times the full kernel
    product, divided by one discriminant.
    """
    if n == 1:
        return x_power("m", 0)
    core = MPoly.zero(n)
    for l in range(0, n - 1):
        c = Fraction((-1) ** l * comb(n - 2, l))
        e = [0] * n
        e[0] += 1
        e[n - 1 - l] -= 1
        core = core + MPoly.monomial(n, tuple(e), c)
        e = [0] * n
        e[n - 1] += 1
        e[n - 2 - l] -= 1
        core = core - MPoly.monomial(n, tuple(e), c)
    kern = MPoly.const(n, 1)
    for a in range(n):
        for b in range(a + 1, n):
            kern = kern * _kernel_factor("m", n, a, b, params)
    P = core * kern
    acc = MPoly.zero(n)
    for sigma in permutations(range(n)):
        sgn = _perm_sign(sigma)
        acc = acc + P.apply_perm(sigma) * sgn
    allpairs = list(combinations(range(n), 2))
    num = acc.div_vandermonde(allpairs)
    return ShuffleElement("m", n, num)


def _perm_sign(sigma):
    sgn = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sgn = -sgn
    return sgn


# -- lattice-point elements -------------------------------------------------

def _empty_triangle_split(k, l):
    """x + y = (k, l) with deg x = deg y = 1, det(x, y) = gcd(k, l), both
    first coordinates positive."""
    from math import gcd

    d = gcd(k, abs(l)) if l else k
    for k1 in range(1, k):
        k2 = k - k1
        lo = -abs(l) - k - 2
        hi = abs(l) + k + 2
        for l1 in range(lo, hi + 1):
            l2 = l - l1
            if gcd(k1, abs(l1)) != 1 or gcd(k2, abs(l2)) != 1:
                continue
            if k1 * l2 - l1 * k2 == d:
                return (k1, l1), (k2, l2)
    raise ValueError(f"no admissible splitting of ({k},{l})")


def hall_u(k, l, params, cache=None):
    """Lattice-point element u_(k,l), k >= 1, realized in the multiplicative
    shuffle algebra via the empty-triangle commutation recursion (coset
    convention, so the degree-one structure constants are exact).

    ``cache`` is caller-owned and keyed by (k, l, params.qs), so one dict
    may serve several parameter points."""
    if cache is None:
        cache = {}
    key = (k, l, params.qs)
    if key in cache:
        return cache[key]
    from math import gcd

    if k < 1:
        raise ValueError("only the positive half lives here")
    if k == 1:
        out = x_power("m", l)
    else:
        d = gcd(k, abs(l)) if l else k
        (k1, l1), (k2, l2) = _empty_triangle_split(k, l)
        ux = hall_u(k1, l1, params, cache)
        uy = hall_u(k2, l2, params, cache)
        bracket = star_commutator(uy, ux, params, convention="coset")
        if d == 1:
            out = bracket
        else:
            # theta = alpha_1 * bracket; strip the lower exponential terms
            # (every one but the linear alpha_d * u_{d(k0,l0)})
            lower = [c for c in _compositions(d) if c != (d,)]
            theta = params.alpha(1) * bracket
            corr = _exp_terms(k // d, l // d, lower, params, cache)
            num = theta - corr
            out = num * (1 / params.alpha(d))
    cache[key] = out
    return out


def _exp_terms(k0, l0, comps, params, cache):
    """The terms of the exponential identity in the u_(r k0, r l0) over the
    given compositions (nonempty): per composition, the ordered star
    product of its u's times prod alpha_r / length!.  Ordered compositions
    weighted by 1/length! reproduce the exponential."""
    tot = None
    for comp in comps:
        coeff = Fraction(1)
        elt = unit("m")
        for r in comp:
            coeff = coeff * params.alpha(r)
            elt = star(elt, hall_u(r * k0, r * l0, params, cache), params,
                       convention="coset")
        term = elt * (coeff / factorial(len(comp)))
        tot = term if tot is None else tot + term
    return tot


def _compositions(d):
    if d == 0:
        return [()]
    out = []
    for first in range(1, d + 1):
        for rest in _compositions(d - first):
            out.append((first,) + rest)
    return out


def hall_theta(n, params, cache=None):
    """theta_{n,0} from the exponential identity in the u_(r,0); ``cache``
    is passed to `hall_u`."""
    return _exp_terms(1, 0, _compositions(n), params, {} if cache is None else cache)
