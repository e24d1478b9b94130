"""Fixed-point weights, chain-evaluated shuffle operators, and the
eigenvector property of the summed fixed-point classes.

The lowering operators indexed by the pairwise-product generators act on
the completed sum of all fixed-point classes; on each graded piece the
action is a finite weighted sum over n-box extensions, evaluated through an
ordered chain of one-box steps.  Both the K-theoretic and cohomological
weights are covered.

The tangent factors of the fixed-point weights, the chain contents and
the kernel factors are written once over the parameter pack's family
weights (`params`: `mono`, `gap`, `frame` and `KERNEL_WEIGHTS`), so the
pack alone decides the family; `flavor` only picks the module class, the
generator family and the closed form.  (The star product's kernel
numerator stays flavor-selected; the `shuffle` docstring says why.)

A summand is F's numerator at a chain's contents times the chain weight
w(big)/w(lam) * (lowering coefficients along the chain) / (kernel
denominator).  Each value is kept where it is valid (`repbase`'s memo rule):
- on the pack: weights, chains and kernel denominators (integer products,
  each made one `Fraction`), and the unperturbed modules;
- on the module: the chain weights, lowering products included, as one
  list per (pack, label, n) that serves every j.  A `PerturbedModule` keeps
  its own, so `perturb=True`, which wraps the kept module, shows it;
- in the call: F's numerator per content tuple, over one
  `whittaker_eigencheck`'s labels.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import partitions as pt
from .params import KERNEL_WEIGHTS, GenericityError
from .repbase import PerturbedModule, memoized
from .shuffle import K_element
from .toroidal import KTheoryFixedPointModule
from .yangian import CohomologyFixedPointModule

__all__ = [
    "fixed_weight",
    "box_chain",
    "chain_contents",
    "shuffle_matrix_coeff",
    "whittaker_sum",
    "whittaker_eigencheck",
    "C_constant",
    "D_constant",
]


def fixed_weight(mlam, params):
    """Product of 1/(1 - w) over the K-theoretic tangent weights w at the
    fixed point, resp. of 1/w over the cohomological ones; the pack decides
    the family."""
    return _fixed_weight(params, mlam)


@memoized
def _fixed_weight(p, mlam):
    num = den = 1
    for _, e1, e2, b, a in pt.tangent_character(mlam):  # every sign is +1
        n, d = _tangent_factor(p, e1, e2, b, a)
        if d == 0:
            raise GenericityError(f"vanishing tangent factor at {mlam}")
        num *= n
        den *= d
    return Fraction(num, den)


@memoized
def _tangent_factor(p, e1, e2, b, a):
    """(denominator, numerator) of 1 - t1^e1 t2^e2 chi_b/chi_a, resp.
    e1 h1 + e2 h2 + x_b - x_a, kept on the pack."""
    f = p.gap(p.mono(e1, e2, p.frame(a)), p.frame(b))
    return f.denominator, f.numerator


def box_chain(small, big, order="canonical"):
    """Ordered chain of one-box additions from small to big.

    canonical: boxes sorted by (component, row, col); alternative: by
    (-component, row, col).  Both orders keep every intermediate label a
    valid diagram tuple (rows grow top to bottom, columns left to right).
    ValueError when big does not contain small.
    """
    if len(small) != len(big):
        raise ValueError(f"{big} and {small} have different ranks")
    boxes = []
    for a in range(1, len(small) + 1):
        la, lb = small[a - 1], big[a - 1]
        for j in range(1, len(lb) + 1):
            for i in range(pt.part(la, j) + 1, pt.part(lb, j) + 1):
                boxes.append((a, i, j))
    if order == "canonical":
        boxes.sort(key=lambda b: (b[0], b[2], b[1]))
    elif order == "reverse-component":
        boxes.sort(key=lambda b: (-b[0], b[2], b[1]))
    else:
        raise ValueError("unknown chain order")
    chain = [small]
    cur = small
    for (a, i, j) in boxes:
        cur = pt.mp_add_box(cur, a, j)
        chain.append(cur)
    if chain[-1] != big:
        raise ValueError(f"{big} does not contain {small}")
    return boxes, chain


def chain_contents(boxes, params):
    return [params.mono(i - 1, j - 1, params.frame(a)) for (a, i, j) in boxes]


@memoized
def _chain_kernel(params, small, big, order):
    """(chain, contents tuple, kernel denominator) of the chain from small
    to big: prod_{a<b} (c_a - c_b)^2 omega(c_a, c_b), a pair's factor
    prod_k (c_a - m_k c_b) / (c_a - c_b) over the kernel monomials m_k."""
    boxes, chain = box_chain(small, big, order=order)
    contents = tuple(chain_contents(boxes, params))
    num = den = 1
    for a, x in enumerate(contents):
        for y in contents[a + 1:]:
            d = x - y
            num *= d.denominator
            den *= d.numerator
            for (k1, k2) in KERNEL_WEIGHTS:
                f = x - params.mono(k1, k2, y)
                num *= f.numerator
                den *= f.denominator
    return chain, contents, Fraction(num, den)


@memoized
def _lowering_table(module, label):
    """{target: coefficient} of the label's lowering transitions."""
    return {tgt: c for tgt, c, _ in module.f_transitions(label)}


def _chain_weight(module, params, small, big, order):
    """(contents, g) of the chain from small to big: g, the module's
    lowering coefficients along the chain over the kernel denominator, is
    the matrix coefficient but F."""
    chain, contents, kernel = _chain_kernel(params, small, big, order)
    num, den = kernel.denominator, kernel.numerator
    for q in range(len(chain) - 1, 0, -1):
        c = _lowering_table(module, chain[q]).get(chain[q - 1], 0)
        num *= c.numerator
        den *= c.denominator
    return contents, Fraction(num, den)


def shuffle_matrix_coeff(F, big, small, module, params, order="canonical"):
    """Matrix coefficient of a lowering shuffle element between fixed-point
    classes, via the ordered one-box chain: F's numerator at the chain
    contents times the chain weight (`_chain_weight`)."""
    contents, g = _chain_weight(module, params, small, big, order)
    if F.n != len(contents):
        raise ValueError("arity mismatch")
    return F.num.eval(contents) * g


@memoized
def _weighted_chains(module, params, mlam, n):
    """[(big, [(contents, g) per chain order])] over the n-box extensions
    of mlam, g the weight ratio w(big)/w(mlam) times the chain weight; the
    canonical order first, and the reverse-component one at rank > 1."""
    orders = ("canonical", "reverse-component") if len(mlam) > 1 else ("canonical",)
    base_w = fixed_weight(mlam, params)
    out = []
    for big in _extensions(mlam, n):
        if _two_in_a_row(mlam, big):
            # the pairwise-difference numerator kills these chains
            continue
        ratio = fixed_weight(big, params) / base_w
        out.append((big, tuple((contents, ratio * g) for contents, g in
                               (_chain_weight(module, params, mlam, big, o) for o in orders))))
    return out


def whittaker_sum(mlam, F, params, module, fvals=None):
    """Sum over all n-box extensions of the weight ratio times the chain
    matrix coefficient (the eigenvalue candidate at the given label), and
    the extensions whose two chain orders disagree (rank > 1).  `fvals`
    keeps F's numerator per content tuple across the caller's sums."""
    fvals = {} if fvals is None else fvals
    total = Fraction(0)
    chain_dependent = []
    for big, chains in _weighted_chains(module, params, mlam, F.n):
        vals = []
        for contents, g in chains:
            v = fvals.get(contents)
            if v is None:
                v = fvals[contents] = F.num.eval(contents)
            vals.append(v * g)
        if vals[-1] != vals[0]:
            chain_dependent.append(big)
        total += vals[0]
    return total, chain_dependent


def _extensions(mlam, n):
    """All labels obtained by adding n boxes (no two in the same row of the
    same component are filtered by the caller)."""
    levels = [mlam]
    for _ in range(n):
        nxt = set()
        for lab in levels:
            for (a, i, j) in pt.addable_boxes(lab):
                nxt.add(pt.mp_add_box(lab, a, j))
        levels = sorted(nxt)
    return levels


def _two_in_a_row(small, big):
    for a in range(len(small)):
        for j in range(1, len(big[a]) + 1):
            if pt.part(big[a], j) - pt.part(small[a], j) >= 2:
                return True
    return False


def C_constant(j, n, r, params):
    """Closed-form eigenvalues in the K flavor for the weighted families."""
    t1, t2 = params.q1, params.q2
    chiprod = Fraction(1)
    for a in range(r):
        chiprod *= params.chis[a]
    qfac = Fraction(1)
    for m in range(1, n + 1):
        qfac *= (1 - t2 ** m)
    if j == 0:
        sign = (-1) ** (n * (n + 1) // 2 + n * r - n)
        return sign * (t1 * t2 * chiprod) ** n * t1 ** (n * (n - 1) // 2) / \
            ((1 - t1) ** n * qfac)
    if 1 <= j <= r - 1:
        return Fraction(0)
    if j == r:
        return (-t1 * t2) ** (n * (n + 1) // 2) / ((1 - t1) ** n * qfac)
    raise ValueError("0 <= j <= r")


def D_constant(j, n, r, params):
    """Closed-form eigenvalues in the H flavor (None when only the
    label-independence is asserted).

    Signs are rank-independent: (-1)^{n(n-1)/2} for the subleading family
    and an overall minus for the framing-linear one.  These are pinned by
    the one-box weight duality together with the verified module
    coefficients, and agree with the rank-dependent printed signs exactly
    when n*r (resp. r) is even.
    """
    s1, s2 = params.h1, params.h2
    if 0 <= j <= r - 2:
        return Fraction(0)
    if j == r - 1:
        return Fraction((-1) ** (n * (n - 1) // 2)) / \
            (factorial(n) * s1 ** n * s2 ** n)
    if j == r and n == 1:
        return -sum(params.xs[:r]) / (s1 * s2)
    if j == r:
        return None
    raise ValueError("0 <= j <= r")


@memoized
def _fixed_point_module(params, flavor, r):
    """The unperturbed rank-r fixed-point module of the flavor, kept on the
    pack."""
    cls = KTheoryFixedPointModule if flavor == "K" else CohomologyFixedPointModule
    return cls(params, r)


def whittaker_eigencheck(flavor, r, n, j, level_bound, params, perturb=False):
    """Verify the eigenvector property at desk scale.

    Returns (constant, failures): the common eigenvalue over all labels up
    to the level bound, and any chain-dependence, label-dependence or
    closed-form mismatches.
    perturb=True rescales one lowering coefficient as a negative control:
    the pack's kept module, built once per (flavor, r), is wrapped in a
    fresh `PerturbedModule` and itself left unchanged.
    """
    module = _fixed_point_module(params, flavor, r)
    if flavor == "K":
        F = K_element("m", n, params, power=j)
        want = C_constant(j, n, r, params)
    else:
        F = K_element("a", n, params, power=j)
        want = D_constant(j, n, r, params)
    if perturb:
        module = PerturbedModule(module, "f")
    failures, fvals = [], {}
    ref = ref_label = None
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            val, chain_dependent = whittaker_sum(mlam, F, params, module, fvals)
            for big in chain_dependent:
                failures.append(("chain-dependence", mlam, big))
            if ref is None:
                ref, ref_label = val, mlam
            elif val != ref:
                failures.append(("label-dependence", ref_label, mlam))
    if want is not None and ref is not None and ref != want:
        failures.append(("closed-form", ref, want))
    return ref, failures

