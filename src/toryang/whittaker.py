"""Fixed-point weights, chain-evaluated shuffle operators, and the
eigenvector property of the summed fixed-point classes.

The lowering operators indexed by the pairwise-product generators act on
the completed sum of all fixed-point classes; on each graded piece the
action is a finite weighted sum over n-box extensions, evaluated through an
ordered chain of one-box steps.  Both the K-theoretic and cohomological
weights are covered.

The tangent factors of the fixed-point weights, the chain contents and
the kernel values are written once over the parameter pack's family
weights (`params`: `mono`, `gap`, `frame` and `KERNEL_WEIGHTS`), so the
pack alone decides the family; `flavor` only picks the module class, the
generator family and the closed form.  (The star product's kernel
numerator stays flavor-selected; the `shuffle` docstring says why.)

The fixed-point weights, the one-box chains with their kernel
denominators, and the unperturbed fixed-point modules depend only on the
parameters; they are kept on the parameter pack by the memo rule of
`repbase` (`memoized`, with the pack as first argument).  What a caller
can vary is never kept: F's numerator at the contents and the lowering
coefficients along the chain are read from the caller's F and module on
every call, so a `PerturbedModule` shows its perturbation; `perturb=True`
wraps the kept module in a fresh `PerturbedModule`, whose transitions are
its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import partitions as pt
from .params import KERNEL_WEIGHTS, GenericityError
from .repbase import PerturbedModule, coeff_of, memoized
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
    "bott_lefschetz_consistency",
]


def fixed_weight(mlam, params):
    """Product of 1/(1 - w) over the K-theoretic tangent weights w at the
    fixed point, resp. of 1/w over the cohomological ones.  Kept on the pack
    (weights recur across overlapping extension sweeps); the pack decides
    the family."""
    return _fixed_weight(params, mlam)


@memoized
def _fixed_weight(p, mlam):
    acc = Fraction(1)
    for _, e1, e2, b, a in pt.tangent_character(mlam):  # every sign is +1
        # 1 - t1^e1 t2^e2 chi_b/chi_a, resp. e1 h1 + e2 h2 + x_b - x_a
        f = p.gap(p.mono(e1, e2, p.frame(a)), p.frame(b))
        if f == 0:
            raise GenericityError(f"vanishing tangent factor at {mlam}")
        acc = acc / f
    return acc


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


def _kernel_value(params, x, y):
    """Full kernel weight omega(x, y) evaluated at scalars."""
    num = 1
    for (a, b) in KERNEL_WEIGHTS:
        num = num * (x - params.mono(a, b, y))
    return num / (x - y) ** 3


@memoized
def _chain_kernel(params, small, big, order):
    """(chain, contents, kernel denominator prod (c_a - c_b)^2 omega(c_a,
    c_b)) of the one-box chain from small to big, kept on the pack."""
    boxes, chain = box_chain(small, big, order=order)
    contents = chain_contents(boxes, params)
    den = Fraction(1)
    for a in range(len(contents)):
        for b in range(a + 1, len(contents)):
            den = den * (contents[a] - contents[b]) ** 2
            den = den * _kernel_value(params, contents[a], contents[b])
    return chain, contents, den


def shuffle_matrix_coeff(F, big, small, module, params, order="canonical"):
    """Matrix coefficient of a lowering shuffle element between fixed-point
    classes, via the ordered one-box chain.

    Value: F at the chain contents over the kernel product, times the
    product of mode-zero lowering coefficients along the chain.  The chain,
    its contents and the kernel product come from the pack's chain cache;
    F and the module's coefficients are read on every call.
    """
    chain, contents, den = _chain_kernel(params, small, big, order)
    n = len(contents)
    if F.n != n:
        raise ValueError("arity mismatch")
    val = F.num.eval(contents) / den
    for q in range(n, 0, -1):
        val = val * coeff_of(module.f_transitions(chain[q]), chain[q - 1])
    return val


def whittaker_sum(mlam, F, params, module):
    """Sum over all n-box extensions of the weight ratio times the chain
    matrix coefficient (the eigenvalue candidate at the given label), and
    the extensions whose two chain orders disagree (rank > 1)."""
    n = F.n
    r = len(mlam)
    total = Fraction(0)
    chain_dependent = []
    base_w = fixed_weight(mlam, params)
    for big in _extensions(mlam, n):
        if _two_in_a_row(mlam, big):
            # the pairwise-difference numerator kills these chains
            continue
        coeff = shuffle_matrix_coeff(F, big, mlam, module, params)
        if r > 1:
            alt = shuffle_matrix_coeff(F, big, mlam, module, params,
                                       order="reverse-component")
            if alt != coeff:
                chain_dependent.append(big)
        w = fixed_weight(big, params)
        total += (w / base_w) * coeff
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
    failures = []
    ref = None
    ref_label = None
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            val, chain_dependent = whittaker_sum(mlam, F, params, module)
            for big in chain_dependent:
                failures.append(("chain-dependence", mlam, big))
            if ref is None:
                ref, ref_label = val, mlam
            elif val != ref:
                failures.append(("label-dependence", ref_label, mlam))
    if want is not None and ref is not None and ref != want:
        failures.append(("closed-form", ref, want))
    return ref, failures


def bott_lefschetz_consistency(flavor, r, level_bound, params):
    """One-box duality: the weight ratio times the mode-zero lowering
    coefficient equals the transposed raising coefficient (mode -r with the
    K weights; mode 0 with the cohomological ones up to the rank sign).
    """
    module = _fixed_point_module(params, flavor, r)
    fails = []
    for level in range(level_bound + 1):
        for mlam in pt.enum_multipartitions(r, level):
            w_lo = fixed_weight(mlam, params)
            for (a, i, jrow) in pt.addable_boxes(mlam):
                big = pt.mp_add_box(mlam, a, jrow)
                w_hi = fixed_weight(big, params)
                f0 = coeff_of(module.f_transitions(big), mlam)
                if flavor == "K":
                    e_tr = [(t, c * p ** (-r)) for (t, c, p) in module.e_transitions(mlam)]
                else:
                    sign = (-1) ** (r - 1)
                    e_tr = [(t, c * sign) for (t, c, p) in module.e_transitions(mlam)]
                ecoeff = dict(e_tr)[big]
                if (w_hi / w_lo) * f0 != ecoeff:
                    fails.append((mlam, big))
    return fails

