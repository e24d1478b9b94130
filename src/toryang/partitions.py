"""Young diagrams, r-tuples of diagrams, box bookkeeping, and torus characters.

Conventions
-----------
A partition is a plain tuple of weakly decreasing positive ints; the empty
partition is ().  An r-partition is a tuple of r partitions.  A box is a
pair (i, j) with i = column, j = row, both starting at 1; the box (i, j)
belongs to lam iff i <= lam[j-1].  All formulas in the package are written
in this column/row order, and this module is the single conversion point.

Characters are stored symbolically as lists of weights
(sign, e1, e2, b, a): the weight  t1^e1 * t2^e2 * chi_b / chi_a  with a
sign, for component indices 1 <= a, b <= r.  They evaluate either
multiplicatively or additively.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "enum_partitions",
    "enum_multipartitions",
    "conjugate",
    "size",
    "boxes",
    "arm",
    "leg",
    "addable_rows",
    "removable_rows",
    "addable_boxes",
    "removable_boxes",
    "add_box",
    "remove_box",
    "content_add",
    "content_mult",
    "tangent_character",
    "normal_character",
    "eval_mult",
    "eval_add",
]


@lru_cache(maxsize=None)
def enum_partitions(n):
    """All partitions of n, ordered lexicographically on the part tuples."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return sorted(out)


@lru_cache(maxsize=None)
def enum_multipartitions(r, n):
    """All r-tuples of partitions with total size n."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return [(lam,) for lam in enum_partitions(n)]
    out = []
    for k in range(n + 1):
        for lam in enum_partitions(k):
            for rest in enum_multipartitions(r - 1, n - k):
                out.append((lam,) + rest)
    return sorted(out)


def size(lam):
    return sum(lam)


def mp_size(mlam):
    return sum(sum(lam) for lam in mlam)


def conjugate(lam):
    if not lam:
        return ()
    out = []
    for i in range(1, lam[0] + 1):
        out.append(sum(1 for p in lam if p >= i))
    return tuple(out)


def part(lam, j):
    """lam_j with zero padding for rows beyond the length."""
    return lam[j - 1] if 1 <= j <= len(lam) else 0


def boxes(lam):
    """All boxes (col, row) of the diagram."""
    for j, p in enumerate(lam, start=1):
        for i in range(1, p + 1):
            yield (i, j)


def arm(lam, box):
    """lam_j - i: may be negative when the box sits outside lam."""
    i, j = box
    return part(lam, j) - i


def leg(lam, box):
    i, j = box
    return part(conjugate(lam), i) - j


def addable_rows(lam):
    """Rows j where a box may be appended (row 1, plus j with lam_{j-1} > lam_j)."""
    rows = [1]
    for j in range(2, len(lam) + 2):
        if part(lam, j - 1) > part(lam, j):
            rows.append(j)
    return rows


def removable_rows(lam):
    return [j for j in range(1, len(lam) + 1) if part(lam, j) > part(lam, j + 1)]


def add_box(lam, j):
    new = list(lam) + [0] * max(0, j - len(lam))
    new[j - 1] += 1
    if j > 1 and new[j - 1] > new[j - 2]:
        raise ValueError(f"row {j} not addable in {lam}")
    while new and new[-1] == 0:
        new.pop()
    return tuple(new)


def remove_box(lam, j):
    if not (1 <= j <= len(lam)):
        raise ValueError(f"row {j} not removable in {lam}")
    new = list(lam)
    new[j - 1] -= 1
    if j < len(new) and new[j - 1] < new[j]:
        raise ValueError(f"row {j} not removable in {lam}")
    while new and new[-1] == 0:
        new.pop()
    return tuple(new)


def addable_boxes(mlam):
    """[(component a, col, row)] over all components (1-based a)."""
    out = []
    for a, lam in enumerate(mlam, start=1):
        for j in addable_rows(lam):
            out.append((a, part(lam, j) + 1, j))
    return out


def removable_boxes(mlam):
    out = []
    for a, lam in enumerate(mlam, start=1):
        for j in removable_rows(lam):
            out.append((a, part(lam, j), j))
    return out


def mp_add_box(mlam, a, j):
    return mlam[: a - 1] + (add_box(mlam[a - 1], j),) + mlam[a:]


def mp_remove_box(mlam, a, j):
    return mlam[: a - 1] + (remove_box(mlam[a - 1], j),) + mlam[a:]


def content_add(box, s1, s2, x=0):
    """(i-1)*s1 + (j-1)*s2 - x_a for a box in component a."""
    i, j = box
    return (i - 1) * s1 + (j - 1) * s2 - x


def content_mult(box, t1, t2, chi=1):
    """t1^(i-1) * t2^(j-1) / chi_a."""
    i, j = box
    return t1 ** (i - 1) * t2 ** (j - 1) / chi


# -- torus characters ------------------------------------------------------

def tangent_character(mlam):
    """Weights of the tangent space at the fixed point labelled by mlam.

    Returns a list of (sign, e1, e2, b, a) with sign always +1; the list has
    exactly 2 * r * |mlam| entries.
    """
    r = len(mlam)
    out = []
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            la, lb = mlam[a - 1], mlam[b - 1]
            for box in boxes(la):
                out.append((1, -arm(lb, box), leg(la, box) + 1, b, a))
            for box in boxes(lb):
                out.append((1, arm(la, box) + 1, -leg(lb, box), b, a))
    return out


def normal_character(mlam, mmu):
    """Signed weights of the normal fiber for a one-box extension mlam < mmu."""
    r = len(mlam)
    diff = [
        (a, i, j)
        for a in range(1, r + 1)
        for (i, j) in boxes(mmu[a - 1])
        if i > part(mlam[a - 1], j)
    ]
    if mp_size(mmu) != mp_size(mlam) + 1 or len(diff) != 1:
        raise ValueError("second label must extend the first by exactly one box")
    out = [(-1, 1, 1, 1, 1)]  # the -t1*t2 term (chi_1/chi_1 = 1)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            la, mb = mlam[a - 1], mmu[b - 1]
            mua = mmu[a - 1]
            for box in boxes(la):
                out.append((1, -arm(mlam[b - 1], box), leg(mua, box) + 1, b, a))
            for box in boxes(mb):
                out.append((1, arm(mua, box) + 1, -leg(mlam[b - 1], box), b, a))
    return out


def eval_mult(weights, t1, t2, chis=None):
    """Evaluate weights multiplicatively; returns a list of (sign, value)."""
    out = []
    for sign, e1, e2, b, a in weights:
        v = t1 ** e1 * t2 ** e2
        if chis is not None:
            v = v * chis[b - 1] / chis[a - 1]
        out.append((sign, v))
    return out


def eval_add(weights, s1, s2, xs=None):
    """Evaluate weights additively; returns a list of (sign, value)."""
    out = []
    for sign, e1, e2, b, a in weights:
        v = e1 * s1 + e2 * s2
        if xs is not None:
            v = v + xs[b - 1] - xs[a - 1]
        out.append((sign, v))
    return out
