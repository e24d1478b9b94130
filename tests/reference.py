"""The Fraction schoolbook the relation engine is checked against.

Plain-dict vectors and one exact linear combination per letter: an e or f
letter reads `mode_row`, a diagonal letter its eigenvalue on each label
(`psi_coeff`, `psi_y_eigenvalue`, `t_eigenvalue`), and on the boson states,
which have no eigenvalue hooks, psi+- reads their own `apply_psi`.  Nothing
here reads the sweep's compiled rows, so the engine's integer path
(`repbase.apply_word`, `RelationSweep`) and this reference are two routes
to the same vectors.  `tests/test_reference_is_independent.py` keeps it so.
"""

from toryang.repbase import _suffix_images, vec, vsum


def lincomb(triples):
    """The vector {label: sum of a * b} over the (label, a, b) triples: `vsum`
    of the products, in its first-insertion order, with sums that are zero
    dropped once, at the end."""
    return vsum((k, a * b) for k, a, b in triples)


def apply_mode(rows, kind, mode, v):
    """Mode `mode` of the 'e' or 'f' current on the vector v, read from
    `rows.mode_row(kind, label, mode)`."""
    return lincomb((tgt, c, coeff) for label, c in v.items()
                   for tgt, coeff in rows.mode_row(kind, label, mode))


def apply_diagonal(v, eigenvalue):
    """The diagonal operator with eigenvalue(label) on each label, on v."""
    return lincomb((label, c, eigenvalue(label)) for label, c in v.items())


def apply_letter(module, letter, v):
    """One letter of a word on v."""
    gen, idx = letter
    if gen == "e" or gen == "f":
        return apply_mode(module, gen, idx, v)
    if gen == "psi+" or gen == "psi-":
        sign = +1 if gen == "psi+" else -1
        if not hasattr(module, "psi_coeff"):
            return module.apply_psi(sign, idx, v)
        return apply_diagonal(v, lambda label: module.psi_coeff(label, sign, idx))
    if gen == "psiy":
        return apply_diagonal(v, lambda label: module.psi_y_eigenvalue(label, idx))
    if gen == "t":
        return apply_diagonal(v, lambda label: module.t_eigenvalue(label, idx))
    raise ValueError(f"unknown generator {gen}")


def apply_word(module, word, v):
    """Apply a composition of mode operators, leftmost letter acting last."""
    for letter in reversed(word):
        v = apply_letter(module, letter, v)
        if not v:
            return v
    return v


def word_images(module):
    """image(label, word) = apply_word(module, word, vec(label)), word a
    tuple, with every suffix's image computed once and kept
    (`repbase._suffix_images`).  The memo belongs to one module; its keys
    start with the label, so a caller makes one per label."""
    return _suffix_images(vec, lambda letter, v: apply_letter(module, letter, v))
