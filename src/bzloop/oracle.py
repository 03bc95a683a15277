"""Independent dimension oracle for small nilpotent quotients.

The free Lie algebra on x, y embeds into the free associative algebra, so a
degree-n Lie element can be held as a bitmask over the 2^n words in x, y
(first letter in the most significant position).  The ideal generated by
homogeneous relators is spanned degree by degree via bracketing with the
two generators, and quotient dimensions follow from Witt's formula minus
the ideal's rank per degree.  None of this shares code with the quotient
engine beyond bit-vector echelonization.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2 import echelonize, iter_bits
from .words import X, Y, Z

ORACLE_MAX_CLASS = 14

# degree-1 monomial masks: x -> word 0, y -> word 1
_LETTER_MASK = {X: 0b01, Y: 0b10, Z: 0b11}


def _spread(mask: int) -> int:
    """Move bit p to bit 2p (monomial code doubling): the binary digits read in base 4."""
    return int(format(mask, "b"), 4)


def bracket_letter(P: int, degree: int, g: int) -> int:
    """[P, g] in the associative algebra: P*g + g*P, for g in {0: x, 1: y}."""
    append = _spread(P) << g
    prepend = P << (g << degree) if g else P
    return append ^ prepend


def assoc_bracket(P: int, deg_p: int, Q: int, deg_q: int) -> int:
    """[P, Q] = PQ + QP between arbitrary homogeneous polynomials."""
    out = 0
    for p in iter_bits(P):
        for q in iter_bits(Q):
            out ^= 1 << ((p << deg_q) | q)
            out ^= 1 << ((q << deg_p) | p)
    return out


def lie_word_to_assoc(letters) -> int:
    """Expand a left-normed letter sequence to its associative polynomial."""
    seq = tuple(letters)
    first = _LETTER_MASK[seq[0]]
    cur = first
    degree = 1
    for letter in seq[1:]:
        nxt = 0
        for g in iter_bits(_LETTER_MASK[letter]):
            nxt ^= bracket_letter(cur, degree, g)
        cur = nxt
        degree += 1
    return cur


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def witt_dimension(n: int) -> int:
    """Dimension of degree n of the free Lie algebra on x and y (Witt's formula)."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * 2 ** (n // d)
    return total // n


def free_nq_oracle(relators, class_bound: int) -> tuple[int, ...]:
    """Per-degree dimensions of the graded quotient, degree-indexed like dims.

    Each relator is a `CommutatorWord` of weight at least 2; one heavier
    than the class bound imposes nothing and is never expanded into
    letters.  Only intended for small classes; refuses class_bound >
    ORACLE_MAX_CLASS.
    """
    if not 1 <= class_bound <= ORACLE_MAX_CLASS:
        raise ValueError(f"class bound must be in 1..{ORACLE_MAX_CLASS}")
    by_weight: dict[int, list[tuple[str, ...]]] = {}
    for r in relators:
        weight = r.weight
        if weight < 2:
            raise ValueError("relators must have weight >= 2")
        if weight <= class_bound:
            by_weight.setdefault(weight, []).append(r.letters())

    dims = [0, 2]
    prev_rows: list[int] = []
    for w in range(2, class_bound + 1):
        vecs = []
        for row in prev_rows:
            for g in (0, 1):
                vecs.append(bracket_letter(row, w - 1, g))
        for letters in by_weight.get(w, ()):
            vecs.append(lie_word_to_assoc(letters))
        ideal = echelonize(vecs, 1 << w)
        dims.append(witt_dimension(w) - ideal.rank)
        prev_rows = list(ideal.row_bits())
    return tuple(dims)

