"""Bi-Zassenhaus loop algebras: parameters, words, direct construction.

The algebra B(g, h) is graded of maximal class over GF(2), so from degree 2
on it is one-dimensional and fully described by its two-step centralizer
sequence: which degree-1 generator kills each component.  The sequence is
periodic after its first two constituents.  `bl_constituent_lengths` states
that pattern once; the centralizer sequence and `construct_bl` expand it.
All defined words (v_n, the theta and mu families) and the finite
presentation are built from the same parameters, and `_block` is the one
period block they repeat.  `_theta_parts` is the one place a theta kind
becomes letters, for the theta word and for its partner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GENERATORS, GradedAlgebra
from .gf2 import kernel
from .nq import Presentation
from .words import CommutatorWord, GenPower, GroupPower, X, Y, make_word

OTHER = "other"
_SWAP = {X: Y, Y: X}


@dataclass(frozen=True)
class BlParams:
    """Derived constants of B(g, h)."""

    g: int
    h: int
    q: int
    eta: int
    d: int
    m: int

    @property
    def default_bound(self) -> int:
        """The default class bound m + 2d: the defining quotient plus two full periods."""
        return self.m + 2 * self.d


def bl_params(g: int, h: int) -> BlParams:
    if g < 2:
        raise ValueError("need g >= 2")
    if h < 1:
        raise ValueError("need h >= 1")
    q = 2 ** h
    eta = 2 ** g - 1
    d = 2 ** (g + h + 1) - 2
    m = 2 * q * (eta + 2)
    return BlParams(g, h, q, eta, d, m)


# -- centralizer and constituent sequences -----------------------------------


def bl_constituent_lengths(g: int, h: int, count: int) -> tuple[int, ...]:
    """First `count` constituent lengths of B(g, h): 2q, 2q-1, then the cycle."""
    p = bl_params(g, h)
    twoq = 2 * p.q
    out = [twoq, twoq - 1]
    cycle = [twoq] * (p.eta - 1) + [twoq - 1] * 2
    while len(out) < count:
        out.extend(cycle)
    return tuple(out[:count])


def bl_centralizer_sequence(g: int, h: int, up_to: int) -> tuple[str, ...]:
    """Two-step centralizer sequence of B(g, h) for degrees 2..up_to.

    A constituent of length L is L - 1 entries y closed by one x, counted
    from the virtual degree-1 entry.
    """
    p = bl_params(g, h)
    if up_to < 2:
        raise ValueError("need up_to >= 2")
    entries: list[str] = []  # degree 1 onward; trimmed below
    for length in bl_constituent_lengths(g, h, up_to // (2 * p.q - 1) + 1):
        entries.extend([Y] * (length - 1))
        entries.append(X)
    return tuple(entries[1:up_to])


def centralizer_sequence(A: GradedAlgebra) -> tuple[str, ...]:
    """Two-step centralizer sequence of a maximal-class table, for degrees 2..class_bound-1.

    Entry j - 2 names the element of degree 1 that spans the centralizer of
    degree j inside degree 1: "x", "y" or "other" (x + y).  Every such
    centralizer must be one-dimensional, and degree 2 must be centralized
    by y; otherwise ValueError.
    """
    names = {0b01: X, 0b10: Y, 0b11: OTHER}
    entries = []
    for j in range(2, A.class_bound):
        n, width = A.dim(j), A.dim(j + 1)
        images = [sum(A.act_index(j, i, gi) << (i * width) for i in range(n)) for gi in (0, 1)]
        ker = kernel(images, n * width)
        if ker.rank != 1:
            raise ValueError(f"degree {j}: centralizer is not one-dimensional")
        entries.append(names[ker.row_bits()[0]])
    if entries and entries[0] != Y:
        raise ValueError("degree 2 must be centralized by y")
    return tuple(entries)


def constituent_lengths(entries) -> tuple[int, ...]:
    """Split centralizer entries for degrees 2 and up into complete constituents.

    A constituent is a run of y-entries closed off by its first non-y entry
    (counted inclusively); the count starts at the virtual degree-1 entry,
    a copy of degree 2.  A trailing run with no terminator is dropped as
    incomplete.
    """
    lengths = []
    run = 0
    for e in (*entries[:1], *entries):
        run += 1
        if e != Y:
            lengths.append(run)
            run = 0
    return tuple(lengths)


def check_CL(lengths, g: int, h: int) -> bool:
    """Whether every constituent length lies in {2q} | {2q - 2^s : 0 <= s <= h}."""
    twoq = 2 * bl_params(g, h).q
    allowed = {twoq} | {twoq - 2 ** s for s in range(h + 1)}
    return all(l in allowed for l in lengths)


# -- direct construction ------------------------------------------------------


def construct_bl(g: int, h: int, class_bound: int) -> GradedAlgebra:
    """B(g, h) truncated at class_bound, as explicit structure-constant tables."""
    bl_params(g, h)  # refuses a pair out of range at every bound
    if class_bound < 2:
        raise ValueError("need class_bound >= 2")
    # degree 2 is [y, x]; each degree above is [its one element, x or y]
    basis = [GENERATORS, [(1, 0)]]
    action: list[list[tuple[int, int]]] = [[(0, 1), (1, 0)]]
    entries = bl_centralizer_sequence(g, h, class_bound - 1) if class_bound >= 3 else ()
    for i in range(2, class_bound):
        gi = 0 if entries[i - 2] == Y else 1
        action.append([(1, 0) if gi == 0 else (0, 1)])
        basis.append([(0, gi)])
    action.append([(0, 0)])
    return GradedAlgebra(class_bound, basis, action)


# -- defined words -------------------------------------------------------------


def _block(p: BlParams, k: int) -> tuple:
    """The parts of y x^(2q-2) (y x^(2q-1))^k y x^(2q-2)."""
    return (
        Y,
        GenPower(X, 2 * p.q - 2),
        GroupPower((Y, GenPower(X, 2 * p.q - 1)), k),
        Y,
        GenPower(X, 2 * p.q - 2),
    )


def _v_parts(p: BlParams, n: int) -> tuple:
    if n < 0:
        raise ValueError("need n >= 0")
    head = (Y, GenPower(X, 2 * p.q - 1))
    if n == 0:
        return head
    return head + (GroupPower(_block(p, p.eta - 1), n),)


def v_word(g: int, h: int, n: int = 0) -> CommutatorWord:
    """v_n, of weight 2q + dn."""
    return make_word(*_v_parts(bl_params(g, h), n))


def _theta_parts(p: BlParams, kind) -> tuple[tuple, tuple]:
    """The parts after v_m of the theta word of `kind` and of its partner.

    The theta word of (kind, n) is v_m followed by these parts, m =
    `_theta_start(kind, n)`.  Its partner is the other word that spans its
    two-dimensional component: the same word with its last letter swapped
    x <-> y, or for omega its last two letters.
    """
    if kind == "omega":
        return (X, Y), (Y, X)
    t = int(kind)
    if t == 1:
        parts = (X,)
    elif 2 <= t <= p.h + 1:
        parts = (Y, GenPower(X, 2 * p.q - 2 ** (p.h + 2 - t) - 1), Y)
    elif p.h + 2 <= t <= p.g + p.h:
        parts = (*_block(p, p.eta - 2 ** (p.g + p.h + 1 - t)), Y)
    else:
        raise ValueError(f"no theta of kind {kind!r}")
    return parts, (*parts[:-1], _SWAP[parts[-1]])


def mu_word(g: int, h: int, n: int = 0, i: int = 1) -> CommutatorWord:
    """mu_{n,i}, of weight 4q - 2 + dn for i = 1 and 2qi + 2q - 2 + dn for i >= 2."""
    p = bl_params(g, h)
    if i < 1:
        raise ValueError("need i >= 1")
    if i == 1:
        return make_word(*_v_parts(p, n), Y, GenPower(X, 2 * p.q - 3))
    return make_word(*_v_parts(p, n), *_block(p, i - 2))


@dataclass(frozen=True)
class ThetaSpec:
    """One central element prediction: which theta word sits at which weight.

    The word is v_start followed by `suffix`; v_start followed by
    `partner` is the other word that spans its component.
    """

    kind: object
    n: int
    word: CommutatorWord
    weight: int
    start: int
    suffix: CommutatorWord
    partner: CommutatorWord


def _theta_start(kind, n: int) -> int:
    """The m of the v_m a theta word of (kind, n) starts with: n, or 2n + 1 for omega."""
    return 2 * n + 1 if kind == "omega" else n


def theta_word(g: int, h: int, kind=1, n: int = 0) -> CommutatorWord:
    """The theta word of the given kind: an int 1..g+h, or "omega"."""
    p = bl_params(g, h)
    return make_word(*_v_parts(p, _theta_start(kind, n)), *_theta_parts(p, kind)[0])


def theta_specs(g: int, h: int, max_weight: int) -> list[ThetaSpec]:
    """All theta words of weight <= max_weight, sorted by weight.

    Each kind's words are built for n = 0, 1, ... up to the first one past
    max_weight; its suffix and partner depend on the kind only, so each is
    built once and shared by the kind's specs.
    """
    p = bl_params(g, h)
    out = []
    for kind in (*range(1, g + h + 1), "omega"):
        suffix, partner = (make_word(*parts) for parts in _theta_parts(p, kind))
        n = 0
        while (word := theta_word(g, h, kind, n)).weight <= max_weight:
            out.append(ThetaSpec(kind, n, word, word.weight, _theta_start(kind, n), suffix, partner))
            n += 1
    out.sort(key=lambda s: s.weight)
    return out


# -- the finite presentation ---------------------------------------------------


def lambda_admissible(p: BlParams) -> list[int]:
    """Loop exponents 0 <= i < eta - 1 other than eta - 2^gamma, 1 <= gamma < g.

    These index the mu relators of R(g, h), the one-dimensional components
    at the k = 2q - 1 slot of each period, and the mu-shift parity claims.
    """
    excluded = {p.eta - 2 ** gamma for gamma in range(1, p.g)}
    return [i for i in range(p.eta - 1) if i not in excluded]


def presentation_R(g: int, h: int) -> Presentation:
    """The defining relators of B(g, h): exactly q + h + eta words."""
    p = bl_params(g, h)
    rels: list[CommutatorWord] = []
    for j in range(p.q - 1):
        rels.append(make_word(Y, GenPower(X, 2 * j + 1), Y))
    for t in range(1, g + h + 1):
        rels.append(make_word(*theta_word(g, h, t).letters(), X))
    rels.append(make_word(*_v_parts(p, 1), X, Y, X))
    for i in lambda_admissible(p):
        rels.append(make_word(*mu_word(g, h, 0, i + 2).letters(), Y))
    assert len(rels) == p.q + p.h + p.eta
    return Presentation(tuple(rels))
