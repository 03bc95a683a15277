"""Graded Lie algebras over GF(2), generated in degree 1 by x and y.

An algebra is stored as structure-constant tables: for every basis element
b of degree d < class_bound, the masks of [b,x] and [b,y] in degree d+1.
Every basis element of degree >= 2 is defined as [p, g] by the index of its
parent p in the degree below and a generator g, so the basis is flat: each
element is the pair (parent index, generator index), and `GENERATORS`, the
pairs (None, 0) and (None, 1), is degree 1.  Labels are derived from these
pairs in one place, `GradedAlgebra.labels`.  Arbitrary brackets are recovered
from the action tables alone by a `BracketTable`, which fills them
bottom-up one anti-diagonal slice at a time: `fill(s)` computes every
bracket of total degree s from the slice below.  Brackets whose degree sum
exceeds class_bound are truncated to zero.

`jacobi_sum` is the one Jacobi expansion over a `BracketTable`: the
`full_jacobi` mode of `nq_compute` sums every triple row with it (the
default mode builds each row J(u, v, g) in place as the fill's rule
applied to the symbol [v, g], plus [[v, g], u]; a surviving symbol w
gives [u, w] + [w, u], two entries of the frontier slice), and
`jacobi_check` reads every square, every antisymmetry pair and the
Jacobi sums straight from the algebra's filled table, building an `Element`
only for a failure: the squares and pairs in one list comparison per row,
the triples in one walk over a degree-ordered list of elements.  An
algebra at most 2 wide with no table built yet is checked first without
one, its columns as bit planes (`_packed_jacobi`); only a failure there
builds the table.  That path checks the generator pairs [g, v] = [v, g]
and each symbol (w, g) against its action row, and the two give every
pair by induction on the degree.  While
every square and pair passes, only the Jacobi triples J(g, v, w) that
hold a generator g, and go through no defining pair, are summed.  When
(v, g) defines w' = [v, g], whatever its action row w' + delta holds, the
fill rule and two pairs give J(u, v, g) = [delta, u], and the squares and
pairs make delta central.
The generator triples certify the rest, because the fill rule makes each
[., w'] a commutator of derivations.  Three more rules live here
once each: `eval_runs` evaluates a left-normed word over action rows, from
scratch or continuing an evaluated prefix (for `eval_word`, `act_mask`,
`generator`, the relator rows of `nq_compute` and the v_n walk of
`analyze`); `define_layer` cuts a degree: given an echelon basis of the
relations among the symbols 2 * parent + generator, it returns the
survivors' pairs and the parents' action rows, every symbol's image over
them (`nq_compute` cuts by its relation rows, `quotient` by the kernel of
its candidate vectors); and `_annihilator` takes the kernel of
v -> ([v,x], [v,y]), for the center and, modulo the center, for the second
center.  `str(Element)` is the one text form of an element.

`_annihilator` and `quotient` keep, for one call only, a dict from the exact
inputs of one degree's step to its result, as `bl.centralizer_sequence`
does.  The key of `_annihilator` is the action rows, reduced modulo the
center for the second center; the key of `quotient` is the
representatives, the action rows below, the ideal's rows and the degree's
dimension.  The graded quotient of R(g, h) repeats with period
d = 2^(g+h+1) - 2, so in about 97 % of the degrees of an `analyze` run on
the ladder rungs a step meets inputs that an earlier degree of the same
call had, and reuses its result.  A repeated center degree gets a copy of
the stored basis, so no two degrees share an `EchelonBasis`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import xor
from typing import Iterable, Sequence

from .gf2 import EchelonBasis, iter_bits, kernel
from .words import LETTERS, CommutatorWord, X, Y, extend_label

GEN_ORDER = (X, Y)


def _letter(g) -> tuple:
    """The runs of the one-letter word g, one of "x", "y", "z"."""
    if g in LETTERS:
        return ((g, 1),)
    raise ValueError(f"not a generator: {g!r}")


# degree 1: x and y, the only elements with no parent
GENERATORS = ((None, 0), (None, 1))


class BracketTable:
    """Brackets of basis elements, filled bottom-up one anti-diagonal slice at a time.

    ``rows[i][a][offset[j] + b]`` is the mask of [e(i,a), e(j,b)] in degree
    i + j, where e(d,k) is basis element k of degree d.  Slice s is every
    block (i, j) with i + j = s.  Block (i, 1) is the action row
    ([e,x], [e,y]) of degree i, set by `set_action`; `fill(s)` computes the
    blocks j >= 2 of slice s from the definition e(j,b) = [e(j-1,p), g] by

        [u, [p, g]] = [[u, p], g] + [[u, g], p],

    which reads block (i, j-1) and the action of degree s - 1 from slice
    s - 1, and block (i+1, j-1) from slice s itself.  So `fill` runs over
    the rows i = s-2 down to 1, slices are filled in increasing s, and no
    recursion is needed.  `fill(s, lowest)` stops at row `lowest`, and
    `mirror(s)` sets every block (i, j) of slice s with 2 <= i < j to the
    transpose of block (j, i), which is the block itself when the slice is
    antisymmetric.  A table filled by `fill(s)` alone, as
    `GradedAlgebra.bracket_table` fills it, holds every block of every
    slice as a true bracket.
    """

    __slots__ = ("rows", "defs", "offset")

    def __init__(self):
        self.rows: list[list[list[int]]] = [[], [[], []]]
        # (parent index, generator index) per element; degree 1 is the generators
        self.defs: list[Sequence[tuple[int | None, int]]] = [[], GENERATORS]
        self.offset: list[int] = [0, 0]

    def add_degree(self, defs: Iterable[tuple[int, int]]) -> None:
        """Append the next degree, given its elements' (parent index, generator index)."""
        self.defs.append(list(defs))
        self.offset.append(self.offset[-1] + len(self.rows[-1]))
        self.rows.append([[] for _ in self.defs[-1]])

    def set_action(self, degree: int, action: Iterable[tuple[int, int]]) -> None:
        """Set the action rows of a degree that holds no block of a higher slice."""
        for row, (mx, my) in zip(self.rows[degree], action):
            row[:] = (mx, my)

    def fill(self, s: int, lowest: int = 1, split: int = 0) -> None:
        """Fill the rows i = s - 2 down to `lowest` of slice s.

        Each block reads the slices below it, the action of degree s - 1
        and the block one row up in slice s, so any run of rows ending at
        row s - 2 is self-contained.  A slice that was filled before is
        replaced, so the cut slice can be refilled once the action of
        degree s - 1 changes basis.  A nonzero `split` says that action is
        the split one, [e(s-1,t), g] = bit t + g * split.
        """
        rows, offset = self.rows, self.offset
        act = rows[s - 1]
        for i in range(s - 2, lowest - 1, -1):
            j = s - i
            below = rows[i + 1]
            start, end = offset[j - 1], offset[j]
            defs = self.defs[j]
            for row in rows[i]:
                del row[end:]
                for p, g in defs:
                    m = row[start + p]  # [u, p]
                    if split:
                        out = m << g * split
                    else:
                        out = 0
                        while m:
                            low = m & -m
                            out ^= act[low.bit_length() - 1][g]
                            m ^= low
                    m = row[g]  # [u, g]
                    while m:
                        low = m & -m
                        out ^= below[low.bit_length() - 1][start + p]
                        m ^= low
                    row.append(out)

    def mirror(self, s: int) -> None:
        """Set each block (i, j) of slice s with 2 <= i < j to the transpose of block (j, i)."""
        rows, offset = self.rows, self.offset
        for i in range(2, (s + 1) // 2):
            j = s - i
            end, col, rows_j = offset[j], offset[i], rows[j]
            for row in rows[i]:
                del row[end:]
                for r in rows_j:
                    row.append(r[col])
                col += 1


def jacobi_sum(rows, offset, d1: int, a: int, d2: int, b: int, d3: int, c: int) -> int:
    """Mask of [[u,v],w] + [[v,w],u] + [[w,u],v] for u = e(d1,a), v = e(d2,b), w = e(d3,c).

    `rows` and `offset` are those of a `BracketTable` filled up to total
    degree d1 + d2 + d3.  Each term reads one inner bracket and then one
    column of the rows of its degree.
    """
    out = 0
    m = rows[d1][a][offset[d2] + b]  # [u, v]
    if m:
        top, col = rows[d1 + d2], offset[d3] + c
        while m:
            low = m & -m
            out ^= top[low.bit_length() - 1][col]
            m ^= low
    m = rows[d2][b][offset[d3] + c]  # [v, w]
    if m:
        top, col = rows[d2 + d3], offset[d1] + a
        while m:
            low = m & -m
            out ^= top[low.bit_length() - 1][col]
            m ^= low
    m = rows[d3][c][offset[d1] + a]  # [w, u]
    if m:
        top, col = rows[d3 + d1], offset[d2] + b
        while m:
            low = m & -m
            out ^= top[low.bit_length() - 1][col]
            m ^= low
    return out


def eval_runs(rows, runs, top: int, mask: int = 0, degree: int = 0) -> int:
    """Mask of the left-normed word with the given (letter, count) runs.

    ``rows[d][i][0]`` and ``rows[d][i][1]`` are the masks of [e(d,i), x]
    and [e(d,i), y], so both `GradedAlgebra` action rows and `BracketTable`
    rows fit; z acts as x + y.  A word that would pass degree `top` is zero.
    The walk starts from the element `mask` of degree `degree`, so a word
    continues an evaluated prefix; the default, degree 0, is the empty
    prefix, and the first letter starts the word.
    """
    for letter, count in runs:
        gi = 0 if letter == X else 1 if letter == Y else 2
        if not degree:
            mask = gi + 1  # x, y, z = 0b01, 0b10, 0b11
            degree = 1
            count -= 1
        for _ in range(count):
            if degree >= top or mask == 0:
                return 0
            layer = rows[degree]
            out = 0
            while mask:
                low = mask & -mask
                row = layer[low.bit_length() - 1]
                out ^= row[0] ^ row[1] if gi == 2 else row[gi]
                mask ^= low
            mask = out
            degree += 1
    return mask


def define_layer(nsym: int, relations: EchelonBasis) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cut a degree out of its `nsym` symbols s = 2 * parent index + generator index.

    `relations` is a reduced echelon basis of the relations among the
    symbols.  Each relation kills its pivot, its lowest symbol; the other
    symbols survive, and element k of the new degree is [e(parent), x or y]
    for the k-th survivor s, the pair (s >> 1, s & 1).  Returns those pairs
    and the action rows of the parents' degree: row p holds the images of
    the symbols 2p and 2p + 1, [e(p), x] and [e(p), y], over the survivors.
    A survivor's image is one bit, a pivot's the survivors its relation
    holds (the rows are fully reduced, so those are survivors only).
    """
    pivots = relations.pivots
    defs = []
    img = [0] * nsym
    start = 0
    for stop in (*pivots, nsym):  # the survivors lie between the sorted pivots
        for s in range(start, stop):
            img[s] = 1 << len(defs)
            defs.append((s >> 1, s & 1))
        start = stop + 1
    for pivot, row in zip(pivots, relations):
        m = row ^ (1 << pivot)
        out = 0
        while m:
            low = m & -m
            out |= img[low.bit_length() - 1]
            m ^= low
        img[pivot] = out
    return defs, list(zip(img[0::2], img[1::2]))


class Element:
    """A homogeneous element: a degree plus a coefficient mask."""

    __slots__ = ("algebra", "degree", "bits")

    def __init__(self, algebra: "GradedAlgebra", degree: int, bits: int):
        self.algebra = algebra
        self.degree = degree
        self.bits = bits

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.bits == 0 and other.bits == 0:
            return True
        return (
            self.algebra is other.algebra
            and self.degree == other.degree
            and self.bits == other.bits
        )

    def __hash__(self):
        # every zero element is equal to every other, so they share one hash
        return hash((id(self.algebra), self.degree, self.bits) if self.bits else 0)

    def __add__(self, other: "Element") -> "Element":
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        if self.bits == 0:
            return other
        if other.bits == 0:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return self.algebra.element(self.degree, self.bits ^ other.bits)

    def labels(self) -> list[str]:
        if not self.bits:
            return []
        layer = self.algebra.labels[self.degree]
        return [layer[i] for i in iter_bits(self.bits)]

    def __str__(self) -> str:
        """The labels of the element's terms joined by `` + ``, or ``0``."""
        return " + ".join(self.labels()) or "0"

    def __repr__(self) -> str:
        return f"<{self} (degree {self.degree})>"


class GradedAlgebra:
    """Structure-constant table of a class-bounded graded Lie algebra.

    `basis` and `action` are sequences over degrees 1..class_bound.  A
    basis element is the pair (parent index, generator index) that defines
    it as [e(d-1, parent), x or y]; degree 1 is `GENERATORS`.  Action rows
    are (mask of [b,x], mask of [b,y]) over the next degree's basis, with
    all-zero rows at the top degree.
    """

    def __init__(
        self,
        class_bound: int,
        basis: Sequence[Sequence[tuple[int | None, int]]],
        action: Sequence[Sequence[tuple[int, int]]],
    ):
        if class_bound < 1:
            raise ValueError("class bound must be at least 1")
        if len(basis) != class_bound or len(action) != class_bound:
            raise ValueError("need exactly one basis/action layer per degree")
        self.class_bound = class_bound
        layers: list[tuple[tuple[int | None, int], ...]] = [()]
        actions: list[tuple[tuple[int, int], ...]] = [()]
        for d in range(1, class_bound + 1):
            layer = tuple(map(tuple, basis[d - 1]))
            rows = tuple((int(mx), int(my)) for mx, my in action[d - 1])
            if len(rows) != len(layer):
                raise ValueError(f"degree {d}: action rows do not match basis size")
            nxt = len(basis[d]) if d < class_bound else 0
            if d == 1:
                if layer != GENERATORS:
                    raise ValueError("degree 1 must hold the generators x, y")
            else:
                below = len(layers[d - 1])
                for p, g in layer:
                    if g not in (0, 1):
                        raise ValueError(f"degree {d}: definition generator must be x or y")
                    if not (isinstance(p, int) and 0 <= p < below):
                        raise ValueError(f"degree {d}: definition parent not in previous layer")
            for mx, my in rows:
                if mx >> nxt or my >> nxt:
                    raise ValueError(f"degree {d}: action mask outside next degree")
            layers.append(layer)
            actions.append(rows)
        # stored as tuples, so `basis[d]` and `action[d]` read one layer without a copy
        self._basis = tuple(layers)
        self._action = tuple(actions)
        self._table: BracketTable | None = None
        self._labels: tuple[tuple[str, ...], ...] | None = None

    # -- structure access ------------------------------------------------

    def dim(self, degree: int) -> int:
        if 1 <= degree <= self.class_bound:
            return len(self._basis[degree])
        return 0

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-degree dimensions, indexed by degree (entry 0 is a sentinel)."""
        return tuple(len(layer) for layer in self._basis)

    @property
    def basis(self) -> tuple[tuple[tuple[int | None, int], ...], ...]:
        return self._basis

    @property
    def action(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._action

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        """Per degree, each element's left-normed word in run-length form, e.g. ``y x^2 y``.

        The one place labels are made: built from the (parent, generator)
        pairs on first read, then cached.  Entry 0 is a sentinel.
        """
        if self._labels is None:
            labels = [(), ("x", "y")]
            for layer in self._basis[2:]:
                below = labels[-1]
                labels.append(tuple(extend_label(below[p], GEN_ORDER[g]) for p, g in layer))
            self._labels = tuple(labels)
        return self._labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (
            self.class_bound == other.class_bound
            and self._action == other._action
            and self._basis == other._basis
        )

    __hash__ = None

    # -- elements ----------------------------------------------------------

    def element(self, degree: int, bits: int) -> Element:
        if degree < 1:
            raise ValueError("degree must be positive")
        if degree > self.class_bound:
            if bits:
                raise ValueError("nonzero element beyond the class bound")
        elif bits >> self.dim(degree):
            raise ValueError("mask outside the degree's basis")
        return Element(self, degree, bits)

    def zero(self, degree: int = 1) -> Element:
        return Element(self, degree, 0)

    def generator(self, g) -> Element:
        return Element(self, 1, eval_runs(self._action, _letter(g), self.class_bound))

    # -- bracket machinery ---------------------------------------------------

    def act_index(self, degree: int, index: int, gen_index: int) -> int:
        return self._action[degree][index][gen_index]

    def act_mask(self, degree: int, mask: int, g) -> int:
        """Mask of [v, g] in degree+1 for v given by mask in `degree`."""
        return eval_runs(self._action, _letter(g), self.class_bound, mask, degree)

    def bracket_table(self) -> BracketTable:
        """The algebra's `BracketTable`, built and filled through the class bound on first use."""
        if self._table is None:
            table = self._table = BracketTable()
            for d in range(2, self.class_bound + 1):
                table.add_degree(self._basis[d])
            for d in range(1, self.class_bound):
                table.set_action(d, self._action[d])
            for s in range(3, self.class_bound + 1):
                table.fill(s)
        return self._table

    def bracket(self, u: Element, v: Element) -> Element:
        if u.algebra is not self or v.algebra is not self:
            raise ValueError("elements of a different algebra")
        degree = u.degree + v.degree
        if degree > self.class_bound:
            return Element(self, degree, 0)
        table = self.bracket_table()
        rows, col = table.rows[u.degree], table.offset[v.degree]
        bits = 0
        for a in iter_bits(u.bits):
            for b in iter_bits(v.bits):
                bits ^= rows[a][col + b]
        return Element(self, degree, bits)

    def eval_word(self, w: CommutatorWord) -> Element:
        """Evaluate a left-normed word; z letters evaluate as x+y."""
        return Element(self, w.weight, eval_runs(self._action, w.runs(), self.class_bound))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        labels = self.labels
        basis_rows = []
        for d in range(1, self.class_bound + 1):
            for k, (p, g) in enumerate(self._basis[d]):
                basis_rows.append(
                    {
                        "degree": d,
                        "index": k,
                        "label": labels[d][k],
                        "parent": p,
                        "generator": GEN_ORDER[g],
                    }
                )
        action = {
            str(d): [[format(mx, "x"), format(my, "x")] for mx, my in self._action[d]]
            for d in range(1, self.class_bound + 1)
        }
        return {
            "format": "graded-algebra/1",
            "class_bound": self.class_bound,
            "dims": list(self.dims[1:]),
            "basis": basis_rows,
            "action": action,
        }


# -- well-definedness ------------------------------------------------------


@dataclass
class JacobiReport:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} failures)"
        return f"jacobi check: {status}, {self.checked} instances"


def _open_rows(A: GradedAlgebra) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Per generator index g, the (d, b) of degree d <= class_bound - 2 whose pair (b, g) defines nothing.

    A pair (b, g) of degree d is a defining pair when it defines an element
    of degree d + 1, that is, when it is in ``A.basis[d + 1]``; its action
    row is not read.  Each list is in degree order.
    """
    out = [], []
    for d in range(1, A.class_bound - 1):
        defining = set(A.basis[d + 1])
        for g, elems in enumerate(out):
            elems.extend((d, b) for b in range(A.dim(d)) if (b, g) not in defining)
    return out


def _instances(dims: Sequence[int], bound: int) -> int:
    """The squares, pairs and triples `jacobi_check` covers, by generating functions.

    With S(t) = sum of dims[d] t^d, the elements u with 2 deg u = e are
    counted by S(t^2), the pairs of distinct elements by
    (S(t)^2 - S(t^2)) / 2 and the 3-multisets of elements by
    (S(t)^3 + 3 S(t) S(t^2) + 2 S(t^3)) / 6, each at t^e for degree sum e.
    Six times their sum is 3 S(t^2) + 3 S^2 + S^3 + 3 S S(t^2) + 2 S(t^3);
    its coefficients up to t^bound add up to the coefficient of t^bound in
    its product with 1 + t + ... + t^bound.  Each polynomial is one int,
    coefficient e in `size` bytes at byte e * size: no coefficient or sum
    here reaches 6 (N + 1)^3 for N elements, so none carries into the next.
    """
    top = dims[: bound + 1]
    size = (6 * (sum(top) + 1) ** 3).bit_length() // 8 + 1
    keep = (1 << 8 * size * (bound + 1)) - 1  # the coefficients of t^0 .. t^bound

    def poly(k: int) -> int:  # S(t^k)
        return int.from_bytes(b"".join(n.to_bytes(k * size, "little") for n in top[: bound // k + 1]), "little")

    s1, s2, s3 = poly(1), poly(2), poly(3)
    square = s1 * s1 & keep
    six = 3 * s2 + 3 * square + (square * s1 & keep) + 3 * (s1 * s2 & keep) + 2 * s3
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * (bound + 1), "little")
    return (six * ones >> 8 * size * bound & (1 << 8 * size) - 1) // 6


def _packed_jacobi(A: GradedAlgebra) -> bool:
    """Whether every square, pair and generator triple of A is zero; A is at most 2 wide.

    The bracket table is kept by columns, as bit planes.  The column of
    w = e(j, b) is a 2 x 2 matrix Q of ints: Q[a][l] holds bit l of
    [e(i, a), w] at bit i, for every row degree i.  C_g[a][t] holds bit t
    of [e(i, a), g] at bit i, so C_g is the column of the generator g, and
    H_g[t][l], row j of the Hankel matrix of the action, holds bit l of
    [e(i + j, t), g] at bit i.  With AND as product and XOR as sum,
    `BracketTable.fill`'s rule [u, [w, g]] = [[u, w], g] + [[u, g], w] is
    the column F(w, g) = Q H_g + C_g (Q >> 1), where the shift by one
    reads [e(i + 1, t), w] at bit i.  So column j + 1 reads only column j
    and the action, the planes hold, bit for bit, the entries that
    `bracket_table()` fills, and only the columns of one degree are live.
    Three checks are made, with A(w, g) the action row [w, g]:

    - (S) the squares: the bits (b, b) of each column at its own degree;
    - (G) the generator pairs [e(1, a), v] = [v, e(1, a)]: row 1 of the
      column of v is v's action row;
    - (C) each symbol (w, g) with w of degree j <= bound - 2: F(w, g) is
      [., A(w, g)], the columns of degree j + 1 summed over the bits of
      A(w, g), read one row on.

    (C) and (G) give every pair (P), [v, u] = [u, v]; induct on deg u, and
    degree 1 is (G).  Let u be defined as (p, g), so its column is
    F(p, g), and let delta = A(p, g) + u.  By the fill rule, the
    hypothesis twice and (C) at (v, g), whose degree is at most
    bound - 2 because deg u >= 2,

        [v, u] = [[v, p], g] + [[v, g], p] = [[p, v], g] + [p, [v, g]]
               = [[p, v], g] + [[p, v], g] + [[p, g], v] = [u, v] + [delta, v].

    (C) at (p, g) gives [., delta] = 0, and (G) summed over delta gives
    [delta, g'] = [g', delta] = 0 for each generator g', so delta acts as
    zero, and the fill rule makes [delta, v] = 0 by induction on deg v.
    (G) is part of (P), so the answer is True exactly when every square,
    pair and (C) holds.  With squares and pairs, J(g, v, w) = [[v, g], w]
    + [[v, w], g] + [v, [w, g]], so the difference (C) finds at row v is
    J(g, v, w), and every generator triple is checked.  Where (w, g)
    defines e(j + 1, k), (C) says [v, delta] = 0 for every v, with delta
    the action row [w, g] + e(j + 1, k).
    """
    bound, basis, action = A.class_bound, A.basis, A.action
    acts = [0] * 8  # acts[4a + 2g + t] is C_g[a][t], and hank[4t + 2g + l] below is H_g[t][l]
    for d in range(1, bound):
        for a, row in enumerate(action[d]):
            for g, m in enumerate(row):
                for t in range(m.bit_length()):
                    if m >> t & 1:
                        acts[4 * a + 2 * g + t] |= 1 << d
    gens = [(acts[2 * g], acts[2 * g + 1], acts[2 * g + 4], acts[2 * g + 5]) for g in (0, 1)]
    col, hank = gens, acts  # col: the columns of degree j, each Q as (Q00, Q01, Q10, Q11)
    for j in range(1, bound):
        for b, (q0, q1, q2, q3) in enumerate(col):
            if (q0 | q1, q2 | q3)[b] >> j & 1:  # (S): [e(j, b), e(j, b)]
                return False
            if (q0 >> 1 & 1 | q1 & 2, q2 >> 1 & 1 | q3 & 2) != action[j][b]:  # (G): ([x, v], [y, v])
                return False
        if j == bound - 1:
            break
        hank = [m >> 1 for m in hank]
        syms = []
        for q0, q1, q2, q3 in col:
            u0, u1, u2, u3 = q0 >> 1, q1 >> 1, q2 >> 1, q3 >> 1
            for g in (0, 1):
                c0, c1, c2, c3 = gens[g]
                h0, h1, h2, h3 = hank[2 * g], hank[2 * g + 1], hank[2 * g + 4], hank[2 * g + 5]
                syms.append((
                    q0 & h0 ^ q1 & h2 ^ c0 & u0 ^ c1 & u2,
                    q0 & h1 ^ q1 & h3 ^ c0 & u1 ^ c1 & u3,
                    q2 & h0 ^ q3 & h2 ^ c2 & u0 ^ c3 & u2,
                    q2 & h1 ^ q3 & h3 ^ c2 & u1 ^ c3 & u3,
                ))
        nxt = [syms[2 * p + g] for p, g in basis[j + 1]]
        images = [(0, 0, 0, 0), *nxt]  # [., [w, g]] by the action row [w, g]: 0, 1, 2 and 3 below
        if len(nxt) == 2:
            images.append(tuple(map(xor, *nxt)))
        if syms != [images[m] for row in action[j] for m in row]:  # (C)
            return False
        col = nxt
    return True


def jacobi_check(A: GradedAlgebra) -> JacobiReport:
    """Check [u,u]=0, [u,v]=[v,u] and the Jacobi identity on in-range basis elements.

    Over GF(2) a bracket alternates on all elements exactly when it does on
    the basis and is antisymmetric on basis pairs, so both are checked.
    Pairs (u, v) and triples (u, v, w) run over degrees d1 <= d2 <= d3 and,
    within equal degrees, indices in order; a pair's two elements differ.
    `checked` counts every square, pair and triple by the closed forms of
    `_instances`; only the triples that may fail are summed.

    The packed path comes first.  An algebra at most 2 wide whose bracket
    table is not built yet, as every M, Q and B of R(g, h) is, goes to
    `_packed_jacobi`, which builds no table.  It fills the table's columns
    as bit planes: column j reads only column j - 1 and the action, by the
    rule `BracketTable.fill` applies, so the planes equal the entries of
    `bracket_table()` bit for bit, and no scan is needed.  It keeps only
    the columns of one degree, and checks every square, the generator
    pairs [g, v] = [v, g] and every symbol (w, g) against its action row,
    in whole-int operations.  The symbol checks and the generator pairs
    give every pair: for u defined as (p, g) with delta = [p, g] + u, the
    fill rule gives [v, u] = [u, v] + [delta, v] by induction on deg u,
    and delta acts as zero (`_packed_jacobi` has the steps).  So it checks every
    square, every pair and every generator triple J(g, v, w).  Those sums
    include every one the row path below makes;
    on a table whose squares and pairs pass, the generator triples the row
    path skips are zero by the argument below, so either path finds every
    sum zero or neither does.  When every sum is zero the report is the
    pass the row path gives.  A nonzero sum, a wider algebra or a built
    table takes the row path, unchanged: it alone lists the failures, and
    it reads a built table as it stands.

    On the row path every square, pair and Jacobi sum is read from the
    algebra's `BracketTable`, filled once through the class bound.

    The elements are laid end to end in one degree-ordered list, so that
    flat index ``offset[d] + a`` is e(d, a).  The row of u at flat index c
    holds its square at column c, and its brackets [u, v] with every v
    after it, up to degree class_bound - deg u, in the columns after c;
    column c of those rows holds [v, u].  Both lists are compared whole,
    and only a mismatch is taken apart.  The triples are one walk over the
    same list: for each u, the v at and after it, then the w at and after
    v, while d1 + 2 * d2 and d1 + d2 + d3 stay within the class bound.  The
    failures of each pass are sorted by degrees, then indices: the pairs by
    (d1, d2, a, b) and the triples by (d1, d2, d3, a, b, c), so the report
    does not depend on the order of the walk.

    While every square and pair passes, the walk takes u only in degree 1,
    and v and w only among the elements whose pair with u is open: it sums
    the generator triples J(g, v, w) whose pairs (v, g) and (w, g) are both
    open; a pair (b, g) of degree d is a defining pair when it defines an
    element of degree d + 1, and open otherwise.  Every triple with d1 >= 2
    is then zero too.  Write R_w(u) = [u, w], and call an element central
    when its action rows, its brackets with x and y, are zero.

    - With squares and antisymmetry, a triple's sum does not depend on the
      order of its elements, and J(u, v, w) = R_w[u, v] + [R_w u, v]
      + [u, R_w v], so J(., ., w) = 0 says that R_w is a derivation.
    - A central c brackets to zero with every element: the fill rule gives
      [c, [p, k]] = [[c, p], k] + [[c, k], p]; induct on the degree.
    - The fill rule of `BracketTable` computes the column of w' = [v, g]
      as [u, w'] = [[u, v], g] + [[u, g], v], whatever the action row
      [v, g] holds.  Write that row w' + delta.  With the pairs (u, w')
      and (u, g), both inside the class bound, J(u, v, g) = [delta, u].
    - Each such delta is central, so each generator triple through a
      defining pair is zero.  On the packed path the pairs used here are
      not compared one by one: they follow from the generator pairs and
      the symbol checks, as `_packed_jacobi` proves.  [delta, g] = J(g, v, g) is zero by the
      square [g, g] and the pair (g, v).  For the other generator h,
      [delta, h] = J(h, v, g), the sum on {x, y, v}.  If some element of
      degree 2 is defined by two different generators (a, b), with defect
      delta2, the step above gives J(v, a, b) = [delta2, v].  Its action
      rows [delta2, b] = J(b, a, b) and [delta2, a] = J(a, a, b) are zero
      by the squares and the pair (a, b), so delta2 is central and
      [delta2, v] = 0.  Otherwise every element of degree 2 is defined
      as [g, g], the fill rule makes every column of degree >= 2 zero, the
      pairs make every row of degree >= 2 zero, and J(h, v, g) is zero
      term by term.
    - The generator triples make R_x and R_y derivations.  The fill rule
      gives R_w' = R_g R_v + R_v R_g for every w' = [v, g], the commutator
      of two derivations, so by induction on deg w' every R_w' is a
      derivation, and every Jacobi sum is zero.

    The truncated table is a graded algebra in its own right (a bracket
    past the class bound is zero), and every identity above is homogeneous,
    so the argument holds degree by degree up to the bound.  A failed
    square or pair makes the walk take every u, v and w, and a failed
    generator triple every triple with d1 >= 2, so the report lists every
    failing triple in the same order either way.
    """
    bound, dims = A.class_bound, A.dims
    if A._table is None and max(dims) <= 2 and _packed_jacobi(A):
        return JacobiReport(True, _instances(dims, bound), [])
    table = A.bracket_table()
    rows, offset = table.rows, table.offset
    flat = [row for layer in rows[1:bound] for row in layer]  # flat[offset[d] + a]: the row of e(d, a)
    every = [(d, b) for d in range(1, bound) for b in range(A.dim(d))]  # every[offset[d] + b] = (d, b)
    failures = []
    pairs = []  # ((d1, d2, a, b), [u, v] + [v, u]) for each failed pair
    for c, (d1, a) in enumerate(every[: offset[bound // 2 + 1]]):
        row = flat[c]
        if row[c]:
            failures.append(("square", A.labels[d1][a], Element(A, 2 * d1, row[c])))
        hi = offset[bound - d1 + 1]  # the pairs end at degree bound - d1
        mine, theirs = row[c + 1 : hi], [r[c] for r in flat[c + 1 : hi]]
        if mine != theirs:
            for (d2, b), uv, vu in zip(every[c + 1 : hi], mine, theirs):
                if uv != vu:
                    pairs.append(((d1, d2, a, b), uv ^ vu))
    for (d1, d2, a, b), diff in sorted(pairs):
        labels = (A.labels[d1][a], A.labels[d2][b])
        failures.append(("antisymmetry", labels, Element(A, d1 + d2, diff)))
    opened = _open_rows(A)
    triples = []  # ((d1, d2, d3, a, b, c), the sum) for each failed triple
    for d1, a in every[: offset[bound // 3 + 1]]:
        if d1 > 1 and not (failures or triples):  # zero by the derivation argument
            break
        elems = every if d1 > 1 or failures else opened[a]
        start = bisect_left(elems, (d1, a))
        for i, (d2, b) in enumerate(elems[start:], start):
            if d1 + 2 * d2 > bound:
                break
            for d3, c in elems[i : bisect_left(elems, (bound - d1 - d2 + 1,))]:
                jac = jacobi_sum(rows, offset, d1, a, d2, b, d3, c)
                if jac:
                    triples.append(((d1, d2, d3, a, b, c), jac))
    for (d1, d2, d3, a, b, c), jac in sorted(triples):
        labels = (A.labels[d1][a], A.labels[d2][b], A.labels[d3][c])
        failures.append(("jacobi", labels, Element(A, d1 + d2 + d3, jac)))
    return JacobiReport(not failures, _instances(dims, bound), failures)


# -- graded subspaces -------------------------------------------------------


@dataclass
class GradedSubspaceFamily:
    """One subspace per degree, valid only up to valid_up_to."""

    algebra: GradedAlgebra
    per_degree: dict[int, EchelonBasis]
    valid_up_to: int

    def at(self, degree: int) -> EchelonBasis:
        if not 1 <= degree <= self.valid_up_to:
            raise ValueError(f"degree {degree} outside the validity range")
        return self.per_degree[degree]

    def dim(self, degree: int) -> int:
        return self.at(degree).rank


def _annihilator(A: GradedAlgebra, valid: int, modulo=None) -> GradedSubspaceFamily:
    """Per degree d <= `valid`, the kernel of v -> ([v,x], [v,y]).

    With `modulo`, a `GradedSubspaceFamily`, each image is first reduced
    modulo its subspace at d + 1, so the kernel is the preimage of that
    family under both generators.  The kernel depends on the rows alone, so
    a degree whose rows an earlier degree had gets a copy of its kernel.
    """
    per = {}
    seen: dict[tuple, EchelonBasis] = {}  # rows -> their kernel, for this call only
    for d in range(1, valid + 1):
        rows = A._action[d]
        if modulo is not None:
            z = modulo.per_degree[d + 1]
            rows = [(z.reduce(mx), z.reduce(my)) for mx, my in rows]
        key = tuple(rows)
        ker = seen.get(key)
        if ker is None:
            width = A.dim(d + 1)
            ker = seen[key] = kernel([mx | my << width for mx, my in rows], 2 * width)
        else:  # a repeated degree gets a basis of its own
            ker = ker.copy()
        per[d] = ker
    return GradedSubspaceFamily(A, per, valid)


def graded_center(A: GradedAlgebra) -> GradedSubspaceFamily:
    """Per-degree kernel of v -> ([v,x], [v,y]).

    The top degree is excluded from the validity range: its action rows are
    zero by truncation, so centrality there is not observable.
    """
    return _annihilator(A, A.class_bound - 1)


def second_center(A: GradedAlgebra, center: GradedSubspaceFamily | None = None) -> GradedSubspaceFamily:
    """Per-degree preimage of the graded center under both generators.

    `center` is A's graded center when the caller has built it already;
    by default it is built here.
    """
    if center is None:
        center = graded_center(A)
    elif center.algebra is not A or center.valid_up_to != A.class_bound - 1:
        raise ValueError("center is not a graded center of this algebra")
    return _annihilator(A, A.class_bound - 2, center)


def quotient(A: GradedAlgebra, ideal: GradedSubspaceFamily) -> GradedAlgebra:
    """Quotient of A by a graded ideal family, up to the family's validity bound.

    The family must vanish in degree 1 (the quotient keeps both generators)
    and must be closed under bracketing with the generators inside its
    validity range; an input that breaks these, or whose candidates fail to
    span A / ideal, raises ValueError.  The new basis is re-derived
    canonically: candidate spanning vectors [b, x], [b, y] are taken in
    basis order, and `define_layer` cuts the degree by the kernel of the
    candidates, the same cut `nq_compute` makes: a dependency eliminates its
    lowest-indexed participant, the survivors become the defined basis of
    the degree, and the action rows are the candidates' images over the
    survivors.  A degree whose representatives, action rows below, ideal
    rows and dimension an earlier degree had reuses that degree's cut.
    """
    if ideal.algebra is not A:
        raise ValueError("subspace family belongs to a different algebra")
    bound = ideal.valid_up_to
    if bound < 2:
        raise ValueError("validity range too small to build a quotient")
    if ideal.at(1).rank:
        raise ValueError("ideal meets degree 1; the quotient would not be 2-generated")
    for d in range(1, bound):
        nxt = ideal.at(d + 1)
        for row in ideal.at(d):
            for g in GEN_ORDER:
                if not nxt.contains(A.act_mask(d, row, g)):
                    raise ValueError(f"family is not an ideal at degree {d}")

    basis: list[Sequence[tuple[int | None, int]]] = [GENERATORS]
    action: list[list[tuple[int, int]]] = []
    reps = [0b01, 0b10]
    seen: dict[tuple, tuple] = {}  # one degree's inputs -> its cut, for this call only
    for d in range(2, bound + 1):
        idl = ideal.at(d)
        # the slice is () past the class bound, where `act_mask` is zero
        key = (tuple(reps), A._action[d - 1 : d], tuple(idl.row_bits()), A.dim(d))
        cut = seen.get(key)
        if cut is None:
            cands = [idl.reduce(A.act_mask(d - 1, rep, g)) for rep in reps for g in GEN_ORDER]
            defs, rows = define_layer(len(cands), kernel(cands, A.dim(d)))
            if len(defs) != A.dim(d) - idl.rank:
                raise ValueError(f"degree {d}: quotient candidates failed to span")
            cut = seen[key] = defs, rows, [cands[2 * p + g] for p, g in defs]
        defs, rows, reps = cut
        action.append(rows)
        basis.append(defs)
    action.append([(0, 0)] * len(basis[-1]))
    return GradedAlgebra(bound, basis, action)
