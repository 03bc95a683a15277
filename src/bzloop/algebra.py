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

`jacobi_sum` is the one Jacobi expansion over a `BracketTable`: `nq_compute`
reads from it the Jacobi rows whose symbol [v, g] was cut (a surviving
symbol w gives the row [u, w] + [w, u], two entries of the frontier slice),
and `jacobi_check` reads every square, every antisymmetry pair and the
Jacobi sums straight from the algebra's filled table, building an `Element`
only for a failure.  On a table that passes, only the Jacobi triples that
hold a generator are summed: they certify the rest, because the fill rule
makes each [., v] a commutator of derivations.  Three more rules live here
once each: `eval_runs` evaluates a left-normed word over action rows, from
scratch or continuing an evaluated prefix (for `eval_word`, `act_mask`,
`generator`, the relator rows of `nq_compute` and the v_n walk of
`analyze`); `define_layer` cuts a degree: given an echelon basis of the
relations among the symbols 2 * parent + generator, it returns the
survivors' pairs and every symbol's image over them (`nq_compute` cuts by
its relation rows, `quotient` by the kernel of its candidate vectors); and
`_annihilator` takes the kernel of v -> ([v,x], [v,y]), for the center and,
modulo the center, for the second center.  `str(Element)` is the one text
form of an element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .gf2 import EchelonBasis, iter_bits, kernel
from .words import (
    CommutatorWord,
    GeneratorSymbol,
    X,
    Y,
    extend_label,
)

GEN_ORDER = (X, Y)


def _letter(g) -> tuple:
    """The runs of the one-letter word g, a generator symbol or one of "x", "y", "z"."""
    if isinstance(g, GeneratorSymbol):
        return ((g, 1),)
    if isinstance(g, str) and g in ("x", "y", "z"):
        return ((GeneratorSymbol(g), 1),)
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
    `mirror(s)` sets every block (i, j) of slice s with i < j to the
    transpose of block (j, i), which is the block itself when the slice is
    antisymmetric.  Each row of degree i below the last slice filled, s,
    ends with its block of slice s, except a row below `lowest` of that
    fill that no `mirror(s)` has set since: `nq_compute` leaves row 1 so
    while it cuts a degree, and in its last slice.  While it cuts degree
    s, `nq_compute` sets the split action
    [e(s-1,t), g] = bit t + g * D, D = dim(s - 1), and calls
    `fill(s, 2, split=D)`: the first sum of the rule, over t in [u, p] of
    [e(s-1,t), g], is then one shift, [u, p] << g * D.
    """

    __slots__ = ("rows", "defs", "offset")

    def __init__(self):
        self.rows: list[list[list[int]]] = [[], [[], []]]
        self.defs: list[list[tuple[int, int]]] = [[], []]  # (parent index, generator index)
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
        """Set each block (i, j) of slice s with i < j to the transpose of block (j, i)."""
        rows, offset = self.rows, self.offset
        for i in range(1, (s + 1) // 2):
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
        gi = 0 if letter is X else 1 if letter is Y else 2
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


def define_layer(nsym: int, relations: EchelonBasis) -> tuple[list[tuple[int, int]], list[int]]:
    """Cut a degree out of its `nsym` symbols s = 2 * parent index + generator index.

    `relations` is a reduced echelon basis of the relations among the
    symbols.  Each relation kills its pivot, its lowest symbol; the other
    symbols survive, and element k of the new degree is [e(parent), x or y]
    for the k-th survivor s, the pair (s >> 1, s & 1).  Returns those pairs
    and `img`, where img[s] is the mask of symbol s over the survivors: one
    bit for a survivor, and for a pivot the survivors its relation holds
    (the rows are fully reduced, so those are survivors only).
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
    return defs, img


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
                        "generator": str(GEN_ORDER[g]),
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


def jacobi_check(A: GradedAlgebra) -> JacobiReport:
    """Check [u,u]=0, [u,v]=[v,u] and the Jacobi identity on in-range basis elements.

    Every square, pair and Jacobi sum is read from the algebra's
    `BracketTable`, filled once through the class bound.  Over GF(2) a
    bracket alternates on all elements exactly when it does on the basis
    and is antisymmetric on basis pairs, so both are checked.  Pairs (u, v)
    and triples (u, v, w) run over degrees d1 <= d2 <= d3 and, within equal
    degrees, indices in order; a pair's two elements differ.

    While nothing has failed, only the triples with d1 = 1 are summed:
    J(g, v, w) for a generator g and every pair v <= w.  Once they, every
    square and every pair pass, each triple with d1 >= 2 is zero; it is
    counted in `checked` by a closed form per degree pair, not summed.
    Write R_w(u) = [u, w].

    - The fill rule of `BracketTable` computes the column of v = [p, g] as
      [u, v] = [[u, p], g] + [[u, g], p], so R_v = R_g R_p + R_p R_g,
      whatever the action row [p, g] holds.
    - With squares and antisymmetry, J(u, v, w) = R_w[u, v] + [R_w u, v]
      + [u, R_w v], so J(., ., w) = 0 says that R_w is a derivation, and a
      triple's sum does not depend on the order of its elements.
    - The d1 = 1 triples make R_x and R_y derivations.  R_g R_p + R_p R_g is
      the commutator of two derivations, so by induction on deg v every R_v
      is a derivation, and every Jacobi sum is zero.

    The truncated table is a graded algebra in its own right (a bracket
    past the class bound is zero), and every identity above is homogeneous,
    so the argument holds degree by degree up to the bound.  A failure
    anywhere keeps the whole loop running, so the report lists every
    failing triple in the same order either way.
    """
    bound = A.class_bound
    table = A.bracket_table()
    rows, offset = table.rows, table.offset
    dims = A.dims
    checked = 0
    failures = []
    for d in range(1, bound // 2 + 1):
        col = offset[d]
        for a, row in enumerate(rows[d]):
            checked += 1
            sq = row[col + a]
            if sq:
                failures.append(("square", A.labels[d][a], Element(A, 2 * d, sq)))
    for d1 in range(1, bound // 2 + 1):
        for d2 in range(d1, bound - d1 + 1):
            col1, col2, other = offset[d1], offset[d2], rows[d2]
            for a, row in enumerate(rows[d1]):
                bs = range(a + 1 if d2 == d1 else 0, len(other))
                checked += len(bs)
                for b in bs:
                    diff = row[col2 + b] ^ other[b][col1 + a]
                    if diff:
                        labels = (A.labels[d1][a], A.labels[d2][b])
                        failures.append(("antisymmetry", labels, Element(A, d1 + d2, diff)))
    for d1 in range(1, bound - 1):
        for d2 in range(d1, bound - d1):
            top = bound - d1 - d2  # the highest d3
            if d1 > 1 and not failures:  # zero by the derivation argument above
                if d2 <= top:  # the triples with d3 = d2, then those with d3 > d2
                    n1, n2, more = dims[d1], dims[d2], sum(dims[d2 + 1:top + 1])
                    if d1 == d2:
                        checked += comb(n1 + 2, 3) + comb(n1 + 1, 2) * more
                    else:
                        checked += n1 * comb(n2 + 1, 2) + n1 * n2 * more
                continue
            for d3 in range(d2, top + 1):
                n1, n2, n3 = dims[d1], dims[d2], dims[d3]
                for a in range(n1):
                    for b in range(a if d2 == d1 else 0, n2):
                        cs = range(b if d3 == d2 else 0, n3)
                        checked += len(cs)
                        for c in cs:
                            jac = jacobi_sum(rows, offset, d1, a, d2, b, d3, c)
                            if jac:
                                labels = (A.labels[d1][a], A.labels[d2][b], A.labels[d3][c])
                                failures.append(("jacobi", labels, Element(A, d1 + d2 + d3, jac)))
    return JacobiReport(not failures, checked, failures)


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
    family under both generators.
    """
    per = {}
    for d in range(1, valid + 1):
        width = A.dim(d + 1)
        rows = A._action[d]
        if modulo is not None:
            z = modulo.per_degree[d + 1]
            rows = [(z.reduce(mx), z.reduce(my)) for mx, my in rows]
        per[d] = kernel([mx | my << width for mx, my in rows], 2 * width)
    return GradedSubspaceFamily(A, per, valid)


def graded_center(A: GradedAlgebra) -> GradedSubspaceFamily:
    """Per-degree kernel of v -> ([v,x], [v,y]).

    The top degree is excluded from the validity range: its action rows are
    zero by truncation, so centrality there is not observable.
    """
    return _annihilator(A, A.class_bound - 1)


def second_center(A: GradedAlgebra) -> GradedSubspaceFamily:
    """Per-degree preimage of the graded center under both generators."""
    return _annihilator(A, A.class_bound - 2, graded_center(A))


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
    survivors.
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
    for d in range(2, bound + 1):
        idl = ideal.at(d)
        cands = [idl.reduce(A.act_mask(d - 1, rep, g)) for rep in reps for g in GEN_ORDER]
        defs, img = define_layer(len(cands), kernel(cands, A.dim(d)))
        if len(defs) != A.dim(d) - idl.rank:
            raise ValueError(f"degree {d}: quotient candidates failed to span")
        action.append([(img[s], img[s + 1]) for s in range(0, len(img), 2)])
        basis.append(defs)
        reps = [cands[2 * p + g] for p, g in defs]
    action.append([(0, 0)] * len(basis[-1]))
    return GradedAlgebra(bound, basis, action)
