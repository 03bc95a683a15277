"""Graded nilpotent quotients of 2-generated presentations over GF(2).

The quotient is built degree by degree.  At each stage the next degree is
presented by frontier symbols [b, x], [b, y] over the current top degree's
basis, and three families of GF(2) relations are imposed: alternation of
the bracket (plus the one antisymmetry row [x, y] = [y, x] in degree 2),
Jacobi instances landing in the new degree, and the defining relators of
that weight, whose rows `eval_runs` reads off the table.  `define_layer`
cuts the degree by the echelon basis of these rows: the surviving symbols
become the new basis, each stored as its (parent index, generator index)
pair in the table's `defs`, which from degree 1, the generators, up is
also the basis handed to `GradedAlgebra`; no label is built here.  An
empty degree needs no special case: it has no frontier symbols, so the
next slice and its relation rows are zero and the cut is empty.

Two loops make the cuts and yield the same tables.  Each yields the
table after a cut and prepares the slice it just cut only when its
caller asks for the next degree, so the slice of the caller's last degree
is never prepared: no later cut reads it.  The default loop, `_cuts`,
is the packed loop, which at its first cut wider than 2 restarts the table
loop: that cuts degrees 2 and up again and goes on.  Its two callers live
here:
`nq_compute` stops it at its class bound and keeps only the action rows,
and `nq_eval` at a word's weight or at the word's first zero prefix.
`full_jacobi=True` runs the table loop throughout, refilling every block
of every slice and building every triple row; it is the cross-check.

The table loop, `_table_cuts`, keeps all brackets in one
`BracketTable`.  To cut degree n + 1, the top degree's action is set to
the frontier symbols themselves and slice n + 1
(every bracket of total degree n + 1) is filled, except row 1, which no
relation row reads; every relation row then reads that slice.  While the
slice is built the symbols are split: with D = dim n, the symbol
[e(n, w), g] is the bit w + g * D, x-symbols below y-symbols, so the
fill's term [[u, p], g] is [u, p] shifted by g * D.  Each distinct
nonzero relation row is then put in symbol order s = 2w + g, the order
the cut and the survivors use, by interleaving its two halves.  A Jacobi
row J(u, v, g) whose symbol [v, g] survived its own cut as w is
[u, w] + [w, u], two entries of the slice; the row of a cut symbol is
summed in place by the fill's rule plus [[v, g], u] over the symbol's
image, so the default mode calls no `jacobi_sum`.  At every split but
the last, a row J(u, v, g) whose [u, g] defined an element t is skipped:
it repeats the row of t and v one split later.  Once the cut is known,
the top degree's action is set to the survivor images.  The slice is
linear in that action, so the image of each frontier entry over the
survivors is the true bracket.  The loop refills the slice from the
survivor images, which makes it the true bracket table of degree n + 1;
the refilled slice is antisymmetric, so only its blocks (i, j) with
i >= j are filled and the rest, row 1 aside, are mirrored from them.

The packed loop, `_packed_cuts`, holds only slices n and n + 1, as bit
planes, and its table only the definitions and the action rows.  Slice
s is 4 families f = 2a + b, the entries [e(i, a), e(s - i, b)] with
a, b < 2 at the positions i, interleaved: plane k is one int, whose bit
4i + f is bit k of the entry of family f at position i.  For the frontier
slice n + 1 the entries are masks over the frontier symbols in symbol
order, [e(n, w), g] at bit 2w + g, so the rows read off the planes go to
the cut as they are; the table loop's split bit w + g * D is plane
2w + g.  Position n of slice n + 1 is the frontier action itself, and
the held slice n is mapped through its cut's images.  The loop starts
from the empty table: slice 2 is its action field alone, off which it
reads the one antisymmetry row.  Every degree of R(g, h) with g + h <= 10
past the first is 1 or 2 wide, so the packed loop cuts them all.  The fill
rule gives the entry (a, b) at position i, column e(j, b) =
[e(j - 1, p), g], as the held entry (a, p) at position i moved to
generator g plus the entries (t, p) at position i + 1 over the bits t of
[e(i, a), g].  Where that sum is the family's own entry alone, the family
is the gated suffix XOR
T(i) = A(i) + c(i) T(i + 1); with the gates of all four families in one
lane mask, doubling computes it in O(log n) operations per plane, each a
shift by a multiple of 4 bits.  Each other position of a family is an
event, whose sum is read, from the top down, off the finished position
i + 1 and XORed down its chain of gates.  So the planes hold, bit for
bit, the entries that the table loop's frontier fill computes: the same
rule over the same action and, by induction, the same held entries.  The
relation rows are then those of the table loop, read off the planes: the
alternation rows, and for each split d1 <= n // 2 and symbol 2b + g the
row F(u; v, g) + [[v, g], u], which for a surviving symbol w is
[u, w] + [w, u], read from the slice and its mirror about (n + 1) / 2.
All of them, four families and two generators, are one row of planes,
and the entries another family reads are one or two bits away in the
same position.  They include the rows the table loop skips, each 0 or a
repeat of a built one.  The loop folds a basis of their span, and the
relator rows, into a span of at most 4 symbols, one of the 67 subspaces
of GF(2)^4, and reads its cut from `_narrow_table`, which `echelonize`
and `define_layer` fill once per process; the reduced echelon form
depends only on the span, so the pivots, the survivor images and every
table are unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, count, islice, repeat

from .algebra import (
    BracketTable,
    Element,
    GradedAlgebra,
    define_layer,
    eval_runs,
    jacobi_sum,
)
from .gf2 import echelonize, iter_bits
from .words import CommutatorWord


@dataclass(frozen=True)
class Presentation:
    """Relators (left-normed commutator words) over the fixed generators x, y."""

    relators: tuple[CommutatorWord, ...]

    def __init__(self, relators=()):
        rels = tuple(relators)
        for r in rels:
            if not isinstance(r, CommutatorWord):
                raise TypeError(f"relator is not a commutator word: {r!r}")
            if r.weight < 2:
                raise ValueError(f"relator of weight {r.weight}; need weight >= 2")
        object.__setattr__(self, "relators", rels)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.relators)


def _interleave(lo: int, hi: int) -> int:
    """The mask with bit i of lo at bit 2i and bit i of hi at bit 2i + 1.

    Read in base 4, the binary digits of lo are the even bits of the
    result.  Int-string conversions in base 2 and 4 are linear and exempt
    from the limit on int-to-string digits, so any width works.
    """
    return int(format(lo, "b"), 4) | int(format(hi, "b"), 4) << 1


def nq_compute(pres: Presentation, class_bound: int, full_jacobi: bool = False) -> GradedAlgebra:
    """Largest graded quotient of the presentation with the given class bound.

    By default Jacobi relations are imposed for triples containing a
    generator; with the defining relators this is enough to cut the next
    degree down exactly (antisymmetry plus generator-triple Jacobi force the
    general identity degree by degree).  `full_jacobi=True` imposes every
    basis triple instead.  In both modes the table loop builds the
    relation rows of degree n + 1 over the split frontier symbols,
    [e(n, w), g] at bit w + g * D with D = dim n, and hands `echelonize`
    each distinct nonzero row once, interleaved into symbol order
    s = 2w + g.  The interleaving is a bijection on rows, so `echelonize`
    receives the rows it would receive had they been built in symbol
    order, in the same order.  A degree of
    dimension 0 is cut like any other: from no symbols, so `define_layer`
    returns the empty cut and every later degree is empty too.

    The degrees are cut by `_cuts`, which yields the table after each cut
    and prepares the slice it just cut, refilled or mapped, only when it
    is asked for the next degree.  `nq_compute` takes class_bound tables
    from it and asks for no more, so the slice of degree class_bound is
    never prepared: no later cut reads it, and the result keeps only the
    action rows.  The arguments below speak of the table loop; the packed
    loop, which the default mode runs up to its first degree wider than 2,
    makes the same cuts (last paragraph).

    Antisymmetry is imposed by one row only, [x, y] = [y, x] in degree 2;
    in every higher degree each antisymmetry row is a Jacobi row already.
    Take degree n + 1 >= 3, u in degree i and v = e(j, b) with j >= 2,
    defined as [p, g], where i + j = n + 1.  The table fills [u, v] as
    [[u, p], g] + [[u, g], p].  The generator-Jacobi row of the pair {u, p}
    with g is [[u, p], g] + [[p, g], u] + [[g, u], p].  In degrees <= n the
    table is already a Lie algebra, so [g, u] = [u, g]; and [p, g] = v
    exactly, because a survivor's image is one bit.  So that Jacobi row is
    [u, v] + [v, u], the antisymmetry row itself.  The Jacobi loop skips
    u = p and u = g (p = g cannot occur: [g, g] = 0 is no survivor), and
    there the antisymmetry row is zero too:
    [p, v] = [[p, p], g] + [[p, g], p] = [v, p] and [g, v] =
    [[g, p], g] + [[g, g], p] = [v, g].  Degree 2 has no such triple, so
    [x, y] = [y, x] stays.  The full-Jacobi rows include these triples
    (the Jacobi sum does not depend on the order of the triple while the
    degrees below are antisymmetric), so the argument covers both modes.
    Alternation rows are not covered and stay: J(u, p, g) is trivially
    zero when u = [p, g].

    The table loop's default mode builds each bracket and each relation
    row once.  The six shortcuts below leave every cut, and so every
    table, unchanged;
    the first also holds in `full_jacobi` mode.  The proofs speak of the
    true table, the one `GradedAlgebra.bracket_table` fills: while degree
    n + 1 is cut it is antisymmetric in every degree <= n, row 1 included,
    and each shortcut says which of its entries `nq_compute`'s own table
    holds.

    The frontier fill skips row 1, in both modes.  When degree n + 1 is
    cut, no relation row reads block (1, n) of the frontier slice.  A
    Jacobi row J(u, v, w) reads [[u, v], w], [[v, w], u] and [[w, u], v]
    from rows of degree deg u + deg v, deg v + deg w and deg w + deg u,
    each at least 2.  The relator rows read only action rows.  Alternation
    reads block (h, h), which for h = 1 is the action block.  Row 1 is the
    last row `fill` computes and no other block of the slice reads it, so
    the rows above it are as a whole fill leaves them.

    The refill computes half the slice.  By linearity the refill of any
    block is the image, over the survivors, of what a whole frontier fill
    gives there, and the images kill exactly the span of the relation
    rows.  By the argument above every antisymmetry row of degree n + 1 is
    a generator-Jacobi row or zero, so the refilled slice is
    antisymmetric.  Hence the refill fills the blocks (i, j) with i >= j
    only; this is self-contained, since block (i, j) reads (i + 1, j - 1)
    of its slice, also in that half.  Every block (i, j) with 2 <= i < j
    is then the transpose of block (j, i).  Row 1 is left as it is: by the
    first and fifth shortcuts no reader in the default mode reads it.

    No row with two generators is built: each is zero or repeats a row
    the loop builds.  Take J(x, v, y) with v = e(n - 1, b) = [q, g'] and
    let z = [y, x] span degree 2 (if degree 2 is zero, so is every degree
    above it).  J(y, v, x) is the same row term by term, because
    [x, v] = [v, x], [v, y] = [y, v] and [x, y] = [y, x] hold bit for bit
    in the true table in degrees <= n.
    Its terms are [[x, v], y] = [[v, x], y], [[v, y], x] and [z, v], which
    the frontier fill gives as [[z, q], g'] + [[z, g'], q].  The row
    J(z, q, g') has the terms [[z, q], g'], [[z, g'], q] (as [[g', z], q],
    and [g', z] = [z, g']) and [[q, g'], z] = [v, z],
    which the fill gives from z's definition as [[v, x], y] + [[v, y], x].
    So the two rows are equal bit for bit.  For n >= 5 the loop builds
    J(z, q, g') with d1 = 2.  For n = 4, q = z, and J(z, z, g') is
    [[z, z], g'] (its other two terms are equal), which is 0, since the
    degree-4 cut kills [z, z].  For n = 3, v = z and J(x, z, y) is
    [[z, x], y] + [[z, y], x] + [z, z], whose last term the fill gives as
    the first two.  So the loop starts at d1 = 2.
    The row J(u, p, g) that the antisymmetry argument names for a
    generator u != g is such a row, so that argument still holds.

    Each distinct nonzero row is interleaved and echelonized once.  The
    reduced echelon form depends only on the span of the rows, so every
    pivot and every survivor image is unchanged; repeated rows are common,
    since different triples often give the same row.

    Each Jacobi row is built in place by the fill's rule.  Take J(u, v, g)
    with u = e(d1, a), v = e(d2, b), 2 <= d1 <= d2, d1 + d2 = n, and
    j = d2 + 1, and let F(u; v, g) = [[u, v], g] + [[u, g], v] be the rule
    `fill` applies to [u, [v, g]], here applied to the symbol s = 2b + g of
    degree j whether or not s is a basis element.  Then
    J(u, v, g) = F(u; v, g) + [[v, g], u], term by term.  The first term
    of `jacobi_sum` sums [t, g] over t in [u, v]; over the split frontier
    each [t, g] is the bit t + g * D, so it is [u, v] shifted by g * D, the
    one shift `fill` makes ([u, v] lies in slice n, refilled and true).
    The third sums [t, v] over t in [g, u], the row-1 entry
    R[1][g][off[d1] + a] of the true table; F sums over [u, g] =
    R[d1][a][g] instead, and these are the same mask, because the true
    table is antisymmetric in degree d1 + 1 <= n; so the loop reads no
    row 1.
    The second sums [e(j, k), u] over the bits k of [v, g], the image of s
    over the survivors of degree j.  If s survived its cut as w = e(j, k),
    defined as [v, g], F is the filled entry [u, w] =
    R[d1][a][off[j] + k] and the image is the single bit k, so the row is
    [u, w] + [w, u], two entries of the frontier slice (both blocks lie
    above row 1, so the fill computed them).  A cut symbol's image is zero
    or several bits (every cut of R(2, 1) up to class 48 has image zero,
    wider presentations have nonzero ones); its row is F, summed as `fill`
    sums it, plus [[v, g], u] over that image.  So every row is equal bit
    for bit to its Jacobi sum, `echelonize` receives the same rows in the
    same order, and `jacobi_sum` is left to `full_jacobi` mode and
    `jacobi_check`.

    A row whose [u, g] defines an element repeats a pair row one split
    later.  Take J(u, v, g) with u = e(d1, a), v = e(d2, b), d1 + d2 = n
    and 2 * d1 + 2 <= n, and let the symbol 2a + g of degree d1 + 1 have
    survived as t, so [u, g] = [g, u] is the one bit t.  The third term of
    the row, [[g, u], v], is then the entry [t, v] of block (d1 + 1, d2).
    The fill gives [v, t] as [[v, u], g] + [[v, g], u], whose first term
    is the row's first, since [v, u] = [u, v] in slice n, and whose second
    is the row's second.  So J(u, v, g) = [t, v] + [v, t] bit for bit.
    Let v be defined as [q, g''], with q of degree d2 - 1 >= d1 + 1; the
    pair row of t and v is J(t, q, g''), which the loop meets at split
    d1 + 1 <= n // 2 and, its symbol having survived as v, builds as
    [t, v] + [v, t] (fifth shortcut).
    - If d1 + 1 < d2 - 1, the loop visits q's symbols for u = t.  Should
      it skip this one too, because [t, g''] defines an element and
      2 * d1 + 4 <= n, the same argument makes the row a pair row of split
      d1 + 2, and so on: the splits end at n // 2, so by induction down
      from the last split every skipped row repeats a row the loop builds.
    - If d1 + 1 = d2 - 1, so n = 2 * d1 + 2, split d1 + 1 is the last one
      and skips nothing, and t and q both lie in degree n / 2.  If q comes
      after t, the loop builds J(t, q, g'') for u = t.  If q comes before
      t, it builds J(q, t, g''), which is the same row: its terms are
      those of J(t, q, g'') with each inner bracket transposed, and the
      true table is antisymmetric in degrees <= n.  If q = t the row is
      [[t, t], g''] + [[t, g''], t] + [[g'', t], t] = 0: [t, t] lies in
      degree n, whose alternation row cut it, and the last two terms are
      equal.
    So the loop skips J(u, v, g) for every v, and every pivot and every
    survivor image is unchanged (fourth shortcut).  It skips whole visits:
    a u whose [u, x] and [u, y] both define elements visits no symbol, and
    one with a single defining generator visits only the other's symbols,
    every second one, in the order the full loop visits them.

    The packed loop makes the same cuts.  Slice 2 is the action field, in
    both loops, and the alternation and antisymmetry rows of degree 2 are
    read off it at the same symbols.  Its planes hold, bit for bit,
    the entries that the table loop's frontier fill computes, positions
    2..n - 1 of slice n + 1 being its rows 2..n - 1, with the symbols in
    symbol order: plane 2w + g holds what the table loop keeps at bit
    w + g * D, and that bijection commutes with the fill rule's XORs and
    shifts.  Both evaluate the fill rule at the same action: the packed
    loop's first term is the held entry (a, p) moved to generator g, which
    is the table loop's refilled entry [u, p] shifted by g * D (the held
    planes are the frontier planes mapped through the same survivor images,
    which by linearity, entry by entry, is what the refill computes);
    its second term sums the same entries of position i + 1 over the same
    action bits, by doubling along a family where only the family's own
    entry is read and at an event otherwise, each event solved after every
    position above it.  The four families share each plane, in lanes 4i +
    f, and each whole-plane operation acts on each lane as the four-family
    operation acts on its family: a doubling shift moves by whole
    positions, a mask has each lane's own bit, and the lane moves within a
    position (one bit for the column family b, two for the row family a)
    are confined to its four bits by masks of their target lanes.  Its
    rows are read off those planes by the rules above: the alternation
    rows, and for each split d1 and symbol 2b + g of each u the row
    F(u; v, g) + [[v, g], u], equal to [u, w] + [w, u] where the symbol
    survived as w (fifth shortcut).  The packed loop builds these rows for
    every u and symbol, the skipped ones too, which by the sixth
    shortcut are 0 or repeats.  It folds a basis of their span, and the
    relator rows, into the state of `_narrow_table` and reads the cut
    there, the one that `define_layer` makes from `echelonize` over the
    span's members.  The span is the table loop's, so the reduced echelon
    form, the pivots, the survivor images and the table are unchanged.
    """
    if class_bound < 1:
        raise ValueError("class bound must be at least 1")
    return _algebra(next(islice(_cuts(pres, full_jacobi), class_bound - 1, None)), class_bound)


def _algebra(table: BracketTable, class_bound: int) -> GradedAlgebra:
    """The algebra of the table `_cuts` yielded at degree class_bound: its top degree acts as zero."""
    action = [[(row[0], row[1]) for row in layer] for layer in table.rows[1:class_bound]]
    return GradedAlgebra(class_bound, table.defs[1:], action + [[(0, 0)] * len(table.defs[class_bound])])


def nq_eval(pres: Presentation, word: CommutatorWord) -> Element:
    """The value of `word` in the graded quotient of `pres`, as an element of the word's weight.

    The word is stepped along the cut loop: once degree d is cut, the action
    of degree d - 1 is final, and letter d acts there on the prefix of
    weight d - 1.  The word is left-normed, so a zero prefix makes it zero
    and the loop stops at the first one; only a word with no zero prefix
    pays for the quotient of class its weight.  A zero value is the zero of
    the quotient of the class where the loop stopped.  The letters are read
    from the word's runs as the loop needs them, so a long run or group
    power past the first zero prefix is never expanded.
    """
    mask = 0
    letters = chain.from_iterable(repeat(letter, exp) for letter, exp in word.runs())
    for d, (letter, table) in enumerate(zip(letters, _cuts(pres)), 1):
        mask = eval_runs(table.rows, ((letter, 1),), d, mask, d - 1)
        if not mask:
            break
    return _algebra(table, d).element(word.weight, mask)


def _cuts(pres: Presentation, full_jacobi: bool = False) -> Iterator[BracketTable]:
    """The cut loop of `nq_compute` and `nq_eval`: yield the table at degree 1, then after each cut.

    When degree d has been cut, the table holds the definitions of degrees
    1..d and the action rows of the degrees below d, which are final; those
    of degree d are not set.  The slice of degree d is prepared only when
    the caller asks for the next degree, so a caller that stops at degree c
    prepares no slice of degree c.  The same table is yielded each time and
    changes as the loop goes on, except once: where the packed loop restarts
    the table loop, the tables after it are the table loop's.  `full_jacobi`
    runs the table loop, and the default the packed loop.
    """
    return _table_cuts(pres, full_jacobi) if full_jacobi else _packed_cuts(pres)


def _relators_by_weight(pres: Presentation) -> dict[int, list[CommutatorWord]]:
    by_weight: dict[int, list[CommutatorWord]] = {}
    for r in pres.relators:
        by_weight.setdefault(r.weight, []).append(r)
    return by_weight


def _cut(table: BracketTable, n: int, rows: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The table loop's cut of degree n + 1 by `rows`; set the action of degree n and add the new degree.

    The rows are distinct nonzero masks over the frontier symbols in
    symbol order, [e(n, w), g] at bit s = 2w + g, and go to `echelonize`
    as they are.  Returns the new degree's definitions and the action rows
    of degree n.  The packed loop reads its cuts from `_narrow_table`,
    which `echelonize` and `define_layer` fill as here.
    """
    nsym = 2 * len(table.rows[n])
    defs, action = define_layer(nsym, echelonize(rows, nsym))
    table.set_action(n, action)
    table.add_degree(defs)
    return defs, action


@cache
def _narrow_table() -> tuple[tuple[tuple[int, ...], ...], dict[int, tuple]]:
    """The cut of every span of rows over at most 4 symbols: the 67 subspaces of GF(2)^4.

    A span is a state, numbered as the walk from {0}, state 0, finds it;
    add[state][r] is the state of the span with the row r < 16 added.
    The reduced echelon form depends only on the span, so
    cuts[nsym][state], for nsym in {0, 2, 4}, is the `define_layer` cut
    of `echelonize` over the span's members, the same for every row list
    that spans it; it is None for a span with a member of 2^nsym or above.
    Built on first use, once per process.
    """
    spans = [1]  # bit v of a span is set when the row v lies in it
    state = {1: 0}
    add = []
    for members in spans:  # the walk reaches the spans it appends
        row = []
        for r in range(16):
            closed = members
            for v in iter_bits(members):
                closed |= 1 << (v ^ r)
            if closed not in state:
                state[closed] = len(spans)
                spans.append(closed)
            row.append(state[closed])
        add.append(tuple(row))
    cuts = {
        nsym: tuple(
            tuple(map(tuple, define_layer(nsym, echelonize(iter_bits(members), nsym))))
            if members >> (1 << nsym) == 0
            else None
            for members in spans
        )
        for nsym in (0, 2, 4)
    }
    return tuple(add), cuts


def _narrow_cut(table: BracketTable, n: int, rows: list[int]) -> tuple[tuple, tuple]:
    """The packed loop's cut of degree n + 1, at most 4 symbols, read from `_narrow_table`; as `_cut` does.

    The rows are masks over the frontier symbols in symbol order; a zero
    or repeated row leaves the span, and so the cut, as it is.
    """
    add, cuts = _narrow_table()
    state = 0
    for r in rows:
        state = add[state][r]
    defs, action = cuts[2 * len(table.rows[n])][state]
    table.set_action(n, action)
    table.add_degree(defs)
    return defs, action


# _MIRROR8[b] is the byte b, two positions of four lanes, with its positions
# swapped and, in each, lanes 1 and 2 swapped
_SWAP12 = [v & 9 | (v & 2) << 1 | (v & 4) >> 1 for v in range(16)]
_MIRROR8 = bytes(_SWAP12[b >> 4] | _SWAP12[b & 15] << 4 for b in range(256))


def _mirror(plane: int, s: int) -> int:
    """The plane with position i moved to s - i and, at each, lanes 1 and 2 swapped; no position above s.

    Lane f = 2a + b of the result is lane 2b + a of the plane: family (a, b) is read as (b, a).
    """
    size = s // 2 + 1
    return int.from_bytes(plane.to_bytes(size, "little").translate(_MIRROR8), "big") >> 4 * (2 * size - 1 - s)


def _read(planes: list[int], bit: int) -> int:
    """The entry at a bit of the planes, 4i + f for family f at position i: bit k is that bit of planes[k]."""
    out = 0
    for k, plane in enumerate(planes):
        out |= (plane >> bit & 1) << k
    return out


def _span(planes: list[int]) -> list[int]:
    """A basis of the span of the entries the planes hold, read off them as they are reduced.

    The basis is in echelon form, each entry's pivot its lowest bit and no
    entry holding an earlier one's pivot: once an entry joins the basis,
    every entry holding its pivot has it added, so a bit still set holds
    an entry outside the span, the next to join.  The planes are reduced
    in place.
    """
    basis = []
    while True:
        rest = 0
        for plane in planes:
            rest |= plane
        if not rest:
            return basis
        v = _read(planes, (rest & -rest).bit_length() - 1)
        basis.append(v)
        m = planes[(v & -v).bit_length() - 1]
        for k, plane in enumerate(planes):
            if v >> k & 1:
                planes[k] = plane ^ m


class _Masks:
    """The per-position masks the packed loop reads, in lane form: bit 4i + 2a + b is family (a, b) at position i.

    Read by row degree d, at position d: `rows` has the lanes (a, 0) and
    (a, 1) set when e(d, a) exists, own[g] when [e(d, a), g] holds bit a
    and other[g] when it holds bit 1 - a.  The others are read by column
    degree, so they are kept reversed: once degree n is added, position i
    stands for degree n + 1 - i, the column of position i in slice n + 1.
    The lanes (0, b) and (1, b) are set in `cols` when e(n + 1 - i, b)
    exists; with e(n + 1 - i, b) = [e(n - i, p), g], in `same` when p = b
    and in `gen` when g = 1; in rown[g] when [e(n - i, b), g] holds bit b
    and in rother[g] when it holds bit 1 - b.  Degree 1 is added too, as
    the generators (None, b), at position n, which no reader reads.
    """

    __slots__ = ("rows", "own", "other", "cols", "same", "gen", "rown", "rother")

    def __init__(self):
        self.rows = self.cols = self.same = self.gen = 0
        self.own, self.other, self.rown, self.rother = [0, 0], [0, 0], [0, 0], [0, 0]

    def add_row(self, n: int, width: int, action) -> None:
        """Degree n + 1 is cut, `width` <= 2 wide, and degree n acts by `action`."""
        self.rows |= (0, 3, 15)[width] << 4 * n + 4
        own, other = self.own, self.other
        for a, row in enumerate(action):
            lanes = 3 << 4 * n + 2 * a  # (a, 0) and (a, 1) at position n
            for g in (0, 1):
                if row[g] >> a & 1:
                    own[g] |= lanes
                if row[g] >> 1 - a & 1:
                    other[g] |= lanes

    def add_column(self, defs, action) -> None:
        """Add the next degree, defined by `defs`, and the action of the degree below it."""
        cols, same, gen = self.cols, self.same, self.gen
        for b, (p, g) in enumerate(defs):
            lanes = 5 << b  # (0, b) and (1, b)
            cols |= lanes
            if p == b:
                same |= lanes
            if g:
                gen |= lanes
        self.cols, self.same, self.gen = cols << 4, same << 4, gen << 4
        rown, rother = self.rown, self.rother
        for g in (0, 1):
            for b, row in enumerate(action):
                if row[g] >> b & 1:
                    rown[g] |= 5 << b
                if row[g] >> 1 - b & 1:
                    rother[g] |= 5 << b
            rown[g] <<= 4
            rother[g] <<= 4


def _packed_cuts(pres: Presentation) -> Iterator[BracketTable]:
    """The packed loop: slices n and n + 1 as bit planes while every degree is at most 2 wide.

    It starts from an empty table and keeps only definitions and action
    rows in it.  At its first cut wider than 2, of degree n + 1, it
    restarts the table loop, which cuts degrees 2 .. n + 1 again and goes
    on from there.  Position i of slice s is its field (i, s - i).  The entry
    [e(i, a), e(s - i, b)] belongs to family f = 2a + b, and plane k of a
    slice holds bit k of every entry, the entry of family f at position i
    at bit 4i + f; a slice is 2 * D planes.  The frontier slice n + 1 is
    over the symbols in symbol order, plane 2w + g for [e(n, w), g]: its
    positions 2..n - 1 are filled and its position n is the action field,
    [e(n, a), b] in plane 2a + b.  Slice 2 is its action field alone, so
    the loop starts from an empty held slice 1.  `held` is slice n mapped
    through its cut's images.  The relation rows read off the planes are in
    symbol order, as `_narrow_cut` takes them, zeros and repeats included;
    only the relator rows need the frontier action set, in the same order.
    Each cut, at most 4 symbols, is read from `_narrow_table`.
    """
    by_weight = _relators_by_weight(pres)
    table = BracketTable()
    yield table
    R, defs = table.rows, table.defs
    masks = _Masks()
    held = [0, 0]

    for n in count(1):
        D = len(R[n])
        masks.add_column(defs[n], R[n - 1])
        planes, rows = [], []
        if D:
            planes = _fill_planes(n, R, defs, held, masks)
            if n % 2:  # alternation: [u, u] = 0 for u of half the new degree
                h = (n + 1) // 2
                rows = [_read(planes, 4 * h + 3 * a) for a in range(len(R[h]))]
            if n == 1:  # antisymmetry: [x, y] = [y, x]; above degree 2 the Jacobi rows repeat it
                rows.append(_read(planes, 5) ^ _read(planes, 6))
            _jacobi_basis(n, planes, held, masks, rows)
        if n + 1 in by_weight:  # the relators' last letter meets [e(n, w), g], bit 2w + g
            table.set_action(n, [(1 << 2 * w, 2 << 2 * w) for w in range(D)])
            rows += [eval_runs(R, r.runs(), n + 1) for r in by_weight[n + 1]]
        new, action = _narrow_cut(table, n, rows)
        yield table

        if len(new) > 2:  # restart the table loop after degree n + 1
            yield from islice(_table_cuts(pres), n + 1, None)
            return
        # the caller asks for degree n + 2, whose cut reads slice n + 1
        held = _true_planes(planes, action, len(new))
        masks.add_row(n, len(new), action)


def _fill_planes(n, R, defs, held, masks: _Masks) -> list[int]:
    """The frontier slice n + 1, each family a gated suffix XOR T(i) = A(i) + c(i) T(i + 1).

    The entry (a, b) at position i, with j = n + 1 - i and
    e(j, b) = [e(j - 1, p), g], is [[u, p], g] + [[u, g], p] by the fill
    rule.  A(i), the first term, is the held entry (a, p) at position i,
    moved from plane c to plane 2c + g; lane (a, p) moves to lane (a, b) by
    a shift of one bit when p != b.  The second sums the entries (t, p)
    at position i + 1 over the bits t of [e(i, a), g].  Where that sum is
    the family's own entry, t = a and p = b only, the bit is the gate c(i),
    and all four families are scanned at once by doubling, in O(log n)
    operations per plane.  Every other nonzero [e(i, a), g] makes the bit
    of position i an event: its gate is 0, and, from the top down, its sum
    is read from the finished position i + 1 and XORed into the family's
    chain of gates down from i.
    """
    s, D = n + 1, len(R[n])
    ones = (1 << 4 * s) // 15  # lane 0 of every position up to n
    valid = ((1 << 4 * n) - (1 << 8)) & masks.rows & masks.cols  # positions 2 .. n - 1
    same = masks.same & valid  # p = b
    down = (valid ^ same) & ones * 5  # b = 0 and p = 1: lane (a, 1), one bit up
    up = valid ^ same ^ down  # b = 1 and p = 0: lane (a, 0), one bit down
    gen = masks.gen
    (own0, own1), (other0, other1) = masks.own, masks.other
    own = own0 ^ (own0 ^ own1) & gen  # bit a of [e(i, a), g]
    other = other0 ^ (other0 ^ other1) & gen  # bit 1 - a
    gate = own & ~other & same
    events = (own | other) & valid ^ gate

    T = []
    for c, m in enumerate(held):  # the action field: [e(n, c), b] is symbol 2c + b
        m = m & same | m >> 1 & down | m << 1 & up
        T += m & ~gen | 1 << 4 * n + 2 * c, m & gen | 2 << 4 * n + 2 * c
    C, step = gate, 4
    while C:
        for k, m in enumerate(T):
            T[k] = m ^ C & m >> step
        C &= C >> step
        step <<= 1

    while events:
        e = events.bit_length() - 1  # family f = 2a + b at position i
        events ^= 1 << e
        i = e >> 2
        p, g = defs[s - i][e & 1]
        # the entries (t, p) at position i + 1 over the bits t of [e(i, a), g], bits 4i + 4 + 2t + p
        read = (0, 1, 4, 5)[R[i][e >> 1 & 1][g]] << 4 * i + 4 + p
        x = 0
        for k, m in enumerate(T):
            if (m & read).bit_count() & 1:
                x |= 1 << k
        if x:
            # the chain of gates below i ends above the first position whose gate is 0
            lane = ones << (e & 3)
            chain = (2 << e) - (8 << (~gate & lane & (1 << e) - 1).bit_length()) & lane
            for k, m in enumerate(T):
                if x >> k & 1:
                    T[k] = m ^ chain
    return T


def _jacobi_basis(n, planes, held, masks: _Masks, rows) -> None:
    """Append to `rows` a basis of the span of the default Jacobi rows of degree n + 1.

    Split d1 is position d1, 2 <= d1 <= n // 2, with d2 = n - d1 and
    j = n + 1 - d1.  For u = e(d1, a), v = e(d2, b) and a generator g,
    the row of J(u, v, g) is F(u; v, g) + [[v, g], u]: the fill's rule
    applied to the symbol 2b + g, the held entry (a, b) moved from plane c
    to plane 2c + g, plus the entries (t, b) at position d1 + 1 over the bits t of [u, g],
    and then the entries (t, a) at position j over the bits t of [v, g].
    Where the symbol defines w = e(j, k), F is the filled entry [u, w] and
    [v, g] the one bit k, so the row is [u, w] + [w, u], as the table loop
    builds it.  The rows of all four families and both generators are one
    row of planes, family (a, b) of position d1 at bit 4 * d1 + 2a + b,
    those of g = 1 W bits above those of g = 0.  The entry (t, b) with
    t != a is one lane pair away, two bits; position j of the planes is
    position d1 of their mirror about (n + 1) / 2, which reads family
    (t, a) in lane (a, t), so the entry (a, t) with t != b is one bit away.
    """
    half = n // 2
    if half < 2:
        return
    W = 4 * half + 4  # positions 0 .. half
    ok = ((1 << W) - (1 << 8)) & masks.rows & masks.cols >> 4  # positions 2 .. half
    if not n % 2:  # d1 = d2: only the symbols of the elements after u, lane (0, 1)
        ok &= ~(13 << 4 * half)
    if not ok:
        return
    ones = (1 << 2 * W) // 15
    (own0, own1), (other0, other1) = masks.own, masks.other
    (rown0, rown1), (rother0, rother1) = masks.rown, masks.rother
    own = own0 & ok | (own1 & ok) << W
    other = other0 & ok | (other1 & ok) << W
    other_a0 = other & ones * 3  # a = 0: lane (1, b), two bits up
    other_a1 = other ^ other_a0
    rown = rown0 & ok | (rown1 & ok) << W  # [v, g] = [e(n - d1, b), g]
    rother = rother0 & ok | (rother1 & ok) << W
    rother_b0 = rother & ones * 5  # b = 0: lane (a, 1), one bit up
    rother_b1 = rother ^ rother_b0
    shift = 4 * (n + 1 - half)
    row = []
    for m in held:
        m &= ok
        row += m, m << W
    low = (1 << W) - 1
    for k, plane in enumerate(planes):
        u = plane >> 4 & low  # position d1 + 1 at d1
        u |= u << W
        w = plane >> shift and _mirror(plane >> shift, half)  # position j at d1
        w |= w << W
        row[k] ^= own & u ^ other_a0 & u >> 2 ^ other_a1 & u << 2 ^ rown & w ^ rother_b0 & w >> 1 ^ rother_b1 & w << 1
    rows += _span(row)


def _true_planes(planes: list[int], action: list[tuple[int, int]], width: int) -> list[int]:
    """A cut slice's planes mapped through the cut: plane 2w + g goes to the planes of the bits of action[w][g]."""
    images = [m for pair in action for m in pair]  # images[2w + g] = action[w][g]
    true = [0] * width
    for plane, m in zip(planes, images):
        if plane:
            while m:
                low = m & -m
                true[low.bit_length() - 1] ^= plane
                m ^= low
    return true


def _table_cuts(pres: Presentation, full_jacobi: bool = False) -> Iterator[BracketTable]:
    """The table loop: every slice in one `BracketTable`, from degree 1."""
    by_weight = _relators_by_weight(pres)
    table = BracketTable()
    yield table
    # R[i][a][off[j] + b] is [e(i,a), e(j,b)]; while degree n + 1 is cut,
    # the entries of total degree n + 1 are masks over the split frontier symbols.
    R = table.rows
    off = table.offset
    # survivors[d][s] is the index of the basis element of degree d that
    # symbol s = 2 * parent + generator defines, or -1 if the cut killed s
    survivors: list[list[int]] = [[], []]

    for n in count(1):
        D = len(R[n])
        # the split frontier: the symbol (w, g) is bit w + g * D until the cut
        table.set_action(n, [(1 << w, 1 << w + D) for w in range(D)])
        table.fill(n + 1, 2, split=D)  # no relation row reads row 1

        rows = []

        # alternation: [u, u] = 0 for u of half the new degree
        if (n + 1) % 2 == 0:
            h = (n + 1) // 2
            for a in range(len(R[h])):
                rows.append(R[h][a][off[h] + a])

        # antisymmetry: [x, y] = [y, x]; above degree 2 the Jacobi rows repeat it
        if n == 1:
            rows.append(R[1][0][1] ^ R[1][1][0])

        # Jacobi instances landing in degree n + 1
        if full_jacobi:
            for d1 in range(1, n):
                for d2 in range(d1, n + 1 - d1):
                    d3 = n + 1 - d1 - d2
                    if d3 < d2:
                        continue
                    for a in range(len(R[d1])):
                        for b in range(len(R[d2])):
                            if d2 == d1 and b <= a:
                                continue
                            for c in range(len(R[d3])):
                                if d3 == d2 and c <= b:
                                    continue
                                rows.append(jacobi_sum(R, off, d1, a, d2, b, d3, c))
        else:
            # a row with two generators is zero or repeats one with d1 = 2;
            # below the last split, a row whose [u, g] defines t repeats [t, v] + [v, t],
            # a row of split d1 + 1;
            # a symbol s = 2b + g that defines w = e(j, k) gives [u, w] + [w, u],
            # a cut one F(u; v, g) + [[v, g], u]
            append = rows.append
            for d1 in range(2, n // 2 + 1):
                d2 = n - d1
                j = d2 + 1
                survivor, wrows, col = survivors[j], R[j], off[j]
                vrows, vcol, grows = R[d2], off[d2], R[d1 + 1]
                stop = 2 * len(vrows)
                defines = survivors[d1 + 1] if 2 * d1 + 2 <= n else None
                for a in range(len(R[d1])):
                    symbols = range(2 * a + 2 if d2 == d1 else 0, stop)
                    if defines is not None:
                        tx, ty = defines[2 * a] >= 0, defines[2 * a + 1] >= 0
                        if tx and ty:
                            continue
                        if tx or ty:  # only the symbols of the generator that defines nothing
                            symbols = range(int(tx), stop, 2)
                    urow, ucol = R[d1][a], off[d1] + a
                    for s in symbols:
                        k = survivor[s]
                        if k >= 0:
                            append(urow[col + k] ^ wrows[k][ucol])
                            continue
                        b, g = s >> 1, s & 1
                        c = vcol + b
                        out = urow[c] << g * D  # [[u, v], g]
                        m = urow[g]  # [[u, g], v]
                        while m:
                            low = m & -m
                            out ^= grows[low.bit_length() - 1][c]
                            m ^= low
                        m = vrows[b][g]  # [[v, g], u], over the cut image
                        while m:
                            low = m & -m
                            out ^= wrows[low.bit_length() - 1][ucol]
                            m ^= low
                        append(out)

        # defining relators of the new weight; the last letter meets the
        # frontier symbols through the top degree's action
        rows += [eval_runs(R, r.runs(), n + 1) for r in by_weight.get(n + 1, ())]
        low = (1 << D) - 1  # into symbol order
        defs, _ = _cut(table, n, [_interleave(r & low, r >> D) for r in dict.fromkeys(rows) if r])
        survivor = [-1] * (2 * D)
        for k, (p, g) in enumerate(defs):
            survivor[2 * p + g] = k
        survivors.append(survivor)
        yield table

        # the caller asks for degree n + 2, whose cut reads slice n + 1
        if full_jacobi:
            table.fill(n + 1)
        else:  # the cut slice is antisymmetric: fill the blocks i >= j, mirror the rest
            table.fill(n + 1, (n + 2) // 2)
            table.mirror(n + 1)
