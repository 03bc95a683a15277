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

All brackets live in one `BracketTable`.  To cut degree n + 1, the top
degree's action is set to the frontier symbols themselves and slice n + 1
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
image, so the default mode calls no `jacobi_sum`.  Once the cut is
known, the top degree's action is set to the survivor images.  The slice
is linear in that action, so the image of each frontier entry over the
survivors is the true bracket.  A narrow cut, of at most `NARROW`
symbols, keeps slice n + 1 as the frontier fill left it and builds the
cut's image table of 2^nsym entries, a local of the cut loop; the cut
of degree n + 2, the one later reader, reads the slice through it, since
the loop hands it to each of that cut's fills and to its cut-symbol
rows.  Every cut of R(g, h) with g + h <= 10 is narrow: its degrees past
the first are 1 or 2 wide.  A wider cut refills the slice from the
survivor images, which makes it the true bracket table of degree n + 1;
the refilled slice is antisymmetric, so only its blocks (i, j) with
i >= j are filled and the rest, row 1 aside, are mirrored from them.
The loop, `_cuts`, yields the table after each cut and holds or
refills the slice it just cut only when its caller asks for the next
degree, so the slice of the caller's last degree is neither: no later
cut reads it.  Its two callers live here: `nq_compute` stops it at its
class bound and keeps only the action rows, and `nq_eval` at a word's
weight or at the word's first zero prefix.
`full_jacobi=True` refills every block of every slice and builds every
triple row; it is the cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice

from .algebra import (
    BracketTable,
    Element,
    GradedAlgebra,
    define_layer,
    eval_runs,
    jacobi_sum,
)
from .gf2 import echelonize
from .words import CommutatorWord


# A cut of at most this many frontier symbols keeps its slice in frontier
# form, read through an image table of 2^nsym entries, instead of refilling it.
NARROW = 8


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


def _image_table(action: list[tuple[int, int]]) -> list[int]:
    """The image table of a cut: entry m is the XOR of the survivor images of the split bits in m.

    The split symbol t + g * D is [e(n, t), g], whose image over the
    survivors is ``action[t][g]``, so the table has 2^(2D) entries.
    """
    image = [0]
    for g in (0, 1):
        for row in action:
            image += [m ^ row[g] for m in image]
    return image


def nq_compute(pres: Presentation, class_bound: int, full_jacobi: bool = False) -> GradedAlgebra:
    """Largest graded quotient of the presentation with the given class bound.

    By default Jacobi relations are imposed for triples containing a
    generator; with the defining relators this is enough to cut the next
    degree down exactly (antisymmetry plus generator-triple Jacobi force the
    general identity degree by degree).  `full_jacobi=True` imposes every
    basis triple instead.  Both modes build the relation rows of degree
    n + 1 over the split frontier symbols, [e(n, w), g] at bit w + g * D
    with D = dim n, and hand `echelonize` each distinct nonzero row once,
    interleaved into symbol order s = 2w + g.  The interleaving is a
    bijection on rows, so `echelonize` receives the rows it would receive
    had they been built in symbol order, in the same order.  A degree of
    dimension 0 is cut like any other: from no symbols, so `define_layer`
    returns the empty cut and every later degree is empty too.

    The degrees are cut by `_cuts`, which yields the table after each cut
    and prepares the slice it just cut, held or refilled, only when it is
    asked for the next degree.  `nq_compute` takes class_bound tables from
    it and asks for no more, so the slice of degree class_bound is
    neither held nor refilled: no later cut reads it, and the result
    keeps only the action rows.

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

    The default mode builds each bracket and each relation row once.  The
    six shortcuts below leave every cut, and so every table, unchanged;
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
    first, fifth and sixth shortcuts no reader in the default mode reads
    it.

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
    one shift `fill` makes ([u, v] lies in slice n, read through its image
    table when that slice is held; sixth shortcut).  The third sums [t, v]
    over t in [g, u], the row-1 entry R[1][g][off[d1] + a] of the true
    table; F sums over [u, g] = R[d1][a][g] instead, and these are the same
    mask, because the true table is antisymmetric in degree d1 + 1 <= n;
    so the loop reads no row 1.
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

    A narrow cut keeps its slice in frontier form.  When degree n + 1 is
    cut from nsym <= `NARROW` symbols, slice n + 1 is neither refilled nor
    mirrored; `_image_table` builds the cut's image table, phi[m] the XOR
    of the survivor images of the split bits t + g * D in m.  It is a
    local of the cut loop, not state of the table: the loop hands it to
    the fills of degree n + 2 as their `image` and reads the cut rows'
    [u, v] through it.  Every reader then sees the entry the refill would have
    written:
    - Linearity, both halves.  Each block (i, j) of slice n + 1 with
      i, j >= 2 is, by the fill rule, a sum of action entries [e(n, t), g]
      with coefficients from the slices below (read true: through phi of
      slice n when that one is held, by induction).  The frontier fill
      evaluates it at the split action, where [e(n, t), g] is the bit
      t + g * D, and the refill at the survivor images, where it is the
      image of that bit.  So phi of the frontier entry is the refilled
      entry, in every block the frontier fill computes: the rows i >= 2,
      blocks with i >= j and with i < j alike.  In a block with i < j the
      fill rule gives the transpose the mirror would write, because the
      refilled slice is antisymmetric (second shortcut).
    - The action block.  Block (n, 1) is excluded: after the cut it holds
      the true action rows, the survivor images, never a frontier mask.
      So a reader maps only blocks (i, j) with j >= 2 through phi.
    - The readers.  The cut of degree n + 1 reads, besides the action
      blocks, only slices n and n + 1: the frontier fill reads [u, p] in
      slice n and slice n + 1 itself, a Jacobi row reads [u, v] in slice
      n and the rest in slice n + 1, alternation and the survivors' rows
      read slice n + 1, and the relator rows read only action rows.  So
      slice n + 1 is read once more, by the cut of degree n + 2, through
      phi: the frontier fill's term [u, p] (block (i, j - 1), j - 1 >= 2)
      and the cut row's term [[u, v], g] (v of degree d2 >= 2).  When that
      cut is wide, its refill maps the same [u, p] through phi too, and
      then walks the true action of degree n + 1 as for any other block.
      Later cuts read only its action block, which is true.
    Every cut of R(g, h) with g + h <= 10 has at most 4 symbols (its
    degrees past the first are 1 or 2 wide), so its default run refills
    and mirrors no slice.
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
    the quotient of the class where the loop stopped.
    """
    mask = 0
    for d, (letter, table) in enumerate(zip(word.letters(), _cuts(pres)), 1):
        mask = eval_runs(table.rows, ((letter, 1),), d, mask, d - 1)
        if not mask:
            break
    return _algebra(table, d).element(word.weight, mask)


def _cuts(pres: Presentation, full_jacobi: bool = False) -> Iterator[BracketTable]:
    """The cut loop of `nq_compute` and `nq_eval`: yield the table at degree 1, then after each cut.

    When degree d has been cut, the table holds degrees 1..d and the action
    rows of degrees below d are final; those of degree d are not set.  The
    slice of degree d is held or refilled only when the caller asks for the
    next degree, so a caller that stops at degree c prepares no slice of
    degree c.  The same table is yielded each time and changes as the loop
    goes on.
    """
    by_weight: dict[int, list[CommutatorWord]] = {}
    for r in pres.relators:
        by_weight.setdefault(r.weight, []).append(r)

    table = BracketTable()
    # R[i][a][off[j] + b] is [e(i,a), e(j,b)]; while degree n + 1 is cut,
    # the entries of total degree n + 1 are masks over the split frontier symbols.
    R = table.rows
    off = table.offset
    # survivors[d][s] is the index of the basis element of degree d that
    # symbol s = 2 * parent + generator defines, or -1 if the cut killed s
    survivors: list[list[int]] = [[], []]
    image = None  # the image table of slice n while that slice is held in frontier form
    yield table

    for n in count(1):
        D = len(R[n])
        nsym = 2 * D
        # the split frontier: the symbol (w, g) is bit w + g * D until the cut
        table.set_action(n, [(1 << w, 1 << w + D) for w in range(D)])
        table.fill(n + 1, 2, split=D, image=image)  # no relation row reads row 1

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
            # a symbol s = 2b + g that defines w = e(j, k) gives [u, w] + [w, u],
            # a cut one F(u; v, g) + [[v, g], u]
            append = rows.append
            for d1 in range(2, n // 2 + 1):
                d2 = n - d1
                j = d2 + 1
                survivor, wrows, col = survivors[j], R[j], off[j]
                vrows, vcol, grows = R[d2], off[d2], R[d1 + 1]
                for a in range(len(R[d1])):
                    urow, ucol = R[d1][a], off[d1] + a
                    for s in range(2 * a + 2 if d2 == d1 else 0, 2 * len(vrows)):
                        k = survivor[s]
                        if k >= 0:
                            append(urow[col + k] ^ wrows[k][ucol])
                            continue
                        b, g = s >> 1, s & 1
                        c = vcol + b
                        uv = urow[c] if image is None else image[urow[c]]  # [u, v]
                        out = uv << g * D  # [[u, v], g]
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
        for r in by_weight.get(n + 1, ()):
            rows.append(eval_runs(R, r.runs(), n + 1))

        # each distinct nonzero row, once, in symbol order s = 2w + g
        low = (1 << D) - 1
        rows = [_interleave(r & low, r >> D) for r in dict.fromkeys(rows) if r]
        defs, action = define_layer(nsym, echelonize(rows, nsym))
        table.set_action(n, action)
        table.add_degree(defs)
        survivor = [-1] * nsym
        for k, (p, g) in enumerate(defs):
            survivor[2 * p + g] = k
        survivors.append(survivor)
        yield table

        # the caller asks for degree n + 2, whose cut reads slice n + 1
        if full_jacobi:
            table.fill(n + 1)
        elif nsym <= NARROW:  # keep the frontier slice, read through its image table
            image = _image_table(action)
        else:  # the cut slice is antisymmetric: fill the blocks i >= j, mirror the rest
            table.fill(n + 1, (n + 2) // 2, image=image)
            table.mirror(n + 1)
            image = None  # slice n + 1 is true
