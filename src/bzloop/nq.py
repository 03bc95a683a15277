"""Graded nilpotent quotients of 2-generated presentations over GF(2).

The quotient is built degree by degree.  At each stage the next degree is
presented by frontier symbols [b, x], [b, y] over the current top degree's
basis, and three families of GF(2) relations are imposed: alternation and
antisymmetry of the bracket, Jacobi instances landing in the new degree,
and the defining relators of that weight, whose rows `eval_runs` reads off
the table.  Surviving symbols become the new basis through `define_layer`,
so every basis element keeps a (parent index, generator) definition.

All brackets live in one `BracketTable`.  To cut degree n + 1, the top
degree's action is set to the frontier symbols themselves and the table's
blocks of total degree n + 1 are filled; every relation row is then a
lookup.  Once the cut is known, that slice is re-expressed over the
survivors, which makes it the true bracket table of degree n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    GENERATORS,
    BasisElement,
    BracketTable,
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


def nq_compute(pres: Presentation, class_bound: int, full_jacobi: bool = False) -> GradedAlgebra:
    """Largest graded quotient of the presentation with the given class bound.

    By default Jacobi relations are imposed for triples containing a
    generator; with the defining relators this is enough to cut the next
    degree down exactly (antisymmetry plus generator-triple Jacobi force the
    general identity degree by degree).  `full_jacobi=True` imposes every
    basis triple instead.
    """
    if class_bound < 1:
        raise ValueError("class bound must be at least 1")

    by_weight: dict[int, list[CommutatorWord]] = {}
    for r in pres.relators:
        by_weight.setdefault(r.weight, []).append(r)

    dims = [0, 2]
    basis: list[list[BasisElement]] = [[], list(GENERATORS)]
    table = BracketTable()
    # R[i][a][off[j] + b] is [e(i,a), e(j,b)]; while degree n + 1 is cut,
    # the entries of total degree n + 1 are masks over frontier symbols.
    R = table.rows
    off = table.offset

    for n in range(1, class_bound):
        if dims[n] == 0:
            dims.append(0)
            basis.append([])
            table.add_degree(())  # degree n is empty, so degree n + 1 is too
            continue
        nsym = 2 * dims[n]
        table.set_action(n, [(1 << 2 * w, 2 << 2 * w) for w in range(dims[n])])
        table.ensure(1, n)

        rows = []

        # alternation: [u, u] = 0 for u of half the new degree
        if (n + 1) % 2 == 0:
            h = (n + 1) // 2
            for a in range(dims[h]):
                rows.append(R[h][a][off[h] + a])

        # antisymmetry: [u, v] = [v, u] across all degree splits
        for i in range(1, (n + 1) // 2 + 1):
            j = n + 1 - i
            Ri, Rj, oi, oj = R[i], R[j], off[i], off[j]
            for a in range(dims[i]):
                for b in range(a + 1 if i == j else 0, dims[j]):
                    rows.append(Ri[a][oj + b] ^ Rj[b][oi + a])

        # Jacobi instances landing in degree n + 1
        if full_jacobi:
            for d1 in range(1, n):
                for d2 in range(d1, n + 1 - d1):
                    d3 = n + 1 - d1 - d2
                    if d3 < d2:
                        continue
                    for a in range(dims[d1]):
                        for b in range(dims[d2]):
                            if d2 == d1 and b <= a:
                                continue
                            for c in range(dims[d3]):
                                if d3 == d2 and c <= b:
                                    continue
                                rows.append(jacobi_sum(R, off, d1, a, d2, b, d3, c))
        else:
            for d1 in range(1, n // 2 + 1):
                d2 = n - d1
                for a in range(dims[d1]):
                    for b in range(dims[d2]):
                        if d2 == d1 and b <= a:
                            continue
                        for g in (0, 1):
                            if (d1, a) == (1, g) or (d2, b) == (1, g):
                                continue
                            rows.append(jacobi_sum(R, off, d1, a, d2, b, 1, g))

        # defining relators of the new weight; the last letter meets the
        # frontier symbols through the top degree's action
        for r in by_weight.get(n + 1, ()):
            mask = eval_runs(R, r.runs(), n + 1)
            if mask:
                rows.append(mask)

        rel = echelonize(rows, nsym)
        killed = set(rel.pivots)
        survivors = [s for s in range(nsym) if s not in killed]
        pos = {s: k for k, s in enumerate(survivors)}
        img = [0] * nsym
        for s, k in pos.items():
            img[s] = 1 << k
        for pivot, row in zip(rel.pivots, rel):
            for s in iter_bits(row ^ (1 << pivot)):
                img[pivot] |= 1 << pos[s]
        table.rebase(n + 1, img)

        table.add_degree((s >> 1, s & 1) for s in survivors)
        basis.append(define_layer(n + 1, basis[n], survivors))
        dims.append(len(survivors))

    action_layers = [[(row[0], row[1]) for row in R[d]] for d in range(1, class_bound)]
    action_layers.append([(0, 0)] * dims[class_bound])
    return GradedAlgebra(class_bound, basis[1:], action_layers)
