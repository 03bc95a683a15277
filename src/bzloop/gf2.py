"""Linear algebra over GF(2) on bit-packed vectors.

A vector in GF(2)^n is an int whose bit i is coordinate i; addition is XOR.
An echelon basis keeps each row's pivot at its lowest set bit, the OR of
its pivot bits and a pivot -> row map.  `add` only reduces the new vector
and files it under its pivot; the rows are fully reduced and sorted once,
when they or the pivots are next read, so a long run of adds (an echelon
form, a kernel) does no back-elimination.  `reduce` clears the pivots a
vector meets from the lowest up, re-masking after each XOR, and returns the
same canonical representative whether or not the rows are fully reduced.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class EchelonBasis:
    """Mutable reduced row-echelon basis of a subspace of GF(2)^dim_ambient.

    The pivot of a row is its lowest set bit, and no two rows share one.
    `_mask` is the OR of the pivot bits and `_row_at` maps each pivot to
    its row.  Rows may hold other rows' pivot bits until `_settle` fully
    reduces them (each pivot bit in exactly one row) and sorts the pivots;
    `pivots`, `row_bits()` and iteration read the rows settled, in pivot
    order.  `_pivots` is None while rows added since the last settle wait.
    """

    __slots__ = ("dim_ambient", "_mask", "_row_at", "_pivots")

    def __init__(self, dim_ambient: int):
        if dim_ambient < 0:
            raise ValueError("negative ambient dimension")
        self.dim_ambient = dim_ambient
        self._mask = 0
        self._row_at: dict[int, int] = {}
        self._pivots: list[int] | None = []

    @property
    def rank(self) -> int:
        return len(self._row_at)

    @property
    def pivots(self) -> list[int]:
        return self._settle()

    def row_bits(self) -> list[int]:
        row_at = self._row_at
        return [row_at[p] for p in self._settle()]

    def _settle(self) -> list[int]:
        """Fully reduce and sort the rows, once per run of adds; return the pivots."""
        pivots = self._pivots
        if pivots is None:
            row_at, mask = self._row_at, self._mask
            pivots = self._pivots = sorted(row_at)
            # A row holds no bit below its pivot, so the other pivot bits
            # it holds belong to rows already fully reduced.
            for p in reversed(pivots):
                row = row_at[p]
                m = (row & mask) ^ (1 << p)
                while m:
                    low = m & -m
                    row ^= row_at[low.bit_length() - 1]
                    m ^= low
                row_at[p] = row
        return pivots

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v modulo the row space."""
        row_at, mask = self._row_at, self._mask
        m = v & mask
        while m:
            v ^= row_at[(m & -m).bit_length() - 1]
            m = v & mask
        return v

    def add(self, v: int) -> bool:
        """Add a vector to the span; return True if the rank grew."""
        if v >> self.dim_ambient:
            raise ValueError("vector outside the ambient space")
        v = self.reduce(v)
        if v == 0:
            return False
        low = v & -v
        self._row_at[low.bit_length() - 1] = v
        self._mask |= low
        self._pivots = None
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.row_bits())

    def __len__(self) -> int:
        return len(self._row_at)

    def __repr__(self) -> str:
        return f"EchelonBasis(dim={self.dim_ambient}, rank={self.rank})"


def echelonize(rows: Iterable[int], dim_ambient: int) -> EchelonBasis:
    """Reduced row-echelon basis of the span of the given bitmask rows.

    The rows are added in order.  The form depends only on the span, so a
    zero or repeated row, which `EchelonBasis.add` reduces to zero and
    drops, changes nothing; callers with many repeats should drop them
    first, as `nq_compute` does.
    """
    basis = EchelonBasis(dim_ambient)
    for row in rows:
        basis.add(row)
    return basis


def kernel(images: Iterable[int], dim_codomain: int) -> EchelonBasis:
    """Kernel of the GF(2)-linear map sending e_i to images[i].

    The result is an echelon basis inside GF(2)^len(images).  Marker bits
    placed above the codomain track which domain vectors were combined; a
    row whose image part vanished is a kernel element.
    """
    images = list(images)
    aug = EchelonBasis(dim_codomain + len(images))
    for i, im in enumerate(images):
        if im >> dim_codomain:
            raise ValueError("image outside the codomain")
        aug.add(im | (1 << (dim_codomain + i)))
    # A row whose pivot is a marker bit has a zero image part: its marker
    # part is a kernel element.  The other rows have distinct pivots inside
    # the image part, so their image parts are independent and no combination
    # of them is in the kernel.  So the marker rows span the kernel whether
    # or not the basis is fully reduced, and it is read unsettled.
    ker = EchelonBasis(len(images))
    for pivot, row in aug._row_at.items():
        if pivot >= dim_codomain:
            ker.add(row >> dim_codomain)
    return ker


class SpanSolver:
    """Expresses targets over a fixed list of vectors, via marker bits."""

    def __init__(self, vectors: Iterable[int], dim_ambient: int):
        self.vectors = list(vectors)
        self.dim_ambient = dim_ambient
        self._aug = EchelonBasis(dim_ambient + len(self.vectors))
        for i, v in enumerate(self.vectors):
            if v >> dim_ambient:
                raise ValueError("vector outside the ambient space")
            self._aug.add(v | (1 << (dim_ambient + i)))

    def express(self, target: int) -> int | None:
        """Bitmask over vector indices XOR-ing to target, or None."""
        if target >> self.dim_ambient:
            return None
        red = self._aug.reduce(target)
        if red & ((1 << self.dim_ambient) - 1):
            return None
        return red >> self.dim_ambient

