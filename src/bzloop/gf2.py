"""Linear algebra over GF(2) on bit-packed vectors.

A vector in GF(2)^n is an int whose bit i is coordinate i; addition is XOR.
Echelon bases keep their rows fully reduced with the pivot at the lowest set
bit, which makes reduction a single pass and membership tests, kernels and
span solving cheap.  A basis also keeps the OR of its pivot bits and a
pivot -> row map, so `reduce` visits only the pivots a vector meets:
clearing one pivot with its fully reduced row never sets another.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator


def iter_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class EchelonBasis:
    """Mutable reduced row-echelon basis of a subspace of GF(2)^dim_ambient.

    Rows are fully reduced (each pivot bit occurs in exactly one row) and
    sorted by pivot; the pivot of a row is its lowest set bit.  `_mask` is
    the OR of the pivot bits and `_row_at` maps each pivot to its row.
    """

    __slots__ = ("dim_ambient", "_rows", "pivots", "_mask", "_row_at")

    def __init__(self, dim_ambient: int):
        if dim_ambient < 0:
            raise ValueError("negative ambient dimension")
        self.dim_ambient = dim_ambient
        self._rows: list[int] = []
        self.pivots: list[int] = []
        self._mask = 0
        self._row_at: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def row_bits(self) -> list[int]:
        return list(self._rows)

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v modulo the row space."""
        row_at = self._row_at
        m = v & self._mask
        while m:
            low = m & -m
            v ^= row_at[low.bit_length() - 1]
            m ^= low
        return v

    def add(self, v: int) -> bool:
        """Add a vector to the span; return True if the rank grew."""
        if v >> self.dim_ambient:
            raise ValueError("vector outside the ambient space")
        v = self.reduce(v)
        if v == 0:
            return False
        low = v & -v
        pivot = low.bit_length() - 1
        rows, row_at = self._rows, self._row_at
        for i, row in enumerate(rows):
            if row & low:
                rows[i] = row_at[self.pivots[i]] = row ^ v
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        rows.insert(at, v)
        row_at[pivot] = v
        self._mask |= low
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"EchelonBasis(dim={self.dim_ambient}, rank={self.rank})"


def echelonize(rows: Iterable[int], dim_ambient: int) -> EchelonBasis:
    """Reduced row-echelon basis of the span of the given bitmask rows."""
    basis = EchelonBasis(dim_ambient)
    for row in rows:
        if row:
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
    ker = EchelonBasis(len(images))
    for pivot, row in zip(aug.pivots, aug):
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

