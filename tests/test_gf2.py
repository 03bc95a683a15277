"""Bit-packed GF(2) linear algebra."""

import pytest
from hypothesis import given, strategies as st

from bzloop.gf2 import EchelonBasis, SpanSolver, echelonize, iter_bits, kernel


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_echelon_small():
    b = echelonize([0b110, 0b011, 0b101], 3)
    # the three vectors sum to zero, so the rank is 2
    assert b.rank == 2
    assert b.contains(0b101)
    assert not b.contains(0b001)
    assert b.reduce(0b110) == 0
    # rows are fully reduced: each pivot appears in exactly one row
    for i, p in enumerate(b.pivots):
        assert sum((r >> p) & 1 for r in b.row_bits()) == 1
        assert (b.row_bits()[i] & -b.row_bits()[i]).bit_length() - 1 == p


def test_echelon_add_and_copy():
    b = EchelonBasis(4)
    assert b.add(0b0011)
    assert not b.add(0b0011)
    c = echelonize([0b0011], 4)
    assert c.add(0b0100)
    assert b.rank == 1 and c.rank == 2
    with pytest.raises(ValueError):
        b.add(0b10000)


def test_kernel_small():
    # e0, e1 -> same image: kernel is spanned by e0 + e1
    ker = kernel([0b1, 0b1], 1)
    assert ker.rank == 1
    assert ker.row_bits() == [0b11]
    assert kernel([0b01, 0b10], 2).rank == 0
    with pytest.raises(ValueError):
        kernel([0b10], 1)


def test_span_solver():
    vecs = [0b011, 0b110]
    s = SpanSolver(vecs, 3)
    assert s.express(0b101) == 0b11
    assert s.express(0b011) == 0b01
    assert s.express(0b001) is None
    assert s.express(0b1000) is None
    assert s.express(0b110) == 0b10


_vectors = st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=14)


@given(_vectors)
def test_echelon_spans_inputs(rows):
    b = echelonize(rows, 12)
    for r in rows:
        assert b.contains(r)
    # reduce is a projection: reducing a reduced vector changes nothing
    for r in rows:
        assert b.reduce(b.reduce(r)) == b.reduce(r)


@given(_vectors)
def test_rank_nullity(images):
    ker = kernel(images, 12)
    assert ker.rank + echelonize(images, 12).rank == len(images)
    for row in ker.row_bits():
        acc = 0
        for i in iter_bits(row):
            acc ^= images[i]
        assert acc == 0


def _reference_kernel(images: list[int]) -> list[int]:
    """Every combination of the images that sums to zero, by brute force."""
    out = []
    for combo in range(1 << len(images)):
        acc = 0
        for i in iter_bits(combo):
            acc ^= images[i]
        if not acc:
            out.append(combo)
    return out


@given(st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=10))
def test_kernel_is_the_reduced_basis_of_the_reference_kernel(images):
    """`kernel` reads its augmented basis unsettled; its settled rows are those of the brute-force kernel."""
    assert kernel(images, 6).row_bits() == echelonize(_reference_kernel(images), len(images)).row_bits()


@given(_vectors, st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_express_reproduces_target(vecs, target):
    mask = SpanSolver(vecs, 12).express(target)
    if mask is None:
        assert not echelonize(vecs, 12).contains(target)
    else:
        acc = 0
        for i in iter_bits(mask):
            acc ^= vecs[i]
        assert acc == target
