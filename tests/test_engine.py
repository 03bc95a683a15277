"""Graded algebra engine: nilpotent quotients, brackets, centers, quotients."""

import random
import sys
from itertools import combinations, islice
from types import SimpleNamespace
from unittest import mock

import paths_agree
import pytest

from bzloop import nq
from bzloop.algebra import (
    GENERATORS,
    BracketTable,
    GradedAlgebra,
    GradedSubspaceFamily,
    define_layer,
    eval_runs,
    graded_center,
    jacobi_check,
    jacobi_sum,
    quotient,
    second_center,
)
from bzloop.bl import centralizer_sequence, construct_bl, presentation_R
from bzloop.gf2 import EchelonBasis, echelonize, kernel
from bzloop.nq import Presentation, _algebra, _cuts, _interleave, _Masks, _mirror, _read, _table_cuts, nq_compute
from bzloop.oracle import ORACLE_MAX_CLASS, free_nq_oracle, witt_dimension
from bzloop.words import X, Y, Z, make_word, parse_word, word_from_letters


def _table_quotient(pres: Presentation, bound: int, full_jacobi: bool = False) -> GradedAlgebra:
    """`nq_compute` on the table loop alone."""
    return _algebra(next(islice(_table_cuts(pres, full_jacobi), bound - 1, None)), bound)


@pytest.fixture(scope="module")
def B8():
    return construct_bl(2, 1, 8)


@pytest.fixture(scope="module")
def M8():
    return nq_compute(presentation_R(2, 1), 8)


# -- free quotients ----------------------------------------------------------


def test_free_dims_match_witt():
    free = nq_compute(Presentation(()), 10)
    assert free.dims[1:] == tuple(witt_dimension(d) for d in range(1, 11))


def test_free_dims_full_jacobi():
    free = nq_compute(Presentation(()), 8, full_jacobi=True)
    assert free.dims[1:] == (2, 1, 2, 3, 6, 9, 18, 30)


def test_presentation_dims_frozen():
    M = nq_compute(presentation_R(2, 1), 20)
    assert M.dims[1:] == (2, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 2)


def test_jacobi_modes_agree():
    pres = presentation_R(2, 1)
    assert nq_compute(pres, 12) == nq_compute(pres, 12, full_jacobi=True)


def test_relator_validation():
    with pytest.raises(TypeError):
        Presentation(("y x y",))
    with pytest.raises(ValueError):
        Presentation((make_word(Y),))


def _random_presentation(seed: int) -> Presentation:
    """1-3 relators of length 2-7 over the letters x, y, z."""
    rng = random.Random(seed)
    return Presentation(
        word_from_letters(rng.choice((X, Y, Z)) for _ in range(rng.randint(2, 7)))
        for _ in range(rng.randint(1, 3))
    )


def _free_killed_at(t: int) -> Presentation:
    """The free algebra's degree-t basis words as relators: every degree from t up is empty."""
    return Presentation(map(parse_word, nq_compute(Presentation(()), t).labels[t]))


# degree 5 dies after a cut of 6 symbols, degree 8 after one of 36, both cut by the
# table loop (the random cases die at degree 2 if at all)
ANTISYMMETRY_CASES = (
    [("R(2,1)", presentation_R(2, 1), 48), ("R(3,1)", presentation_R(3, 1), 96)]
    + [("R(2,2)", presentation_R(2, 2), 100), ("free", Presentation(()), 10)]
    + [(f"free killed at {t}", _free_killed_at(t), 14) for t in (5, 8)]
    + [(f"random #{seed}", _random_presentation(seed), 12) for seed in range(30)]
)


def _assert_antisymmetric(A: GradedAlgebra) -> None:
    bound = A.class_bound
    table = A.bracket_table()
    rows, offset = table.rows, table.offset
    for i in range(1, bound):
        for j in range(i, bound - i + 1):
            for a in range(A.dim(i)):
                for b in range(A.dim(j)):
                    assert rows[i][a][offset[j] + b] == rows[j][b][offset[i] + a], (i, a, j, b)


@pytest.mark.parametrize("name,pres,bound", ANTISYMMETRY_CASES, ids=[c[0] for c in ANTISYMMETRY_CASES])
def test_nq_tables_are_antisymmetric(name, pres, bound):
    """nq_compute imposes antisymmetry only in degree 2; every table must still be antisymmetric."""
    A = nq_compute(pres, bound)
    F = nq_compute(pres, bound, full_jacobi=True)
    assert A == F
    _assert_antisymmetric(A)
    _assert_antisymmetric(F)
    if bound <= ORACLE_MAX_CLASS:
        assert A.dims == free_nq_oracle(pres.relators, bound)


@pytest.mark.parametrize("name,pres,bound", ANTISYMMETRY_CASES, ids=[c[0] for c in ANTISYMMETRY_CASES])
def test_nq_is_the_truncation_of_a_higher_class(name, pres, bound):
    """nq_compute does not refill its last cut slice; the table is still the truncation of class bound + 2.

    At bound + 2 the slice of degree bound is refilled over its survivors and
    read for two more cuts, so the basis, every action row below the top
    degree (those of degree bound - 1 carry the top-degree masks) and the
    zero top rows must all agree.
    """
    A = nq_compute(pres, bound)
    deeper = nq_compute(pres, bound + 2)
    assert A.basis == deeper.basis[: bound + 1]
    assert A.action[:bound] == deeper.action[:bound]
    assert A.action[bound] == ((0, 0),) * A.dim(bound)


def _visited_and_cut_rows(A: GradedAlgebra) -> tuple[int, int]:
    """(rows the default Jacobi loop visits, those whose symbol was cut), from A's definitions.

    The row J(e(d1, a), e(d2, b), g) has the symbol s = 2b + g of degree
    d2 + 1; s is cut unless some element of that degree is defined by it.
    """
    dims = A.dims
    visited = cut = 0
    for n in range(1, A.class_bound):
        if dims[n] == 0:
            break
        for d1 in range(2, n // 2 + 1):
            d2 = n - d1
            defined = {2 * p + g for p, g in A.basis[d2 + 1]}
            for a in range(dims[d1]):
                symbols = _visited_symbols(A.basis, n, d1, a)
                visited += len(symbols)
                cut += sum(s not in defined for s in symbols)
    return visited, cut


def _visited_symbols(basis, n: int, d1: int, a: int) -> list[int]:
    """The symbols s = 2b + g the default Jacobi loop visits for u = e(d1, a) when degree n + 1 is cut.

    With d2 = n - d1, a symbol of generator g is skipped when [u, g]
    defines a basis element of degree d1 + 1 and 2 * d1 + 2 <= n: the row
    repeats a pair row of split d1 + 1.
    """
    d2 = n - d1
    symbols = range(2 * a + 2 if d2 == d1 else 0, 2 * len(basis[d2]))
    if 2 * d1 + 2 > n:
        return list(symbols)
    defines = {g for p, g in basis[d1 + 1] if p == a}
    return [s for s in symbols if s & 1 not in defines]


CALL_COUNT_NAMES = ("R(2,1)", "free", "random #0", "random #1", "random #4", "random #5", "random #24")
CALL_COUNT_CASES = [c for c in ANTISYMMETRY_CASES if c[0] in CALL_COUNT_NAMES]


@pytest.mark.parametrize("name,pres,bound", CALL_COUNT_CASES, ids=[c[0] for c in CALL_COUNT_CASES])
def test_nq_default_mode_calls_no_jacobi_sum(name, pres, bound):
    """The default loop builds every Jacobi row in place; only `full_jacobi` mode calls `jacobi_sum`."""
    with mock.patch("bzloop.nq.jacobi_sum", wraps=jacobi_sum) as counted:
        nq_compute(pres, bound)
        _table_quotient(pres, bound)
    assert counted.call_count == 0
    with mock.patch("bzloop.nq.jacobi_sum", wraps=jacobi_sum) as counted:
        nq_compute(pres, bound, full_jacobi=True)
    assert counted.call_count > 0


def _jacobi_sum_default_rows(table, pres: Presentation, basis) -> tuple[list[int], list[int]]:
    """The rows of the degree being cut that the default mode hands `echelonize`, every Jacobi row a `jacobi_sum`.

    `table` holds the true slices below n + 1 and the true row 1, and slice
    n + 1 over the split symbols; `basis` holds the definitions of every
    degree.  The rows are built in the default mode's order, made distinct
    and nonzero, and interleaved into symbol order.  Also returned: the
    `jacobi_sum` of every triple the loop skips because [u, g] defines an
    element, interleaved the same way.
    """
    R, off = table.rows, table.offset
    n = len(R) - 1
    dims = [len(layer) for layer in R]
    rows = []
    if (n + 1) % 2 == 0:
        h = (n + 1) // 2
        rows += [R[h][a][off[h] + a] for a in range(dims[h])]
    if n == 1:
        rows.append(R[1][0][1] ^ R[1][1][0])
    skipped = []
    for d1 in range(2, n // 2 + 1):
        d2 = n - d1
        for a in range(dims[d1]):
            visited = set(_visited_symbols(basis, n, d1, a))
            for s in range(2 * a + 2 if d2 == d1 else 0, 2 * dims[d2]):
                row = jacobi_sum(R, off, d1, a, d2, s >> 1, 1, s & 1)
                (rows if s in visited else skipped).append(row)
    rows += [eval_runs(R, r.runs(), n + 1) for r in pres.relators if r.weight == n + 1]
    low = (1 << dims[n]) - 1

    def symbol_order(r):
        return _interleave(r & low, r >> dims[n])

    return [symbol_order(r) for r in dict.fromkeys(rows) if r], [symbol_order(r) for r in skipped]


@pytest.mark.parametrize("name,pres,bound", CALL_COUNT_CASES, ids=[c[0] for c in CALL_COUNT_CASES])
def test_nq_default_rows_are_the_jacobi_sums(name, pres, bound):
    """At each cut `echelonize` receives the rows `jacobi_sum` gives over the same frontier slice, in order.

    The table loop's own table holds no row 1 past the action, so the sums
    read the lower slices and row 1 from the returned algebra's table and
    slice n + 1 from a copy taken at the cut.  The inline rows of cut
    symbols are then checked on tables where some symbols are cut and some
    survive.  Every triple the loop skips, because its [u, g] defines an
    element, has a Jacobi sum that is 0 or one of the rows of the same cut
    (sixth shortcut of `nq_compute`).
    """
    fill = BracketTable.fill
    frontier = []

    def recording_fill(table, s, lowest=1, split=0):
        if split:
            frontier.append(table)
        fill(table, s, lowest, split)

    cuts = []

    def recording_echelonize(rows, nsym):
        table = frontier[-1]
        cuts.append((rows, [[list(row) for row in layer] for layer in table.rows], list(table.offset)))
        return echelonize(rows, nsym)

    with mock.patch.object(BracketTable, "fill", recording_fill), mock.patch(
        "bzloop.nq.echelonize", recording_echelonize
    ):
        A = _table_quotient(pres, bound)
    true = A.bracket_table().rows
    skips = 0
    for rows, cut, off in cuts:
        n = len(cut) - 1
        # slices below n + 1 from the true table, slice n + 1 from the cut's copy
        mixed = [[]] + [
            [t[: off[n + 1 - i]] + c[off[n + 1 - i] :] for t, c in zip(true[i], cut[i])] for i in range(1, n + 1)
        ]
        built, skipped = _jacobi_sum_default_rows(SimpleNamespace(rows=mixed, offset=off), pres, A.basis)
        assert rows == built, f"degree {n + 1}"
        # a skipped row is 0 or repeats a row the loop builds at the same cut
        assert all(not r or r in built for r in skipped), f"degree {n + 1}"
        skips += len(skipped)
    assert [len(cut) for _, cut, _ in cuts] == [n + 1 for n in range(1, bound) if A.dim(n)]
    visited, cut = _visited_and_cut_rows(A)
    assert 0 < cut < visited and skips > 0


NARROW_CASES = [(2, 1, 48), (3, 1, 96)]


@pytest.mark.parametrize("g,h,bound", NARROW_CASES, ids=[f"R({g},{h})@{c}" for g, h, c in NARROW_CASES])
def test_nq_refills_no_narrow_slice(g, h, bound):
    """Every cut of R(g, h) has at most 4 symbols: the default mode fills no table slice past slice 2 and mirrors none.

    The table loop fills slice 2 to cut degree 2, and the packed loop cuts
    every later degree off its planes; `full_jacobi` still fills every
    frontier slice and refills every slice below the last.
    """
    fill, mirror = BracketTable.fill, BracketTable.mirror
    calls = []

    def recording_fill(table, s, lowest=1, split=0):
        calls.append(("frontier" if split else "fill", s))
        fill(table, s, lowest, split)

    def recording_mirror(table, s):
        calls.append(("mirror", s))
        mirror(table, s)

    pres = presentation_R(g, h)
    with mock.patch.object(BracketTable, "fill", recording_fill), mock.patch.object(
        BracketTable, "mirror", recording_mirror
    ):
        A = nq_compute(pres, bound)
        assert calls == [("frontier", 2)]
        calls.clear()
        F = nq_compute(pres, bound, full_jacobi=True)
    assert A == F
    assert max(A.dims[1:]) <= 2
    assert calls == [c for s in range(2, bound) for c in (("frontier", s), ("fill", s))] + [("frontier", bound)]


# R(2, 1) is packed from degree 3 on; the two wide presentations hand over to the table loop
STEPPER_CASES = [("R(2,1)", presentation_R(2, 1), 48)] + [
    (name, Presentation(map(parse_word, name.split("; "))), 12)
    for name in ("y^2; x^2 y^3 z; x z y", "z y x; y x y z^3 x; y^2")
]


@pytest.mark.parametrize("full_jacobi", [False, True], ids=["default", "full_jacobi"])
@pytest.mark.parametrize("name,pres,bound", STEPPER_CASES, ids=[c[0] for c in STEPPER_CASES])
def test_each_table_the_cut_loop_yields_is_the_quotient_of_its_degree(name, pres, bound, full_jacobi):
    """The table `_cuts` yields at degree d gives `nq_compute(pres, d)`, for every d up to the bound."""
    for d, table in zip(range(1, bound + 1), _cuts(pres, full_jacobi)):
        assert _algebra(table, d) == nq_compute(pres, d, full_jacobi), d


def test_nq_prepares_no_slice_of_its_top_degree():
    """A run of the table loop to class 48 refills and mirrors the slices of degrees 2 to 47 only.

    The cut loop refills a slice only when its caller asks for the next
    degree, and `nq_compute` asks for none past its class bound.
    """
    fill, mirror = BracketTable.fill, BracketTable.mirror
    calls = []

    def recording_fill(table, s, lowest=1, split=0):
        if not split:
            calls.append(("refill", s))
        fill(table, s, lowest, split)

    def recording_mirror(table, s):
        calls.append(("mirror", s))
        mirror(table, s)

    with mock.patch.object(BracketTable, "fill", recording_fill), mock.patch.object(
        BracketTable, "mirror", recording_mirror
    ):
        _table_quotient(presentation_R(2, 1), 48)
    assert calls == [c for s in range(2, 48) for c in (("refill", s), ("mirror", s))]


SHIFT_CASES = [c for c in ANTISYMMETRY_CASES if c[0] in ("R(2,1)", "free") or c[0].startswith("random")]


@pytest.mark.parametrize("name,pres,bound", SHIFT_CASES, ids=[c[0] for c in SHIFT_CASES])
def test_frontier_shift_equals_the_generic_loop(name, pres, bound):
    """Each frontier slice filled by the shift rule equals the bit-by-bit fill over the same split action."""
    fill = BracketTable.fill
    checked = []

    def checked_fill(table, s, lowest=1, split=0):
        fill(table, s, lowest, split)
        if not split:
            return

        def snapshot():
            return [[list(row) for row in table.rows[i]] for i in range(lowest, s - 1)]

        shifted = snapshot()
        fill(table, s, lowest)  # the same split action, read bit by bit
        assert snapshot() == shifted, f"slice {s}"
        checked.append(s)

    with mock.patch.object(BracketTable, "fill", checked_fill):
        A = _table_quotient(pres, bound)
    assert checked == [n + 1 for n in range(1, bound) if A.dim(n)]


def _interleave_reference(lo: int, hi: int, width: int) -> int:
    out = 0
    for i in range(width):
        out |= (lo >> i & 1) << 2 * i | (hi >> i & 1) << 2 * i + 1
    return out


@pytest.fixture
def int_str_limit_640():
    """The smallest limit on int-to-string digits, so a base-10 conversion of 5000 bits raises."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 5000])
def test_interleave_matches_the_bitwise_reference(width, int_str_limit_640):
    rng = random.Random(width)
    ones = (1 << width) - 1
    pairs = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(20)]
    pairs += [(0, 0), (0, ones), (ones, 0), (ones, ones), (0, rng.getrandbits(width)), (rng.getrandbits(width), 0)]
    for lo, hi in pairs:
        got = _interleave(lo, hi)
        want = _interleave_reference(lo, hi, width)
        assert got == want, f"width {width}: {format(lo, 'x')}, {format(hi, 'x')}"


# -- the packed loop ----------------------------------------------------------


def _lanes_reference(planes: list[int], positions: int) -> dict[tuple[int, int, int], int]:
    """Bit k of the entry of family f at position i, for each (i, f, k), read one binary digit at a time."""
    digits = [format(plane, "b").zfill(4 * positions)[::-1] for plane in planes]
    return {(i, f, k): int(d[4 * i + f]) for i in range(positions) for f in range(4) for k, d in enumerate(digits)}


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 5000])
def test_mirror_and_read_match_the_bitwise_reference(width, int_str_limit_640):
    """A lane plane of `width` positions: the mirror sends family (a, b) at i to (b, a) at width - 1 - i."""
    rng = random.Random(width)
    ones = (1 << 4 * width) - 1
    for planes in [[rng.getrandbits(4 * width) for _ in range(4)] for _ in range(2)] + [[0, ones, 1, ones ^ 1]]:
        want = _lanes_reference(planes, width)
        got = {(i, f, k): _read(planes, 4 * i + f) >> k & 1 for i in range(width) for f in range(4) for k in range(4)}
        assert got == want, f"width {width}: read"
        mirrored = _lanes_reference([_mirror(plane, width - 1) for plane in planes], width)
        for (i, f, k), bit in want.items():
            assert mirrored[width - 1 - i, 2 * (f & 1) + (f >> 1), k] == bit, f"width {width}: mirror of {(i, f, k)}"


@pytest.mark.parametrize("g,h,bound", [(2, 1, 130), (4, 1, 200), (3, 2, 160)])
def test_the_lane_masks_match_the_bitwise_reference(g, h, bound):
    """Each mask of `_Masks`, built a degree at a time, holds in each lane what its docstring says of that family.

    The masks are replayed over M up to `bound` as the packed loop builds
    them, then compared lane by lane with the definitions and the action.
    """
    M = nq_compute(presentation_R(g, h), bound)
    dims, basis, action = M.dims, M.basis, M.action
    n = bound - 1
    masks = _Masks()
    for d in range(1, n):
        masks.add_row(d, dims[d + 1], action[d])
        masks.add_column(basis[d + 1], action[d])
    got = {name: getattr(masks, name) for name in ("rows", "cols", "same", "gen")}
    got.update({f"{name}{k}": getattr(masks, name)[k] for name in ("own", "other", "rown", "rother") for k in (0, 1)})
    want = dict.fromkeys(got, 0)
    for i in range(n + 1):
        for f in range(4):
            a, b = f >> 1, f & 1
            bit = 1 << 4 * i + f
            # by row degree i: the widths of degrees 2 .. n, the action of degrees 1 .. n - 1
            want["rows"] |= bit * (2 <= i <= n and a < dims[i])
            if 1 <= i < n and a < dims[i]:
                for k in (0, 1):
                    want[f"own{k}"] |= bit * (action[i][a][k] >> a & 1)
                    want[f"other{k}"] |= bit * (action[i][a][k] >> 1 - a & 1)
            # by column degree j = n + 1 - i, 2 .. n, and the action of degree j - 1
            j = n + 1 - i
            if 2 <= j <= n and b < dims[j]:
                p, gen = basis[j][b]
                want["cols"] |= bit
                want["same"] |= bit * (p == b)
                want["gen"] |= bit * gen
            if 1 <= j - 1 < n and b < dims[j - 1]:
                for k in (0, 1):
                    want[f"rown{k}"] |= bit * (action[j - 1][b][k] >> b & 1)
                    want[f"rother{k}"] |= bit * (action[j - 1][b][k] >> 1 - b & 1)
    assert got == want


def _without_relator(g: int, h: int, weight: int) -> Presentation:
    """R(g, h) without its relator of the given weight: 1 or 2 wide below that degree, wider from it on."""
    relators = presentation_R(g, h).relators
    return Presentation(r for r in relators if r.weight != weight)


# degree 7 of the first is 4 wide: the packed loop cuts degrees 3 to 7 and hands over;
# degree 69 of the second is 3 wide: the packed loop cuts degrees 3 to 69 and hands over
HANDOVER_CASES = [
    ("y^2; x^2 y^3 z; x z y", Presentation(map(parse_word, ["y^2", "x^2 y^3 z", "x z y"])), 12),
    ("R(4,1) without its weight-69 relator", _without_relator(4, 1, 69), 80),
]
# the desk pairs at m + 2d, one ladder rung, the two handovers, and R(2, 1) with
# degree 12, spanned by y x^3 y x^2 y x^3 y, killed: its packed loop cuts only
# empty degrees (the word is spelled out, so collecting runs no cut loop)
PATH_CASES = (
    paths_agree.r_cases(4)
    + [("R(4,1)@192", presentation_R(4, 1), 192)]
    + HANDOVER_CASES
    + [
        (
            "R(2,1) with degree 12 killed",
            Presentation(presentation_R(2, 1).relators + (parse_word("y x^3 y x^2 y x^3 y"),)),
            70,
        )
    ]
)


@pytest.mark.parametrize("name,pres,bound", PATH_CASES, ids=[c[0] for c in PATH_CASES])
def test_the_packed_the_table_and_the_default_loop_agree(name, pres, bound):
    """The fast cases of tests/paths_agree.py: the two loops give the same quotient, byte for byte."""
    assert paths_agree.agree(pres, bound) is None
    if name.endswith("killed"):
        assert nq_compute(pres, bound).dims[12:] == (0,) * (bound - 11)


def test_the_packed_loop_hands_over_at_its_first_wide_cut():
    """The packed loop fills slices up to its first cut wider than 2, then the table loop goes on."""
    name, pres, bound = HANDOVER_CASES[0]
    fill_planes, unpack = nq._fill_planes, nq._unpack
    filled, unpacked = [], []

    def recording_fill(n, *args):
        filled.append(n)
        return fill_planes(n, *args)

    def recording_unpack(table, planes, n):
        unpacked.append(n)
        unpack(table, planes, n)

    with mock.patch.object(nq, "_fill_planes", recording_fill), mock.patch.object(nq, "_unpack", recording_unpack):
        A = nq_compute(pres, bound)
    assert A == _table_quotient(pres, bound)
    wide = min(d for d in range(1, bound + 1) if A.dim(d) > 2)
    assert wide == 7
    assert filled == list(range(2, wide))  # the cuts of degrees 3 .. 7
    assert unpacked == [wide - 1]


def test_the_default_loop_packs_from_degree_3_and_hands_over_at_its_first_wide_cut():
    name, pres, bound = HANDOVER_CASES[1]
    unpack = nq._unpack
    calls = []

    def recording_unpack(table, planes, n):
        calls.append(("unpack", n + 1))
        unpack(table, planes, n)

    with mock.patch.object(nq, "_unpack", recording_unpack):
        A = nq_compute(pres, bound)
    assert A == _table_quotient(pres, bound)
    assert calls == [("unpack", 69)]
    assert max(A.dims[:69]) == 2 and A.dim(69) == 3


@pytest.mark.parametrize("name,pres,bound", HANDOVER_CASES, ids=[c[0] for c in HANDOVER_CASES])
def test_the_hand_over_leaves_the_table_loop_a_true_slice(name, pres, bound):
    """After the hand-over, rows 2 .. n - 1 of the table's slice n + 1 are the true brackets of the returned algebra."""
    unpack = nq._unpack
    slices = []

    def recording_unpack(table, planes, n):
        unpack(table, planes, n)
        slices.append((n + 1, _table_frontiers(table, n + 1, 2)))

    with mock.patch.object(nq, "_unpack", recording_unpack):
        A = nq_compute(pres, bound)
    [(s, entries)] = slices
    assert entries == _table_frontiers(A.bracket_table(), s, 2)
    assert any(entries.values())


def _table_frontiers(table, s, lowest):
    """The entries (i, a, b) of the table's slice s, rows `lowest` .. s - 2."""
    R, off = table.rows, table.offset
    return {
        (i, a, b): row[off[s - i] + b]
        for i in range(lowest, s - 1)
        for a, row in enumerate(R[i])
        for b in range(len(R[s - i]))
    }


def _packed_frontiers(R, planes, s):
    """The entries (i, a, b) of a packed slice s, positions 2 .. s - 2, read from its lanes in the table loop's order.

    Plane 2w + g holds the bit the table loop keeps at w + g * D; the entry
    of family (a, b) at position i is bit 4i + 2a + b of the planes.
    """
    split = planes[0::2] + planes[1::2]
    return {
        (i, a, b): _read(split, 4 * i + 2 * a + b)
        for i in range(2, s - 1)
        for a in range(len(R[i]))
        for b in range(len(R[s - i]))
    }


FRONTIER_CASES = SHIFT_CASES + [("R(3,1)", presentation_R(3, 1), 96), ("R(2,2)", presentation_R(2, 2), 100)]


@pytest.mark.parametrize("name,pres,bound", FRONTIER_CASES, ids=[c[0] for c in FRONTIER_CASES])
def test_the_packed_planes_hold_the_table_loops_frontier_entries(name, pres, bound):
    """Each frontier slice the packed loop fills holds, bit for bit, the entries the table loop's split fill computes.

    Compared over every position 2 .. n - 1 of slice n + 1, every row and
    column element, at every cut the packed loop makes before it hands over.
    """
    fill, fill_planes = BracketTable.fill, nq._fill_planes
    table_slices, packed_slices = {}, {}

    def recording_fill(table, s, lowest=1, split=0):
        fill(table, s, lowest, split)
        if split:
            table_slices[s] = _table_frontiers(table, s, lowest)

    def recording_fill_planes(n, R, *args):
        planes = fill_planes(n, R, *args)
        packed_slices[n + 1] = _packed_frontiers(R, planes, n + 1)
        return planes

    with mock.patch.object(BracketTable, "fill", recording_fill):
        A = _table_quotient(pres, bound)
    with mock.patch.object(nq, "_fill_planes", recording_fill_planes):
        P = nq_compute(pres, bound)
    for s, entries in sorted(packed_slices.items()):
        assert entries == table_slices[s], f"slice {s}"
    assert P == A
    wide = min([d for d in range(1, bound + 1) if A.dim(d) > 2] + [bound])
    assert sorted(packed_slices) == [n + 1 for n in range(2, wide) if A.dim(n)]


@pytest.mark.parametrize("name,pres,bound", CALL_COUNT_CASES, ids=[c[0] for c in CALL_COUNT_CASES])
def test_the_packed_rows_span_the_table_loops_rows(name, pres, bound):
    """At every cut the packed loop hands `_narrow_cut` rows with the same span as the table loop's Jacobi sums.

    The table loop's rows are the Jacobi sums (`test_nq_default_rows_are_the_jacobi_sums`),
    and equal spans give equal reduced echelon bases, so the narrow
    table, which `define_layer` fills, holds the same cut.  The cuts the
    table loop makes in the default loop, degree 2 and any after the
    hand-over, are recorded at `echelonize` in both runs.
    """
    nq._narrow_table()  # its echelon forms are not cuts
    narrow_cut = nq._narrow_cut
    spans = {}
    for name, run in (("table", _table_quotient), ("packed", nq_compute)):
        bases = spans[name] = []

        def recording_echelonize(rows, nsym):
            basis = echelonize(rows, nsym)
            bases.append((nsym, basis.row_bits()))
            return basis

        def recording_narrow_cut(table, n, rows):
            nsym = 2 * len(table.rows[n])
            bases.append((nsym, echelonize(rows, nsym).row_bits()))
            return narrow_cut(table, n, rows)

        with mock.patch("bzloop.nq.echelonize", recording_echelonize), mock.patch.object(
            nq, "_narrow_cut", recording_narrow_cut
        ):
            run(pres, bound)
    assert spans["packed"] == spans["table"]
    assert len(spans["packed"]) == bound - 1


def test_the_narrow_table_has_the_67_subspaces_of_gf2_4():
    """The table's states are the 67 subspaces of GF(2)^4; the rows below 4 reach the 5 of GF(2)^2.

    GF(2)^4 has 1, 15, 35, 15 and 1 subspaces of dimension 0 to 4.
    """
    add, cuts = nq._narrow_table()
    assert len(add) == 67
    assert all(len(row) == 16 for row in add)
    reached, todo = {0}, [0]
    while todo:
        for state in add[todo.pop()][:4]:
            if state not in reached:
                reached.add(state)
                todo.append(state)
    assert len(reached) == 5
    assert [sum(cut is not None for cut in cuts[nsym]) for nsym in (0, 2, 4)] == [1, 5, 67]


@pytest.mark.parametrize("nsym", [0, 2, 4])
def test_the_narrow_cut_is_the_echelon_cut_of_its_rows(nsym):
    """For every set of at most 4 distinct rows below 2^nsym, in two orders, `_narrow_cut` makes the echelon cut.

    The cut is that of `define_layer(nsym, echelonize(rows, nsym))`, on a
    table whose degree n has nsym / 2 elements: the new degree's
    definitions and the action rows of degree n.
    """
    for size in range(5):
        for rows in combinations(range(1 << nsym), size):
            defs, action = define_layer(nsym, echelonize(rows, nsym))
            for order in (rows, rows[::-1]):
                table = BracketTable()
                if nsym < 4:
                    table.add_degree([(0, 1)] * (nsym // 2))
                n = len(table.rows) - 1
                got = nq._narrow_cut(table, n, list(order))
                assert got == (tuple(defs), tuple(action)), order
                assert table.defs[-1] == defs
                assert [tuple(row) for row in table.rows[n]] == action


@pytest.mark.parametrize("g,h,bound", [(2, 1, 48), (5, 1, 384)], ids=["R(2,1)@48", "R(5,1)@384"])
def test_the_packed_loop_makes_no_echelon_basis(g, h, bound):
    """Once the narrow table is built, the packed loop cuts every degree from it: no `echelonize`, no `EchelonBasis`.

    The table loop cuts degree 2 by `echelonize`; every later degree of
    these presentations is at most 2 wide, so the packed loop cuts it.
    """
    nq._narrow_table()
    calls = []

    def recording(name, real):
        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return record

    cuts = _cuts(presentation_R(g, h))
    next(islice(cuts, 1, None))  # degree 2, cut by the table loop
    with mock.patch("bzloop.nq.echelonize", recording("echelonize", echelonize)), mock.patch.object(
        EchelonBasis, "add", recording("add", EchelonBasis.add)
    ), mock.patch.object(EchelonBasis, "__init__", recording("EchelonBasis", EchelonBasis.__init__)), mock.patch.object(
        nq, "_narrow_cut", recording("_narrow_cut", nq._narrow_cut)
    ):
        A = _algebra(next(islice(cuts, bound - 3, None)), bound)
    assert calls == ["_narrow_cut"] * (bound - 2)
    assert max(A.dims) <= 2


@pytest.mark.parametrize("g,h,bound", NARROW_CASES, ids=[f"R({g},{h})@{c}" for g, h, c in NARROW_CASES])
def test_the_packed_loop_fills_no_table_slice(g, h, bound):
    """On R(g, h) the packed loop never fills or mirrors a table slice: its slices are planes."""
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)

        return record

    pres = presentation_R(g, h)
    cuts = _cuts(pres)
    next(islice(cuts, 1, None))  # degree 2, cut by the table loop
    with mock.patch.object(BracketTable, "fill", refuse("fill")), mock.patch.object(
        BracketTable, "mirror", refuse("mirror")
    ):
        A = _algebra(next(islice(cuts, bound - 3, None)), bound)
    assert calls == []
    assert A == _table_quotient(pres, bound)


def test_the_packed_loop_maps_no_slice_of_its_top_degree():
    """Run to class 48, the packed loop maps the slices of degrees 2 to 47 through their cuts, and not 48.

    Slice 2 comes from the table loop, with its table; to 192 on R(4,1) it
    likewise maps the slices of degrees 2 to 191.
    """
    true_planes = nq._true_planes
    mapped = []

    def recording(planes, action, width):
        mapped.append(planes)
        return true_planes(planes, action, width)

    with mock.patch.object(nq, "_true_planes", recording):
        nq_compute(presentation_R(2, 1), 48)
        assert len(mapped) == 46
        mapped.clear()
        nq_compute(presentation_R(4, 1), 192)
        assert len(mapped) == 190


# -- bracket consistency -----------------------------------------------------


def test_bracket_fills_the_table_on_demand():
    """Brackets on a fresh algebra, highest degree first, equal those read from a table built first.

    The first call fills every slice at once; later calls find theirs
    filled.  `jacobi_check` reads the built table, so it passes on it.
    """
    for A in (
        nq_compute(presentation_R(2, 1), 20),
        nq_compute(presentation_R(2, 2), 25),
        nq_compute(Presentation(()), 8),
        construct_bl(3, 1, 16),
    ):
        bound = A.class_bound
        fresh = GradedAlgebra(bound, A.basis[1:], A.action[1:])
        filled = GradedAlgebra(bound, A.basis[1:], A.action[1:])
        filled.bracket_table()
        assert jacobi_check(filled).ok
        for s in range(bound, 1, -1):
            for i in range(1, s):
                for a in range(A.dim(i)):
                    u, u2 = fresh.element(i, 1 << a), filled.element(i, 1 << a)
                    for b in range(A.dim(s - i)):
                        got = fresh.bracket(u, fresh.element(s - i, 1 << b))
                        want = filled.bracket(u2, filled.element(s - i, 1 << b))
                        assert (got.degree, got.bits) == (want.degree, want.bits), (s, i, a, b)


def test_jacobi_check_passes(B8):
    report = jacobi_check(B8)
    assert report.ok
    assert report.checked == 40 + 19  # squares and triples, then the 19 basis pairs
    assert str(report) == "jacobi check: pass, 59 instances"


def _rebuilt(A, mutate):
    rows = [[list(r) for r in layer] for layer in A.action[1:]]
    mutate(rows)
    return GradedAlgebra(
        A.class_bound, A.basis[1:], [tuple(tuple(r) for r in layer) for layer in rows]
    )


def test_jacobi_check_detects_bad_square(B8):
    def mutate(rows):
        rows[0][0][0] ^= 1  # force [x, x] nonzero

    report = jacobi_check(_rebuilt(B8, mutate))
    assert not report.ok
    assert any(kind == "square" for kind, *_ in report.failures)


def test_jacobi_check_detects_bad_action_row(B8):
    def mutate(rows):
        rows[1][0][1] = rows[1][0][0]  # give [e2, y] the image of [e2, x]

    report = jacobi_check(_rebuilt(B8, mutate))
    assert not report.ok


def test_element_arithmetic(B8):
    x = B8.generator("x")
    y = B8.generator(Y)
    e2 = B8.bracket(y, x)
    assert e2.degree == 2 and e2.bits == 1
    assert e2.labels() == ["y x"]
    assert e2 + e2 == B8.zero(2)
    assert (e2 + B8.zero(2)) == e2
    assert B8.zero(3) == B8.zero(9)  # zeros compare equal across degrees
    with pytest.raises(ValueError):
        x + e2
    z = B8.generator(Z)
    assert z.bits == 0b11
    assert B8.bracket(x, y) == e2  # antisymmetry in characteristic 2


def test_equal_elements_hash_equal():
    """Zeros are equal across degrees and algebras, so they share a hash too."""
    A, B = construct_bl(2, 1, 8), construct_bl(2, 1, 10)
    zeros = [A.zero(1), A.zero(2), A.zero(9), B.zero(3), B.element(11, 0)]
    for u in zeros:
        for v in zeros:
            assert u == v and hash(u) == hash(v)
    assert len(set(zeros)) == 1 and A.zero(2) in {B.zero(1)}
    nonzero = [A.element(d, bits) for d in range(1, 9) for bits in range(1, 1 << A.dim(d))]
    again = [A.element(u.degree, u.bits) for u in nonzero]
    for u, v in zip(nonzero, again):
        assert u == v and hash(u) == hash(v)
    assert len(set(nonzero + again)) == len(nonzero)
    assert not set(zeros) & set(nonzero)


def test_element_validation(B8):
    with pytest.raises(ValueError):
        B8.element(0, 1)
    with pytest.raises(ValueError):
        B8.element(2, 0b10)  # degree 2 is one-dimensional
    with pytest.raises(ValueError):
        B8.element(9, 1)  # nonzero beyond the class bound
    assert not B8.element(9, 0)


def test_element_text(M8):
    """str is the plain labels, or 0; repr wraps it with the degree."""
    zero, x = M8.zero(3), M8.generator("x")
    pair = M8.eval_word(parse_word("x y x^2 z"))
    assert (str(zero), repr(zero)) == ("0", "<0 (degree 3)>")
    assert (str(x), repr(x)) == ("x", "<x (degree 1)>")
    assert (str(pair), repr(pair)) == ("y x^4 + y x^3 y", "<y x^4 + y x^3 y (degree 5)>")
    assert f"[.,y] = {M8.zero(9)}" == "[.,y] = 0"


def test_eval_word(B8):
    assert B8.eval_word(parse_word("y x")) == B8.element(2, 1)
    assert B8.eval_word(parse_word("y x^2 y")) == B8.zero(5)
    overweight = B8.eval_word(parse_word("y x^9"))
    assert not overweight and overweight.degree == 10


def test_basis_and_action_read_without_copying(B8):
    """`basis[d]` and `action[d]` read the stored layers, not a fresh copy per call."""
    assert B8.basis is B8.basis and B8.action is B8.action
    assert len(B8.basis) == len(B8.action) == B8.class_bound + 1


def test_constructor_validation(B8):
    with pytest.raises(ValueError):
        GradedAlgebra(0, [], [])
    with pytest.raises(ValueError):
        GradedAlgebra(2, B8.basis[1:3], B8.action[1:2])
    bad_rows = [B8.action[1], ((4, 0),)]  # mask outside degree 3
    with pytest.raises(ValueError):
        GradedAlgebra(2, B8.basis[1:3], bad_rows)
    action = [B8.action[1], ((0, 0),)]
    assert B8.basis[1] == GENERATORS and B8.basis[2] == ((1, 0),)
    assert GradedAlgebra(2, [GENERATORS, [(1, 0)]], action) == construct_bl(2, 1, 2)
    for bad_degree_2, match in (
        ((2, 0), "parent"),
        ((None, 0), "parent"),
        ((1, 2), "generator"),
    ):
        with pytest.raises(ValueError, match=match):
            GradedAlgebra(2, [GENERATORS, (bad_degree_2,)], action)
    swapped = ((None, 1), (None, 0))
    with pytest.raises(ValueError, match="generators"):
        GradedAlgebra(2, [swapped, B8.basis[2]], action)


def _letters(A: GradedAlgebra, d: int, k: int) -> list:
    """The letters of e(d, k), read by walking its parent chain down to degree 1."""
    out = []
    while d > 1:
        k, g = A.basis[d][k]
        out.append((X, Y)[g])
        d -= 1
    out.append((X, Y)[k])
    return out[::-1]


def test_labels_spell_the_parent_chain():
    M = nq_compute(presentation_R(2, 1), 48)
    tables = {
        "M(2,1)@48": M,
        "free@10": nq_compute(Presentation(()), 10),
        "Q(2,1)@46": quotient(M, second_center(M)),
        "B(3,1)@96": construct_bl(3, 1, 96),
    }
    for name, A in tables.items():
        assert len(A.labels) == A.class_bound + 1 and A.labels[0] == ()
        for d in range(1, A.class_bound + 1):
            assert len(A.labels[d]) == A.dim(d), (name, d)
            for k, label in enumerate(A.labels[d]):
                assert label == str(word_from_letters(_letters(A, d, k))), (name, d, k)


# -- centers and quotients ---------------------------------------------------


def _weights(family) -> list[int]:
    """The degrees in which a subspace family is nonzero, up to its validity bound."""
    return [d for d in range(1, family.valid_up_to + 1) if family.dim(d)]


def test_construction_has_no_center(B8):
    assert _weights(graded_center(B8)) == []


def test_center_weights_small():
    M = nq_compute(presentation_R(2, 1), 12)
    assert _weights(graded_center(M)) == [5, 7]


def test_center_and_second_center_weights():
    M = nq_compute(presentation_R(2, 1), 24)
    assert _weights(graded_center(M)) == [5, 7, 15, 20, 21]
    assert _weights(second_center(M)) == [5, 7, 15, 19, 20, 21]


def test_second_center_over_a_given_center_is_the_same():
    """`second_center(A, Z)` reuses a built center; one of another algebra or range is refused."""
    M = nq_compute(presentation_R(2, 1), 24)
    Z = graded_center(M)
    built, given = second_center(M), second_center(M, Z)
    assert built.valid_up_to == given.valid_up_to == 22
    for d in range(1, 23):
        assert (built.at(d).pivots, list(built.at(d))) == (given.at(d).pivots, list(given.at(d)))
    other = nq_compute(presentation_R(2, 1), 24)
    with pytest.raises(ValueError):
        second_center(other, Z)
    with pytest.raises(ValueError):
        second_center(M, GradedSubspaceFamily(M, Z.per_degree, 22))


@pytest.fixture(scope="module")
def walk_tables():
    """R(2,1)@48, free@10 and the seeded x/y/z presentations at class 12."""
    return [
        nq_compute(presentation_R(2, 1), 48),
        nq_compute(Presentation(()), 10),
        *(nq_compute(_random_presentation(seed), 12) for seed in range(30)),
    ]


def _reference_act(A: GradedAlgebra, degree: int, mask: int, g) -> int:
    """[v, g] by a loop over the bits of v's mask."""
    out = 0
    for i in range(A.dim(degree)):
        if mask >> i & 1:
            mx, my = A.action[degree][i]
            out ^= {X: mx, Y: my, Z: mx ^ my}[g]
    return out


def test_act_mask_and_generator_match_a_bit_loop(walk_tables):
    rng = random.Random(14)
    for A in walk_tables:
        for d in range(1, A.class_bound + 1):  # the top degree's rows are zero
            n = A.dim(d)
            masks = {0, (1 << n) - 1, *(1 << i for i in range(n)), *(rng.getrandbits(n) for _ in range(4))}
            for mask in masks:
                for g, name in ((X, "x"), (Y, "y"), (Z, "z")):
                    want = _reference_act(A, d, mask, g)
                    assert A.act_mask(d, mask, g) == A.act_mask(d, mask, name) == want, (d, mask, g)
        for g, name, bits in ((X, "x", 0b01), (Y, "y", 0b10), (Z, "z", 0b11)):
            assert A.generator(g) == A.generator(name) == A.element(1, bits)
            assert A.generator(g).degree == 1
    with pytest.raises(ValueError):
        A.act_mask(1, 1, "w")
    with pytest.raises(ValueError):
        A.generator(0)


def _reference_graded_center(A: GradedAlgebra) -> dict:
    per = {}
    for d in range(1, A.class_bound):
        width = A.dim(d + 1)
        images = [A.act_index(d, i, 0) | (A.act_index(d, i, 1) << width) for i in range(A.dim(d))]
        per[d] = kernel(images, 2 * width)
    return per


def _reference_second_center(A: GradedAlgebra) -> dict:
    center = _reference_graded_center(A)
    per = {}
    for d in range(1, A.class_bound - 1):
        width, znext = A.dim(d + 1), center[d + 1]
        images = [
            znext.reduce(A.act_index(d, i, 0)) | (znext.reduce(A.act_index(d, i, 1)) << width)
            for i in range(A.dim(d))
        ]
        per[d] = kernel(images, 2 * width)
    return per


def test_centers_match_the_act_index_construction(walk_tables):
    for A in walk_tables:
        for family, want in (
            (graded_center(A), _reference_graded_center(A)),
            (second_center(A), _reference_second_center(A)),
        ):
            assert family.valid_up_to == len(want)
            for d in range(1, family.valid_up_to + 1):
                assert family.at(d).row_bits() == want[d].row_bits(), d


def test_quotient_matches_direct_construction():
    M = nq_compute(presentation_R(2, 1), 24)
    Q = quotient(M, second_center(M))
    assert Q.class_bound == 22
    assert Q == construct_bl(2, 1, 22)


def test_quotient_rejects_non_ideal(B8):
    per = {d: EchelonBasis(B8.dim(d)) for d in range(1, 5)}
    per[2].add(1)  # a line not closed under the generator action
    family = GradedSubspaceFamily(B8, per, 4)
    with pytest.raises(ValueError, match="not an ideal"):
        quotient(B8, family)


def test_quotient_rejects_degree_one(B8):
    per = {d: EchelonBasis(B8.dim(d)) for d in range(1, 5)}
    per[1].add(0b01)
    family = GradedSubspaceFamily(B8, per, 4)
    with pytest.raises(ValueError, match="degree 1"):
        quotient(B8, family)


def test_quotient_rejects_foreign_family(B8, M8):
    per = {d: EchelonBasis(M8.dim(d)) for d in range(1, 5)}
    family = GradedSubspaceFamily(M8, per, 4)
    with pytest.raises(ValueError, match="different algebra"):
        quotient(B8, family)


# -- derived structure -------------------------------------------------------


def test_centralizer_sequence_error_texts(M8):
    # in M8 neither x, y nor x + y centralizes the degree-4 element
    with pytest.raises(ValueError, match="^degree 4: centralizer is not one-dimensional$"):
        centralizer_sequence(M8)
    # [y x, x] = 0 and [y x, y] = y x y: degree 2 is centralized by x
    basis = [GENERATORS, [(1, 0)], [(0, 1)], [(0, 0)]]  # x, y; y x; y x y; y x y x
    action = [[(0, 1), (1, 0)], [(0, 1)], [(0, 0)], [(0, 0)]]
    with pytest.raises(ValueError, match="^degree 2 must be centralized by y$"):
        centralizer_sequence(GradedAlgebra(3, basis[:3], action[:2] + [[(0, 0)]]))
    # a later degree that x and y both centralize is reported first
    with pytest.raises(ValueError, match="^degree 3: centralizer is not one-dimensional$"):
        centralizer_sequence(GradedAlgebra(4, basis, action))

