"""Graded algebra engine: nilpotent quotients, brackets, centers, quotients."""

import random
import sys
from unittest import mock

import pytest

from bzloop.algebra import (
    GENERATORS,
    BracketTable,
    GradedAlgebra,
    GradedSubspaceFamily,
    graded_center,
    jacobi_check,
    jacobi_sum,
    quotient,
    second_center,
)
from bzloop.bl import centralizer_sequence, construct_bl, presentation_R
from bzloop.gf2 import EchelonBasis, kernel
from bzloop.nq import Presentation, _interleave, nq_compute
from bzloop.oracle import ORACLE_MAX_CLASS, free_nq_oracle, witt_dimension
from bzloop.words import X, Y, Z, make_word, parse_word, word_from_letters


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


ANTISYMMETRY_CASES = (
    [("R(2,1)", presentation_R(2, 1), 48), ("R(3,1)", presentation_R(3, 1), 96)]
    + [("R(2,2)", presentation_R(2, 2), 100), ("free", Presentation(()), 10)]
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


def _jacobi_sum_rows(A: GradedAlgebra) -> tuple[int, int]:
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
                symbols = range(2 * a + 2 if d2 == d1 else 0, 2 * dims[d2])
                visited += len(symbols)
                cut += sum(s not in defined for s in symbols)
    return visited, cut


CALL_COUNT_NAMES = ("R(2,1)", "free", "random #0", "random #1", "random #4", "random #5", "random #24")
CALL_COUNT_CASES = [c for c in ANTISYMMETRY_CASES if c[0] in CALL_COUNT_NAMES]


@pytest.mark.parametrize("name,pres,bound", CALL_COUNT_CASES, ids=[c[0] for c in CALL_COUNT_CASES])
def test_nq_calls_jacobi_sum_for_cut_symbols_only(name, pres, bound):
    """A defining symbol's row is read off the frontier slice; only a cut symbol's row needs `jacobi_sum`."""
    with mock.patch("bzloop.nq.jacobi_sum", wraps=jacobi_sum) as counted:
        A = nq_compute(pres, bound)
    visited, cut = _jacobi_sum_rows(A)
    assert counted.call_count == cut
    assert 0 < cut < visited


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
        A = nq_compute(pres, bound)
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


# -- bracket consistency -----------------------------------------------------


def test_bracket_fills_the_table_on_demand():
    """Brackets on a fresh algebra, highest degree first, equal those read after jacobi_check filled the table.

    The first call fills every slice at once; later calls find theirs filled.
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

