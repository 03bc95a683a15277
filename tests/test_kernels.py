"""The bit-mask kernels against plain references.

`jacobi_check` reads squares, pairs and Jacobi sums straight from the
bracket table; its reference is the per-triple loop over `Element` brackets
it replaced, with a per-pair antisymmetry loop in front of it.  On a sound
table `jacobi_check` sums only the triples that hold a generator and go
through no defining pair: call counts pin that against an independent
enumerator, and two corruptions that fail Jacobi alone pin that it still
sums those triples.  Three tables whose degrees hold up to 68 elements
give the reference report, sound and corrupted, so the index order within
a degree of more than two elements is checked too.  Every single-bit flip
of two small tables gives the
reference report, both of an action row and of an entry of the filled
table at the edges of the pair comparison, and so does every small table
whose degree 2 is defined as [x, x] or whose [y, x] row is not the
element it defines.  On a fresh algebra at most 2 wide `jacobi_check`
takes its packed path: on the desk tables it builds no bracket table and
calls no `jacobi_sum`, a wide algebra still takes the row path, and every
single-bit flip of M(2,1)@48, and random flips of 1-4 action bits of the
desk tables, get the report of their tables built first, though the
packed path compares only the generator pairs where the row path
compares every pair.
The call counts of the row path are pinned on tables built first.
`quotient` reads its action rows from
the images `define_layer` returns; its reference solves each candidate
over the survivors with a `SpanSolver`, as it once did.  The GF(2) echelon
routines are compared with naive Gaussian elimination and brute-force
kernels on random matrices
(`echelonize` also on rows with repeats and zeros: it adds every row in
order, and `add` drops the zero and repeated ones), and the lazily settled
`EchelonBasis` on random runs of adds and reads.
`eval_runs` continued from a word's head is compared with evaluating the
whole word.
"""

import functools
import random
from itertools import combinations, combinations_with_replacement, groupby, product
from unittest import mock

import jacobi_agree
import paths_agree
import pytest
from hypothesis import example, given, settings, strategies as st

from bzloop.algebra import (
    GENERATORS,
    GradedAlgebra,
    _instances,
    eval_runs,
    graded_center,
    jacobi_check,
    jacobi_sum,
    quotient,
    second_center,
)
from bzloop.bl import construct_bl, presentation_R
from bzloop.gf2 import EchelonBasis, SpanSolver, echelonize, iter_bits, kernel
from bzloop.nq import Presentation, nq_compute
from bzloop.words import X, Y, Z, word_from_letters

# -- jacobi_check --------------------------------------------------------------


def reference_jacobi(A: GradedAlgebra):
    """The Element-based loops: (ok, checked, [(kind, labels, degree, bits)])."""
    bound = A.class_bound
    checked = 0
    failures = []
    labels = A.labels
    for d in range(1, bound // 2 + 1):
        for k, label in enumerate(labels[d]):
            u = A.element(d, 1 << k)
            sq = A.bracket(u, u)
            checked += 1
            if sq.bits:
                failures.append(("square", label, sq.degree, sq.bits))
    for d1 in range(1, bound // 2 + 1):
        for d2 in range(d1, bound - d1 + 1):
            for a, a_label in enumerate(labels[d1]):
                u = A.element(d1, 1 << a)
                for b, b_label in enumerate(labels[d2]):
                    if d2 == d1 and b <= a:
                        continue
                    v = A.element(d2, 1 << b)
                    diff = A.bracket(u, v) + A.bracket(v, u)
                    checked += 1
                    if diff.bits:
                        failures.append(("antisymmetry", (a_label, b_label), diff.degree, diff.bits))
    for d1 in range(1, bound - 1):
        for d2 in range(d1, bound - d1):
            for d3 in range(d2, bound - d1 - d2 + 1):
                for a, a_label in enumerate(labels[d1]):
                    u = A.element(d1, 1 << a)
                    for b, b_label in enumerate(labels[d2]):
                        if d2 == d1 and b < a:
                            continue
                        v = A.element(d2, 1 << b)
                        uv = A.bracket(u, v)
                        for c, c_label in enumerate(labels[d3]):
                            if d3 == d2 and c < b:
                                continue
                            w = A.element(d3, 1 << c)
                            jac = (
                                A.bracket(uv, w).bits
                                ^ A.bracket(A.bracket(v, w), u).bits
                                ^ A.bracket(A.bracket(w, u), v).bits
                            )
                            checked += 1
                            if jac:
                                failures.append(
                                    ("jacobi", (a_label, b_label, c_label), d1 + d2 + d3, jac)
                                )
    return not failures, checked, failures


def _report(A: GradedAlgebra):
    rep = jacobi_check(A)
    return rep.ok, rep.checked, [(kind, labels, e.degree, e.bits) for kind, labels, e in rep.failures]


def _corrupted(A: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """A copy of A with 1-3 action bits flipped."""
    rows = [[list(r) for r in layer] for layer in A.action[1:]]
    degrees = [d for d in range(1, A.class_bound) if A.dim(d + 1)]
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(degrees)
        row = rows[d - 1][rng.randrange(A.dim(d))]
        row[rng.randrange(2)] ^= 1 << rng.randrange(A.dim(d + 1))
    return GradedAlgebra(A.class_bound, A.basis[1:], [tuple(tuple(r) for r in layer) for layer in rows])


@pytest.fixture(scope="module")
def presented():
    return [nq_compute(presentation_R(g, h), c) for g, h, c in ((2, 1, 20), (3, 1, 30), (2, 2, 25))]


def test_jacobi_check_matches_reference_on_sound_tables(presented):
    for A in presented:
        assert _report(A) == reference_jacobi(A)
        assert _report(A)[0]


def test_jacobi_check_matches_reference_on_corrupted_tables(presented):
    failing = 0
    for seed in range(40):
        rng = random.Random(seed)
        for A in presented:
            bad = _corrupted(A, rng)
            got = _report(bad)
            assert got == reference_jacobi(bad), (seed, A.class_bound)
            failing += not got[0]
    assert failing >= 60  # most corruptions are caught, so the failure lists were compared


def _xy_presentation(seed: int) -> Presentation:
    """1-2 relators of length 4-8 over the letters x, y."""
    rng = random.Random(seed)
    return Presentation(
        word_from_letters(rng.choice((X, Y)) for _ in range(rng.randint(4, 8))) for _ in range(rng.randint(1, 2))
    )


@pytest.mark.parametrize(
    "build,widest",
    [
        (lambda: nq_compute(Presentation(()), 8), 30),
        (lambda: nq_compute(_xy_presentation(5), 10), 68),
        (lambda: nq_compute(_xy_presentation(7), 10), 68),
    ],
    ids=["free@8", "x/y #5@10", "x/y #7@10"],
)
def test_jacobi_check_matches_reference_on_wide_tables(build, widest):
    """Degrees of more than two elements: the index order within equal degrees, sound and corrupted."""
    A = build()
    assert max(A.dims) == widest
    assert _report(A) == reference_jacobi(A)
    assert _report(A)[0]
    rng = random.Random(widest)
    failing = 0
    for _ in range(40):
        bad = _corrupted(A, rng)
        got = _report(bad)
        assert got == reference_jacobi(bad)
        failing += not got[0]
    assert failing >= 30  # most corruptions are caught, so the failure lists were compared


def test_jacobi_check_rejects_a_table_that_is_not_antisymmetric(presented):
    """Seed 42's third corruption of R(2,2)@25 keeps every square and Jacobi sum zero."""
    rng = random.Random(42)
    for A in presented:
        bad = _corrupted(A, rng)
    report = jacobi_check(bad)
    assert bad.class_bound == 25
    assert not report.ok
    assert {kind for kind, _, _ in report.failures} == {"antisymmetry"}
    assert all(labels[0] == "x" for _, labels, _ in report.failures)  # [x, w] != [w, x]
    assert sorted(e.degree - 1 for _, _, e in report.failures) == [20, 22, 24]  # deg w
    assert report.failures[0][1][1] == "y x^7 y x^6 y x^4"
    assert _report(bad) == reference_jacobi(bad)


def _flipped(A: GradedAlgebra, d: int, k: int, g: int, bit: int = 0) -> GradedAlgebra:
    """A copy of A with one bit of the action row [e(d,k), x or y] flipped."""
    rows = [[list(r) for r in layer] for layer in A.action[1:]]
    rows[d - 1][k][g] ^= 1 << bit
    return GradedAlgebra(A.class_bound, A.basis[1:], rows)


def _jacobi_only_tables():
    """Two corruptions whose every square and pair passes, so only a Jacobi sum can catch them."""
    return [
        _flipped(construct_bl(2, 1, 24), 6, 0, 1),  # [e(6,0), y] in B(2,1)@24
        _flipped(nq_compute(presentation_R(2, 2), 16), 13, 1, 0),  # [e(13,1), x] in M(2,2)@16
    ]


def _is_defining(A: GradedAlgebra, d: int, b: int, g: int) -> bool:
    """Whether (e(d,b), generator g) defines an element of degree d + 1, whatever its action row holds."""
    return d < A.class_bound and (b, g) in A.basis[d + 1]


def _triple_counts(A: GradedAlgebra) -> tuple[int, int, int]:
    """(open triples with d1 = 1, triples with d1 >= 2, all triples) of the loop, by enumeration.

    A triple J(g, v, w) with d1 = 1 is open when neither (v, g) nor (w, g)
    is a defining pair.
    """
    bound, dims = A.class_bound, A.dims
    opened = higher = every = 0
    for d1 in range(1, bound - 1):
        for d2 in range(d1, bound - d1):
            for d3 in range(d2, bound - d1 - d2 + 1):
                for a in range(dims[d1]):
                    for b in range(a if d2 == d1 else 0, dims[d2]):
                        for c in range(b if d3 == d2 else 0, dims[d3]):
                            every += 1
                            if d1 > 1:
                                higher += 1
                            elif not (_is_defining(A, d2, b, a) or _is_defining(A, d3, c, a)):
                                opened += 1
    return opened, higher, every


def test_jacobi_check_catches_jacobi_only_corruptions():
    for bad in _jacobi_only_tables():
        got = _report(bad)
        assert not got[0]
        assert {kind for kind, *_ in got[2]} == {"jacobi"}
        assert got == reference_jacobi(bad)


def _counted_report(A: GradedAlgebra):
    """`_report(A)` and the number of `jacobi_sum` calls it made."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return jacobi_sum(*args)

    with mock.patch("bzloop.algebra.jacobi_sum", counting):
        got = _report(A)
    return got, calls


def test_jacobi_check_sums_only_open_generator_triples_on_a_sound_table(presented):
    for A in presented:
        A.bracket_table()  # a built table takes the row path
        got, calls = _counted_report(A)
        opened, higher, every = _triple_counts(A)
        assert got == reference_jacobi(A)  # `checked` counts every triple, summed or not
        assert 0 < calls == opened < every - higher


def test_jacobi_check_sums_more_triples_once_a_check_fails(presented):
    """A failed pair sums every triple; a failed generator triple the open ones and all with d1 >= 2."""
    rng = random.Random(42)
    for A in presented:
        antisymmetry_only = _corrupted(A, rng)  # seed 42's third corruption, as above
    got, calls = _counted_report(antisymmetry_only)
    assert not got[0]
    assert calls == _triple_counts(antisymmetry_only)[2]
    assert got == reference_jacobi(antisymmetry_only)
    for bad in _jacobi_only_tables():
        got, calls = _counted_report(bad)
        opened, higher, every = _triple_counts(bad)
        assert not got[0]
        assert calls == opened + higher < every
        assert got == reference_jacobi(bad)


def test_jacobi_check_sum_calls_on_the_desk_tables_are_pinned():
    """M, Q = M / Z_2(M) and B of the three desk triples: 11,648 sums, where every generator triple took 35,207."""
    calls = checked = 0
    for g, h, c in ((2, 1, 48), (3, 1, 96), (2, 2, 100)):
        M = nq_compute(presentation_R(g, h), c)
        for A in (M, quotient(M, second_center(M)), construct_bl(g, h, c)):
            A.bracket_table()  # a built table takes the row path
            report, n = _counted_report(A)
            assert report[0]
            calls += n
            checked += report[1]
    assert (calls, checked) == (11_648, 229_446)


def _single_bit_flips(A: GradedAlgebra):
    """Every copy of A with one bit of one action row flipped."""
    for d in range(1, A.class_bound):
        for k in range(A.dim(d)):
            for g in (0, 1):
                for bit in range(A.dim(d + 1)):
                    yield _flipped(A, d, k, g, bit)


@pytest.mark.parametrize(
    "build,counts",
    [(lambda: construct_bl(2, 1, 24), (48, 47, 3)), (lambda: nq_compute(presentation_R(2, 2), 16), (44, 36, 1))],
    ids=["B(2,1)@24", "M(2,2)@16"],
)
def test_jacobi_check_matches_reference_on_every_single_bit_flip(build, counts):
    """(flips, failing reports, reports that fail on Jacobi sums alone) are pinned with the reports."""
    flips = failing = jacobi_only = 0
    for bad in _single_bit_flips(build()):
        got = _report(bad)
        assert got == reference_jacobi(bad)
        flips += 1
        failing += not got[0]
        jacobi_only += {kind for kind, *_ in got[2]} == {"jacobi"}
    assert (flips, failing, jacobi_only) == counts


def _table_entry_flips(A: GradedAlgebra):
    """Copies of A with one bit of one entry of its filled `BracketTable` flipped.

    For each e(d1, a) with d1 <= class_bound // 2, at flat index c, the
    entries are its square (column c), the first column past the diagonal
    (c + 1) and every column of the last pair degree, class_bound - d1:
    the edges of the row comparison in `jacobi_check`.  Both
    `jacobi_check` and `reference_jacobi` read the flipped table.
    """
    bound = A.class_bound
    offset = A.bracket_table().offset
    degree_of = [d for d in range(1, bound) for _ in range(A.dim(d))]  # of each flat index
    for d1 in range(1, bound // 2 + 1):
        hi = offset[bound - d1 + 1]
        for a in range(A.dim(d1)):
            c = offset[d1] + a
            cols = {c, *range(offset[bound - d1], hi)}
            if c + 1 < hi:
                cols.add(c + 1)
            for col in sorted(cols):
                for bit in range(A.dim(d1 + degree_of[col])):
                    bad = GradedAlgebra(bound, A.basis[1:], A.action[1:])
                    bad.bracket_table().rows[d1][a][col] ^= 1 << bit
                    yield bad


@pytest.mark.parametrize(
    "build,counts",
    [(lambda: construct_bl(2, 1, 24), (37, 13, 24)), (lambda: nq_compute(presentation_R(2, 2), 16), (32, 9, 23))],
    ids=["B(2,1)@24", "M(2,2)@16"],
)
def test_jacobi_check_matches_reference_on_table_entry_flips(build, counts):
    """(flips, failed squares, failed pairs) are pinned with the reports: each flip fails its own entry."""
    flips = squares = pairs = 0
    for bad in _table_entry_flips(build()):
        got = _report(bad)
        assert got == reference_jacobi(bad)
        kinds = [kind for kind, *_ in got[2]]
        assert kinds.count("square") + kinds.count("antisymmetry") == 1
        flips += 1
        squares += kinds.count("square")
        pairs += kinds.count("antisymmetry")
    assert (flips, squares, pairs) == counts


# -- the packed path of jacobi_check ------------------------------------------------


DESK_PAIRS = [(2, 1), (3, 1), (2, 2)]


@pytest.mark.parametrize("g,h", DESK_PAIRS)
def test_fresh_sound_narrow_tables_take_the_packed_path(g, h):
    """The desk cases of tests/jacobi_agree.py.

    Fresh, M, Q and B of a desk triple get the report of their tables
    built first, without building a table or calling `jacobi_sum`.
    """
    for name, A in jacobi_agree.tables(g, h):
        assert jacobi_agree.agree(A) is None, name


@pytest.mark.parametrize(
    "build",
    [lambda: nq_compute(Presentation(()), 8), lambda: nq_compute(paths_agree.wide_cases()[0][1], 10)],
    ids=["free@8", "wide-nq seed 1 #0@10"],
)
def test_a_wide_algebra_takes_the_row_path(build):
    A = build()
    assert max(A.dims) > 2
    fresh, row_path, row = jacobi_agree.reports(A)
    assert fresh.ok and row_path
    assert fresh == row


@given(st.integers(1, 14), st.data())
def test_instances_counts_the_squares_pairs_and_triples_one_by_one(bound, data):
    """The closed form of `checked` equals a count of the squares, pairs and 3-multisets themselves."""
    dims = [0] + data.draw(st.lists(st.integers(0, 5), min_size=bound, max_size=bound))
    degrees = [d for d in range(1, bound + 1) for _ in range(dims[d])]
    squares = sum(2 * d <= bound for d in degrees)
    pairs = sum(d + e <= bound for d, e in combinations(degrees, 2))
    triples = sum(sum(t) <= bound for t in combinations_with_replacement(degrees, 3))
    assert _instances(dims, bound) == squares + pairs + triples


@functools.cache
def _desk_tables() -> tuple[GradedAlgebra, ...]:
    """M, Q = M / Z_2(M) and B of the desk pairs at classes 12, 20 and 30."""
    tables = []
    for (g, h), c in product(DESK_PAIRS, (12, 20, 30)):
        M = nq_compute(presentation_R(g, h), c)
        tables += [M, quotient(M, second_center(M)), construct_bl(g, h, c)]
    return tuple(tables)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multi_bit_flips_of_the_desk_tables_get_the_report_of_their_built_table(data):
    """Fresh, a table with 1-4 action bits flipped gets the report of its table built first.

    The packed path checks the generator pairs where the row path checks
    every pair, so on a flip that breaks antisymmetry the two agree only
    if the generator pairs and the symbol checks catch what the pairs do.
    """
    A = data.draw(st.sampled_from(_desk_tables()))
    rows = [[list(r) for r in layer] for layer in A.action[1:]]
    degrees = [d for d in range(1, A.class_bound) if A.dim(d + 1)]
    for _ in range(data.draw(st.integers(1, 4))):
        d = data.draw(st.sampled_from(degrees))
        row = rows[d - 1][data.draw(st.integers(0, A.dim(d) - 1))]
        row[data.draw(st.integers(0, 1))] ^= 1 << data.draw(st.integers(0, A.dim(d + 1) - 1))
    bad = GradedAlgebra(A.class_bound, A.basis[1:], rows)
    got = _report(bad)
    bad.bracket_table()
    assert got == _report(bad)


def test_every_single_bit_flip_of_M48_gets_the_report_of_its_built_table():
    """Fresh, each of the 148 flips of an action bit of M(2,1)@48 gets the report of its table built first.

    125 fail and 23 pass: the 11 flips that `analyze` passes, each of which
    changes a defining row (test_analyze.py), and 12 that `analyze` fails
    on another check.  A built table is read as built, entry flips included
    (`test_jacobi_check_matches_reference_on_table_entry_flips`).
    """
    flips = failing = 0
    for bad in _single_bit_flips(nq_compute(presentation_R(2, 1), 48)):
        got = _report(bad)
        bad.bracket_table()
        assert got == _report(bad)
        flips += 1
        failing += not got[0]
    assert (flips, failing) == (148, 125)


def _every_table(dims: tuple, deg2: tuple):
    """Every table of the given dims whose degree 2 is defined by the pairs `deg2`.

    Each higher degree is defined by distinct (parent, generator) pairs,
    and each action row takes every value.
    """
    bound = len(dims)
    layers = [[deg2]] + [
        [defs for defs in product(product(range(dims[d - 1]), (0, 1)), repeat=dims[d]) if len(set(defs)) == dims[d]]
        for d in range(2, bound)
    ]
    masks = [list(product(range(1 << dims[d]), repeat=2 * dims[d - 1])) for d in range(1, bound)]
    for basis in product(*layers):
        for rows in product(*masks):
            action = [list(zip(r[0::2], r[1::2])) for r in rows] + [[(0, 0)] * dims[-1]]
            yield GradedAlgebra(bound, [GENERATORS, *basis], action)


def _defining_rows_exact(A: GradedAlgebra) -> bool:
    """Whether each defining pair's action row is the element it defines alone."""
    return all(
        A.action[d][p][g] == 1 << k for d in range(1, A.class_bound) for k, (p, g) in enumerate(A.basis[d + 1])
    )


@pytest.mark.parametrize(
    "dims,deg2,counts",
    [
        ((2, 1, 1, 1), ((0, 0),), (1024, 8, 8)),
        ((2, 1, 1, 1), ((1, 0),), (512, 4, 4)),
        ((2, 2, 1), ((1, 0), (0, 1)), (12288, 24, 24)),
    ],
    ids=["[x, x] defines degree 2", "inexact [y, x] row", "inexact [y, x] row beside [x, y]"],
)
def test_jacobi_check_matches_reference_on_inexact_defining_rows(dims, deg2, counts):
    """(tables, tables whose squares and pairs pass, of those the ones with an inexact defining row).

    A table whose degree 2 is [x, x] passes its square only when the row
    [x, x] is zero, so each such table has an inexact defining row; the
    other families keep the tables whose row [y, x] is not e(2, 0) alone.
    Whatever a defining row holds, skipping its generator triples once the
    squares and pairs pass gives the reference report.
    """
    tables = passing = inexact = 0
    for A in _every_table(dims, deg2):
        if deg2[0] == (1, 0) and A.action[1][1][0] == 1:
            continue
        got = _report(A)
        assert got == reference_jacobi(A)
        tables += 1
        if not {kind for kind, *_ in got[2]} & {"square", "antisymmetry"}:
            passing += 1
            inexact += not _defining_rows_exact(A)
    assert (tables, passing, inexact) == counts


# -- quotient ------------------------------------------------------------------


def _reference_quotient(A: GradedAlgebra, ideal) -> GradedAlgebra:
    """The kernel + SpanSolver construction: survivors, then each candidate solved over them."""
    bound = ideal.valid_up_to
    basis = [list(GENERATORS)]
    action = []
    reps = [0b01, 0b10]
    for d in range(2, bound + 1):
        idl = ideal.at(d)
        parents = basis[-1]
        cands = [idl.reduce(A.act_mask(d - 1, rep, g)) for rep in reps for g in (X, Y)]
        killed = set(kernel(cands, A.dim(d)).pivots)
        survivors = [k for k in range(len(cands)) if k not in killed]
        assert len(survivors) == A.dim(d) - idl.rank
        solver = SpanSolver([cands[k] for k in survivors], A.dim(d))
        masks = [solver.express(c) for c in cands]
        assert None not in masks
        action.append([(masks[2 * p], masks[2 * p + 1]) for p in range(len(parents))])
        basis.append([(s >> 1, s & 1) for s in survivors])
        reps = [cands[k] for k in survivors]
    action.append([(0, 0)] * len(basis[-1]))
    return GradedAlgebra(bound, basis, action)


def _random_relator(rng: random.Random):
    """A random x/y/z word whose first two letters differ, so it is not zero in the free algebra."""
    while True:
        letters = [rng.choice((X, Y, Z)) for _ in range(rng.randint(2, 7))]
        if letters[0] is not letters[1]:
            return word_from_letters(letters)


def _quotient_tables():
    desk = [nq_compute(presentation_R(g, h), c) for g, h, c in ((2, 1, 48), (3, 1, 96), (2, 2, 100))]
    rng = random.Random(7)
    randoms = [
        nq_compute(Presentation(_random_relator(rng) for _ in range(rng.randint(1, 3))), 13)
        for _ in range(40)
    ]
    return desk + randoms


def test_quotient_matches_span_solver_reference():
    compared = 0
    for A in _quotient_tables():
        for family in (graded_center(A), second_center(A)):
            if family.valid_up_to < 2 or family.at(1).rank:
                continue
            Q = quotient(A, family)
            want = _reference_quotient(A, family)
            assert Q.basis == want.basis and Q.action == want.action
            compared += 1
    assert compared >= 50  # families that meet degree 1 are skipped; the rest still compare


# -- GF(2) echelon routines ----------------------------------------------------

DIM = 10


def naive_rref(vectors, dim):
    """Reduced echelon rows by column-wise Gaussian elimination, sorted by pivot."""
    rest = [v for v in vectors if v]
    out = []
    for col in range(dim):
        pick = next((r for r in rest if r >> col & 1), None)
        if pick is None:
            continue
        rest.remove(pick)
        rest = [r ^ pick if r >> col & 1 else r for r in rest]
        out = [r ^ pick if r >> col & 1 else r for r in out]
        out.append(pick)
    return out


def naive_reduce(rows, v):
    for r in rows:
        if v >> ((r & -r).bit_length() - 1) & 1:
            v ^= r
    return v


def combos(vectors):
    """(mask, XOR of the vectors the mask selects) for every subset."""
    for mask in range(1 << len(vectors)):
        acc = 0
        for i in iter_bits(mask):
            acc ^= vectors[i]
        yield mask, acc


def assert_matches(basis: EchelonBasis, vectors, probes):
    rows = naive_rref(vectors, basis.dim_ambient)
    assert basis.row_bits() == rows
    assert list(basis) == rows
    assert basis.pivots == [(r & -r).bit_length() - 1 for r in rows]
    for v in probes:
        red = naive_reduce(rows, v)
        assert basis.reduce(v) == red
        assert basis.contains(v) == (red == 0)


_vec = st.integers(min_value=0, max_value=(1 << DIM) - 1)
_matrix = st.lists(_vec, max_size=8)


@given(_matrix, st.lists(_vec, max_size=6))
def test_echelon_basis_matches_gaussian_elimination(vectors, probes):
    probes = probes + vectors + [1 << i for i in range(DIM)]
    basis = EchelonBasis(DIM)
    for k, v in enumerate(vectors):
        grew = basis.add(v)
        assert grew == (len(naive_rref(vectors[: k + 1], DIM)) > len(naive_rref(vectors[:k], DIM)))
        assert_matches(basis, vectors[: k + 1], probes)
    assert_matches(echelonize(vectors, DIM), vectors, probes)
    # With repeated and zero rows: the same form, and every row passed to `add` in order.
    noisy = [0] + vectors + vectors[::-1] + [0]
    added = []
    add = EchelonBasis.add

    def recording_add(self, v):
        added.append(v)
        return add(self, v)

    with mock.patch.object(EchelonBasis, "add", recording_add):
        assert_matches(echelonize(noisy, DIM), vectors, probes)
    assert added == noisy


_read = st.sampled_from(("reduce", "contains", "rank", "pivots", "row_bits", "iter"))
_steps = st.lists(st.tuples(st.one_of(st.just("add"), _read), _vec), max_size=30)


@given(_steps)
def test_lazy_echelon_basis_matches_rref_between_adds(steps):
    """`add` leaves rows unsettled; every read, and every add after a read, must match naive RREF.

    After each step the basis is probed without settling it (rank, and
    `reduce` and `contains` on every unit vector, which fix the row space),
    so runs of adds on an unsettled basis and adds on a settled one are
    both checked.  The step's own read settles the rows when it is
    `pivots`, `row_bits` or iteration.
    """
    basis = EchelonBasis(DIM)
    added = []
    for op, v in steps:
        rows = naive_rref(added, DIM)
        if op == "add":
            added.append(v)
            grew = len(naive_rref(added, DIM)) > len(rows)
            assert basis.add(v) == grew
            rows = naive_rref(added, DIM)
        elif op == "reduce":
            assert basis.reduce(v) == naive_reduce(rows, v)
        elif op == "contains":
            assert basis.contains(v) == (naive_reduce(rows, v) == 0)
        elif op == "rank":
            assert basis.rank == len(basis) == len(rows)
        elif op == "pivots":
            assert basis.pivots == [(r & -r).bit_length() - 1 for r in rows]
        elif op == "row_bits":
            assert basis.row_bits() == rows
        else:
            assert list(basis) == rows
        assert basis.rank == len(rows)
        for i in range(DIM):
            red = naive_reduce(rows, 1 << i)
            assert basis.reduce(1 << i) == red
            assert basis.contains(1 << i) == (red == 0)
    assert_matches(basis, added, [1 << i for i in range(DIM)])


@given(_matrix, st.lists(_vec, max_size=6))
def test_echelon_copy_is_independent(vectors, probes):
    """A new pivot at a non-pivot column back-eliminates every row holding that bit.

    Each column grows its own fresh basis of the same vectors, so one
    column's growth never leaks into the next.
    """
    probes = probes + [1 << i for i in range(DIM)]
    basis = echelonize(vectors, DIM)
    for col in range(DIM):
        if col in basis.pivots:
            continue
        grown = echelonize(vectors, DIM)
        assert grown.add(1 << col)
        assert_matches(grown, vectors + [1 << col], probes)
    assert_matches(basis, vectors, probes)


@given(_matrix, st.integers(min_value=0, max_value=DIM))
def test_kernel_matches_brute_force(images, width):
    images = [im & ((1 << width) - 1) for im in images]
    null = [mask for mask, acc in combos(images) if acc == 0]
    assert kernel(images, width).row_bits() == naive_rref(null, len(images))


@given(_matrix, _vec)
def test_span_solver_matches_brute_force(vectors, target):
    solutions = [mask for mask, acc in combos(vectors) if acc == target]
    got = SpanSolver(vectors, DIM).express(target)
    if not solutions:
        assert got is None
    else:
        assert got in solutions
        if len(solutions) == 1:  # independent vectors: the solution is unique
            assert got == solutions[0]


# -- eval_runs from an evaluated prefix ------------------------------------------


def _runs(letters) -> tuple:
    return tuple((letter, len(list(group))) for letter, group in groupby(letters))


@functools.cache
def _walk_tables() -> tuple:
    """R(2,1)@30 and four seeded x/y/z presentations at class 12 (top dims 121, 214, 17, 7)."""
    rng = random.Random(4)
    seeded = [
        nq_compute(Presentation(_random_relator(rng) for _ in range(rng.randint(1, 3))), 12)
        for _ in range(4)
    ]
    return (nq_compute(presentation_R(2, 1), 30), *seeded)


@given(
    st.integers(0, 4),
    st.lists(st.sampled_from((X, Y, Z)), min_size=1, max_size=36),
    st.integers(0, 36),
)
@example(0, [Y, Y, X, Y], 2)  # a zero prefix
@example(0, [Y, X, X, X, Y] + [X] * 31, 29)  # a word past the top degree
@example(0, [Y, X, X, X, Y, X, X], 3)  # a split inside a run
def test_eval_runs_continues_an_evaluated_prefix(which, letters, split):
    """Splitting a word anywhere and continuing from the head's mask and degree gives the word's mask."""
    A = _walk_tables()[which]
    action, top = A.action, A.class_bound
    k = split % (len(letters) + 1)
    head = eval_runs(action, _runs(letters[:k]), top)
    whole = eval_runs(action, _runs(letters), top)
    assert eval_runs(action, _runs(letters[k:]), top, head, k) == whole
    assert whole == A.eval_word(word_from_letters(letters)).bits
