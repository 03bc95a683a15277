"""Byte identity of the desk-scale reports and tables, of a few wide nq tables and of nq's echelon input.

perfbench/refs.json holds the sha256 of each desk report and table in the
byte form the CLI writes; it is read here, never written
(perfbench/make_refs.py regenerates it, only for a change meant to alter
those bytes).  The wide tables, of presentations with relators of length
5-7 at class 12, have their digests frozen below: their components reach a
few hundred dimensions, so they cover echelon and slice-fill work that the
desk tables barely reach.
"""

import hashlib
import json
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest

from bzloop import nq
from bzloop.algebra import quotient, second_center
from bzloop.analyze import analyze
from bzloop.bl import bl_params, construct_bl, presentation_R
from bzloop.gf2 import EchelonBasis
from bzloop.nq import Presentation, _cuts, _table_cuts, nq_compute
from bzloop.words import parse_word

REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text())
DESK = ((2, 1), (3, 1), (2, 2))


def _digest(doc: dict) -> str:
    return hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()


def _default_bound(g: int, h: int) -> int:
    p = bl_params(g, h)
    return p.m + 2 * p.d


ANALYSES = [(g, h, _default_bound(g, h)) for g, h in DESK] + [(2, 1, 50)]


@pytest.mark.parametrize("g,h,bound", ANALYSES, ids=[f"analyze({g},{h})@{c}" for g, h, c in ANALYSES])
def test_analysis_report_matches_reference(g, h, bound):
    report = analyze(g, h, class_bound=bound)
    assert _digest(report.to_json_dict()) == REFS["bl-analysis/1"][f"analyze({g},{h})@{bound}"]


@pytest.mark.parametrize("g,h", DESK)
def test_tables_match_reference(g, h):
    c = _default_bound(g, h)
    M = nq_compute(presentation_R(g, h), c)
    Q = quotient(M, second_center(M))
    B = construct_bl(g, h, c)
    want = REFS["graded-algebra/1"]
    for kind, table in (("M", M), ("Q", Q), ("B", B)):
        key = f"{kind}({g},{h})@{table.class_bound}"
        assert _digest(table.to_json_dict()) == want[key], key


WIDE_CLASS = 12
WIDE = {
    ("y x y x y",): "e70bb114456af203cdae9ddd043e396e1de4912b74092884204272727423ed45",
    ("y x y^3 x y",): "6d1ee5c5bad68e3698e867d087933b0c238120b8d0c8aeb30c6c343c7153ee92",
    ("y x^2 y x^2", "y x y^3 x^2"): "525eb5dff527074e4388df25da2ebfb75c964fc8ac4b0b696e7532f0cb5aad2f",
    ("y x^4", "x y^3 x y", "y x y^5"): "09f60346b23cdf3004894369df37b3a8a09ef941649667eff8d26144e9444df3",
    # dims 2, 1, 1, 1, 2, 2, 4, 5, ... and 2, 1, 1, 1, 2, 2, 3, 4, 6, ...: the packed loop
    # cuts up to the first degree wider than 2, the table loop the later ones
    ("y^2", "x^2 y^3 z", "x z y"): "ceb2505d871c2a86a6d0a4b4a232d4036b41fdcae7fbb7d72c632c65ce8ab4b1",
    ("z y x", "y x y z^3 x", "y^2"): "37aef08e74281ace389d92611fade295b0186fe95a9260bf5c0ddef19a927295",
}


@pytest.mark.parametrize("relators", list(WIDE), ids="; ".join)
def test_wide_nq_table_bytes_are_frozen(relators):
    """Both Jacobi modes: `full_jacobi` refills every cut slice whole, the default one only the wide cuts.

    The default mode cuts with the packed loop up to the first degree wider
    than 2 and then restarts the table loop, which refills half of each cut
    slice.
    """
    pres = Presentation(parse_word(r) for r in relators)
    for full_jacobi in (False, True):
        M = nq_compute(pres, WIDE_CLASS, full_jacobi=full_jacobi)
        assert _digest(M.to_json_dict()) == WIDE[relators], f"full_jacobi={full_jacobi}"


# sha256 of the comma-joined hex rows, in order, that `EchelonBasis.add`
# receives from `nq_compute`, and their number
ADDED_ROWS = {
    ("R(2,1)@48", False): (59, "9c20c707392bc18c616081ed7534f7afde9ec3fea985de503905f7a28c3afaad"),
    ("R(2,1)@48", True): (59, "9c20c707392bc18c616081ed7534f7afde9ec3fea985de503905f7a28c3afaad"),
    ("free@10", False): (30, "145f21f51007fbec351e520081c30f1abee4dffa8891e9c35b1ed9c908555e6f"),
    ("free@10", True): (32, "ed4392ccb956cc03e118699ce9f1fbe6bba91716d5f70a2c19ac92b53f01d40a"),
    # 36 of the Jacobi symbols it visits are cut, 24 of them with a nonzero image [v, g]
    ("y x y x y@12", False): (94, "a6710c405589d6173ae110d24503d9e635dc225f00b00011558acc6a5388f422"),
}


ECHELON_CASES = {
    "R(2,1)@48": (presentation_R(2, 1), 48),
    "free@10": (Presentation(()), 10),
    "y x y x y@12": (Presentation([parse_word("y x y x y")]), 12),
}


def _record(cuts, name: str) -> tuple[list[tuple[str, int]], list[int]]:
    """The rows the cut loop `cuts` cuts by, in call order, to the case's bound, and the degrees of its packed cuts.

    Each row is paired with the loop that cut by it.  A table loop's cut is
    recorded at `EchelonBasis.add`, which receives each of its rows.  A
    packed cut is recorded at `_narrow_cut`, as its distinct nonzero rows,
    those an echelon basis of its span would receive.
    """
    pres, bound = ECHELON_CASES[name]
    nq._narrow_table()  # its echelon forms are not cuts
    added, packed_degrees = [], []
    add, narrow_cut = EchelonBasis.add, nq._narrow_cut

    def recording_add(basis, v):
        added.append(("table", v))
        return add(basis, v)

    def recording_narrow_cut(table, n, rows):
        added.extend(("packed", r) for r in dict.fromkeys(rows) if r)
        packed_degrees.append(n + 1)
        return narrow_cut(table, n, rows)

    with mock.patch.object(EchelonBasis, "add", recording_add), mock.patch.object(
        nq, "_narrow_cut", recording_narrow_cut
    ):
        next(islice(cuts(pres), bound - 1, None))
    return added, packed_degrees


def _summary(rows: list[int]) -> tuple[int, str]:
    """The number of the rows and the digest of their comma-joined hex."""
    return len(rows), hashlib.sha256(",".join(format(v, "x") for v in rows).encode()).hexdigest()


@pytest.mark.parametrize("name,full_jacobi", list(ADDED_ROWS), ids=[f"{n} full_jacobi={f}" for n, f in ADDED_ROWS])
def test_nq_echelon_rows_are_frozen(name, full_jacobi):
    """The table loop's relation rows reach the echelon basis in symbol order, each once, in the same order."""
    added, packed_degrees = _record(lambda pres: _table_cuts(pres, full_jacobi), name)
    assert packed_degrees == []
    assert _summary([v for _, v in added]) == ADDED_ROWS[name, full_jacobi]


# the same record for the default loop, the packed loop: per packed cut, the alternation
# rows and the span basis it reads off its planes, then the relator rows.  On R(2, 1)
# these are the table loop's 59 rows, reordered within some cuts.  The other two cases
# restart the table loop at their first degree wider than 2, so their record is the
# packed cuts' rows up to that degree, then exactly the table loop's record.
PACKED_ROWS = {"R(2,1)@48": (59, "55fada6c3444a474581bb4d3feefac666021b6b97ddaa2c102260e1cd413e889")}
FIRST_WIDE = {"free@10": 4, "y x y x y@12": 4}  # the first degree wider than 2


@pytest.mark.parametrize("name", list(ECHELON_CASES))
def test_packed_echelon_rows_are_frozen(name):
    added, packed_degrees = _record(_cuts, name)
    packed = [v for loop, v in added if loop == "packed"]
    table = [v for loop, v in added if loop == "table"]
    assert added == [("packed", v) for v in packed] + [("table", v) for v in table]
    if name in PACKED_ROWS:
        assert packed_degrees == list(range(2, ECHELON_CASES[name][1] + 1))
        assert _summary(packed) == PACKED_ROWS[name]
        assert table == []
    else:
        assert packed_degrees == list(range(2, FIRST_WIDE[name] + 1))
        assert _summary(table) == ADDED_ROWS[name, False]
