"""Byte identity of the desk-scale reports and tables against perfbench/refs.json.

The reference file holds the sha256 of each report and table in the byte
form the CLI writes; it is read here, never written (perfbench/make_refs.py
regenerates it, only for a change meant to alter those bytes).
"""

import hashlib
import json
from pathlib import Path

import pytest

from bzloop.algebra import quotient, second_center
from bzloop.analyze import analyze
from bzloop.bl import bl_params, construct_bl, presentation_R
from bzloop.nq import nq_compute

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
