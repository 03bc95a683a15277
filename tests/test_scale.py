"""Scale: the ladder rungs past the desk triples, at their default bounds.

These run under the interpreter's default recursion limit; bracket tables
and basis equality must not recurse once per degree.
"""

import sys

import pytest

from bzloop.analyze import analyze
from bzloop.bl import construct_bl, presentation_R
from bzloop.nq import nq_compute


@pytest.fixture(autouse=True)
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("g,h", [(5, 1), (4, 2)])
def test_analyze_passes_at_default_bound(g, h):
    report = analyze(g, h)
    assert report.class_bound == report.params.m + 2 * report.params.d
    assert report.ok, [str(c) for c in report.failures()]


def test_long_tables_compare_equal():
    assert construct_bl(2, 1, 1500) == construct_bl(2, 1, 1500)
    assert construct_bl(2, 1, 1500) != construct_bl(2, 1, 1499)


def test_jacobi_modes_agree_on_a_long_table():
    pres = presentation_R(5, 1)
    M = nq_compute(pres, 384)
    F = nq_compute(pres, 40, full_jacobi=True)
    assert M.dims[:41] == F.dims
    assert M.basis[:41] == F.basis
    assert M.action[:40] == F.action[:40]
