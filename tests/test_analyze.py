"""The full verification pipeline and its report."""

import hashlib
import importlib
import json
from dataclasses import replace
from unittest import mock

import pytest

from bzloop import algebra, cli
from bzloop.algebra import GradedAlgebra, jacobi_check
from bzloop.analyze import AnalysisReport, CheckResult, analyze
from bzloop.bl import bl_params, presentation_R, theta_specs
from bzloop.nq import nq_compute
from bzloop.words import Y, make_word


ANALYZE = importlib.import_module("bzloop.analyze")  # the module; bzloop.analyze is the function


@pytest.fixture(scope="module")
def report22():
    return analyze(2, 1, class_bound=22)


def test_minimum_bound_passes(report22):
    assert report22.ok
    assert report22.failures() == []
    assert report22.class_bound == 22
    assert len(report22.checks) >= 20


def test_bound_validation():
    with pytest.raises(ValueError):
        analyze(2, 1, class_bound=21)


def test_analyze_builds_the_center_once():
    """`analyze` hands its graded center to `second_center`: one center, two annihilator passes."""
    center = algebra.graded_center
    with mock.patch.object(ANALYZE, "graded_center", wraps=center) as outer, mock.patch.object(
        algebra, "graded_center", wraps=center
    ) as inner, mock.patch.object(algebra, "_annihilator", wraps=algebra._annihilator) as passes:
        assert analyze(2, 1, class_bound=22).ok
    assert (outer.call_count, inner.call_count, passes.call_count) == (1, 0, 2)


def test_default_bound_is_m_plus_two_periods():
    p = bl_params(2, 1)
    assert analyze(2, 1).class_bound == p.m + 2 * p.d == 48


def test_center_census_at_22(report22):
    assert [e.degree for e in report22.centers] == [5, 7, 15, 20, 21]
    assert [e.degree for e in report22.second_center_extras] == [19]
    for entry in report22.centers + report22.second_center_extras:
        assert len(entry.basis_labels) == 1
        assert len(entry.matched_theta) == 1


def test_quotient_summary(report22):
    assert report22.quotient_dims[1:] == (2,) + (1,) * 19
    assert set(report22.quotient_centralizers) <= {"x", "y"}
    assert report22.quotient_constituents == (4, 3, 4, 4, 3)


def test_dims_reflect_theta_weights(report22):
    two_dim = [d for d in range(1, 23) if report22.dims[d] == 2]
    assert two_dim == [1, 5, 7, 15, 19, 20, 21]


def test_check_names_are_stable(report22):
    names = [c.name for c in report22.checks]
    assert names[0] == "relators-vanish"
    assert "quotient-equals-construction" in names
    assert "census-chain-nonzero" in names
    assert len(names) == len(set(names))


def test_json_round_trip_is_deterministic(report22):
    blob1 = json.dumps(report22.to_json_dict(), sort_keys=True)
    blob2 = json.dumps(analyze(2, 1, class_bound=22).to_json_dict(), sort_keys=True)
    assert blob1 == blob2
    decoded = json.loads(blob1)
    assert decoded["format"] == "bl-analysis/1"
    assert decoded["ok"] is True
    assert decoded["params"]["d"] == 14
    assert decoded["dims"] == list(report22.dims[1:])
    assert decoded["centers"][0]["degree"] == 5


def test_render_text(report22):
    text = report22.render_text()
    assert text.rstrip().endswith("ALL CHECKS PASS")
    assert str(report22) == text
    for check in report22.checks:
        assert check.name in text


def test_check_result_str():
    assert str(CheckResult("demo", True, "3 instances")) == "demo: pass (3 instances)"
    assert str(CheckResult("demo", False, "")) == "demo: FAIL"


def test_failing_report_renders_failure(report22):
    bad = AnalysisReport(
        params=report22.params,
        class_bound=report22.class_bound,
        dims=report22.dims,
        centers=report22.centers,
        second_center_extras=report22.second_center_extras,
        quotient_dims=report22.quotient_dims,
        quotient_centralizers=report22.quotient_centralizers,
        quotient_constituents=report22.quotient_constituents,
        checks=report22.checks[:-1] + (CheckResult("demo", False, "broken"),),
    )
    assert not bad.ok
    assert [c.name for c in bad.failures()] == ["demo"]
    text = bad.render_text()
    assert f"FAILED: 1 of {len(bad.checks)} checks" in text
    assert not bad.to_json_dict()["ok"]


def test_larger_pair_passes():
    report = analyze(2, 2, class_bound=42)
    assert report.ok
    assert report.quotient_constituents[:2] == (8, 7)


def _spanned(report) -> CheckResult:
    return next(c for c in report.checks if c.name == "two-dim-components-spanned")


def test_a_partner_of_another_weight_fails_the_span_check(report22, monkeypatch):
    """A partner one letter too long lands outside its component's weight, and the check sees it.

    For kind 3 of (2,1) the longer word is nonzero and independent of the
    theta word, so only its weight gives it away.
    """
    assert _spanned(report22).passed

    def longer_upper_partners(p, max_weight):
        return [
            replace(s, partner=make_word(*s.partner.items, Y)) if s.kind == 3 else s
            for s in theta_specs(p, max_weight=max_weight)
        ]

    monkeypatch.setattr(ANALYZE, "theta_specs", longer_upper_partners)
    report = ANALYZE.analyze(2, 1, class_bound=22)
    assert [c.name for c in report.failures()] == ["two-dim-components-spanned"]
    assert _spanned(report).detail == "1/6 failed: weight 15"


# -- wrong tables: a failed report, never an exception ---------------------------

@pytest.fixture(scope="module")
def M48():
    return nq_compute(presentation_R(2, 1), 48)


def _flipped(M, d: int, i: int, gi: int, bit: int) -> GradedAlgebra:
    """M with bit `bit` of [e(d,i), x or y] flipped."""
    rows = [[list(r) for r in layer] for layer in M.action[1:]]
    rows[d - 1][i][gi] ^= 1 << bit
    return GradedAlgebra(M.class_bound, M.basis[1:], [tuple(tuple(r) for r in layer) for layer in rows])


def _flips(M):
    for d in range(1, M.class_bound):
        for i in range(M.dim(d)):
            for gi in (0, 1):
                for bit in range(M.dim(d + 1)):
                    yield d, i, gi, bit


def _analyze_on(monkeypatch, table):
    monkeypatch.setattr(ANALYZE, "nq_compute", lambda pres, bound: table)
    return ANALYZE.analyze(2, 1)


def test_every_single_bit_flip_gives_a_report(M48, monkeypatch):
    """No flip of an action bit of M(2,1)@48 raises; a report passes only on a Lie table.

    The 11 flips that pass leave a table on which jacobi_check passes too
    (antisymmetry included) and every relator vanishes.  Each of them
    changes the action row [e(d-1, parent), g] that defines a basis
    element, which no check compares with the element.
    """
    names = [c.name for c in analyze(2, 1).checks]
    failed = passed = 0
    for flip in _flips(M48):
        bad = _flipped(M48, *flip)
        report = _analyze_on(monkeypatch, bad)
        assert [c.name for c in report.checks] == names, flip
        if report.ok:
            passed += 1
            assert jacobi_check(bad).ok, flip
        else:
            failed += 1
    assert (failed, passed) == (137, 11)


def test_a_quotient_that_fails_fails_its_stage(M48, monkeypatch):
    report = _analyze_on(monkeypatch, _flipped(M48, 10, 0, 0, 0))
    stage = [c for c in report.checks if c.name.startswith("quotient-")]
    assert [c.name for c in stage] == [
        "quotient-maximal-class",
        "quotient-equals-construction",
        "quotient-centralizer-sequence",
        "quotient-constituents",
    ]
    assert not any(c.passed for c in stage)
    assert all(c.detail == "degree 11: quotient candidates failed to span" for c in stage)
    assert report.quotient_dims == (0,) and report.quotient_constituents == ()


def test_cli_analyze_exits_1_on_a_table_that_broke_the_quotient(M48, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(ANALYZE, "nq_compute", lambda pres, bound: _flipped(M48, 15, 1, 0, 0))
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--json", str(tmp_path / "r.json")]) == 1
    out = capsys.readouterr()
    assert "quotient-centralizer-sequence: FAIL (degree 14: centralizer is not one-dimensional)" in out.out
    assert out.err == ""
    assert json.loads((tmp_path / "r.json").read_text())["ok"] is False


# The CLI byte form (sha256) of failing reports that between them fail every
# labelled family; each flips bit `bit` of [e(d,i), x or y] in M(2,1)@48.
FAILING_REPORTS = {
    (3, 0, 1, 0): "6f581a54d1d1d83c774386b59f5baddae12218b1b2f3ad1dd7f2b40d35318998",
    (4, 0, 0, 0): "fdbc0aaf30f4846567632094b6797a257344c29b345393822fcd0b69b6f3db95",
    (4, 0, 0, 1): "b8071b4d0d2e116db0762df9d8992c6c0c3aa08f689ddaa8596a1e93bc5dea28",
    (5, 1, 1, 0): "4c4ccbdf5f58f7d489fbac95d417c265b89c5bb873db04f943f9541814e56c35",
    (7, 0, 0, 0): "7ce0e07eb3c01aa0d8d123688a078d27205ee9087e0376fbb45b76807d409c83",
    (9, 0, 1, 0): "10057264484275dc57f48b63320fbf7e6ab146f3ae9e8232f3dae4300a249f2c",
    (10, 0, 1, 0): "156d77586c8f97edc2848616e610e7369c11afb002819a4fa5aa2b283606332a",
    (13, 0, 1, 0): "913df94d2b4b38d4f5e95ba4a4d68ad7707fd10ffc55af5a97b76681d2924ccf",
    (18, 0, 0, 0): "45b3a5b28b57dee9cf3e3fa669fe05e45cd248bbfba4c4127dc0cb2cfdeffac6",
    (19, 0, 1, 0): "0a57a49d16de2dfa7cb8038bfeb859870511102573c1ba748b9de95a7610e5a0",
    (46, 0, 1, 1): "ca15bbf42802d17e7cd6e9223cc3f387e7da0c07ac95553483e1d40665422502",
}


@pytest.mark.parametrize("flip", list(FAILING_REPORTS), ids=lambda f: "flip{}".format(",".join(map(str, f))))
def test_failing_report_bytes_are_frozen(M48, monkeypatch, flip):
    report = _analyze_on(monkeypatch, _flipped(M48, *flip))
    assert not report.ok
    data = (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == FAILING_REPORTS[flip]
