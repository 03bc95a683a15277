"""CLI input limits and the catch-all error path.

Every command that would do work past a limit has its work functions
replaced by ones that fail the test at once, so a missing guard shows up
as a failure, never as a long run.
"""

import subprocess
import sys

import pytest

from bzloop import cli
from bzloop.words import MAX_GROUP_DEPTH

# y followed by 50 nested groups, each raised to a 100-digit exponent: its
# weight has about 5000 decimal digits, more than `str` may print by default
HEAVY_WORD = "y " + "(" * 50 + "x" + (")^" + "9" * 100) * 50

# A case whose value comes from MAX_GH or MAX_CLASS is named by that limit, so
# raising the limit keeps the test id.  MAX_CLASS bounds an eval word's weight
# too: eval runs nq_compute to that class.
PAST_LIMITS = [
    pytest.param(["present", "--g", str(cli.MAX_GH - 1), "--h", "2"], id="present g + h = MAX_GH+1"),
    pytest.param(["nq", "--g", "2", "--h", str(cli.MAX_GH - 1)], id="nq g + h = MAX_GH+1"),
    pytest.param(["nq", "--g", "2", "--h", "1", "--class", str(cli.MAX_CLASS + 1)], id="nq --class MAX_CLASS+1"),
    pytest.param(
        ["analyze", "--g", "2", "--h", "1", "--class", str(cli.MAX_CLASS + 1)], id="analyze --class MAX_CLASS+1"
    ),
    pytest.param(
        ["construct", "--g", "2", "--h", "1", "--class", str(cli.MAX_CLASS + 1)], id="construct --class MAX_CLASS+1"
    ),
    pytest.param(["eval", "--g", "2", "--h", "1", "--word", f"y x^{cli.MAX_CLASS}"], id="eval word weight MAX_CLASS+1"),
    pytest.param(["eval", "--g", "2", "--h", "1", "--word", HEAVY_WORD], id="eval word weight of 5000 digits"),
    pytest.param(["verify-appendix", "--gh-max", str(cli.MAX_GH + 1)], id="verify-appendix --gh-max MAX_GH+1"),
    ["binom", "--check-max", str(cli.MAX_BINOM_ROW + 1)],
    ["identity-i", "--Q", str(2 * cli.MAX_Q)],
    ["identity-i", "--Q", "8", "--s-max", str(cli.MAX_S + 1)],
]

AT_LIMITS = [
    pytest.param(["present", "--g", str(cli.MAX_GH - 1), "--h", "1"], id="present g + h = MAX_GH"),
    pytest.param(["nq", "--g", "2", "--h", "1", "--class", str(cli.MAX_CLASS)], id="nq --class MAX_CLASS"),
    pytest.param(
        ["eval", "--g", "2", "--h", "1", "--word", f"y x^{cli.MAX_CLASS - 1}"], id="eval word weight MAX_CLASS"
    ),
    pytest.param(["verify-appendix", "--gh-max", str(cli.MAX_GH)], id="verify-appendix --gh-max MAX_GH"),
    # the former limits, g + h = 8 and class and word weight 2048, now inside the range
    ["eval", "--g", "2", "--h", "1", "--word", "y x^2047"],
    ["present", "--g", "7", "--h", "1"],
    ["nq", "--g", "2", "--h", "1", "--class", "2048"],
    ["verify-appendix", "--gh-max", "8"],
    ["verify-appendix", "--gh-max", "3"],
    ["binom", "--check-max", str(cli.MAX_BINOM_ROW)],
    ["binom", "--check-max", "0"],
    ["identity-i", "--Q", str(cli.MAX_Q), "--s-max", str(cli.MAX_S)],
    ["identity-i", "--Q", "2", "--s-max", "0"],
    # the README examples
    ["binom", "--check-max", "2048"],
    ["identity-i", "--Q", "8", "--s-max", "4"],
]

INVALID_Q = ["1", "0", "-4", "3", "6"]

GH_MAX_BELOW_3 = ["2", "0", "-5"]

NEGATIVE = [
    ["identity-i", "--Q", "8", "--s-max", "-2"],
    ["binom", "--check-max", "-3"],
]


def _work_started(*args, **kwargs):
    pytest.fail("work started past an input limit")


@pytest.fixture
def no_work(monkeypatch):
    for name in (
        "bl_params",
        "presentation_R",
        "nq_compute",
        "analyze",
        "construct_bl",
        "verify_appendix",
        "pascal_row",
        "lucas_row",
        "binom_mod2",
        "identity_I_check",
    ):
        monkeypatch.setattr(cli, name, _work_started)


def _namespace(argv):
    return cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PAST_LIMITS, ids=lambda argv: " ".join(argv))
def test_guard_rejects_values_past_each_limit(argv):
    with pytest.raises(ValueError, match="above the limit"):
        cli._check_limits(_namespace(argv))


@pytest.mark.parametrize("argv", AT_LIMITS, ids=lambda argv: " ".join(argv))
def test_guard_accepts_values_at_each_limit(argv):
    cli._check_limits(_namespace(argv))


def test_stretch_range_is_inside_the_limits():
    from bzloop.bl import bl_params

    for g in range(2, cli.MAX_GH):
        p = bl_params(g, cli.MAX_GH - g)
        assert p.m + 2 * p.d <= cli.MAX_CLASS


@pytest.mark.parametrize("argv", PAST_LIMITS, ids=lambda argv: " ".join(argv))
def test_run_exits_2_before_any_work(argv, no_work, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "above the limit" in captured.err


@pytest.mark.parametrize("Q", INVALID_Q)
def test_run_rejects_a_Q_that_is_not_a_power_of_two(Q, no_work, capsys):
    assert cli.run(["identity-i", "--Q", Q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Q must be a power of 2, at least 2\n"


@pytest.mark.parametrize("gh_max", GH_MAX_BELOW_3)
def test_run_rejects_a_gh_max_below_3(gh_max, no_work, capsys):
    """No (g, h) pair has g + h < 3, so the appendix would check nothing."""
    assert cli.run(["verify-appendix", "--gh-max", gh_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --gh-max {gh_max} is below 3, the least g + h\n"


@pytest.mark.parametrize("argv", NEGATIVE, ids=lambda argv: " ".join(argv))
def test_run_rejects_negative_counts(argv, no_work, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-2]} {argv[-1]} is negative\n"


@pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 1000, 3000])
def test_deeply_nested_word_exits_2_before_any_work(depth, no_work, capsys):
    word = "(" * depth + "x y" + ")" * depth
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: groups nested deeper than")
    assert "internal" not in captured.err


def test_heavy_word_exits_2_under_the_least_int_string_limit():
    """The limit message of a word whose weight has ~5000 digits needs no int-to-string conversion."""
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "bzloop"]
        + ["eval", "--g", "2", "--h", "1", "--word", HEAVY_WORD],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: word weight is above the limit {cli.MAX_CLASS}\n"


def test_huge_presentation_exits_2_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "bzloop", "present", "--g", "28", "--h", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: g + h = 29 is above the limit")


def test_internal_error_exits_2_without_a_traceback(monkeypatch, capsys):
    def broken(g, h):
        raise RuntimeError("table corrupted")

    monkeypatch.setattr(cli, "bl_params", broken)
    assert cli.run(["present", "--g", "2", "--h", "1"]) == 2
    assert capsys.readouterr().err == "error: internal RuntimeError: table corrupted\n"


def test_unwritable_json_path_exits_2_as_a_user_error(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "internal" not in captured.err
    assert str(path) in captured.err
    assert not path.parent.exists()
