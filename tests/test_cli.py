"""Command-line interface: output shapes and exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bzloop import cli, nq
from bzloop.analyze import CheckResult
from bzloop.bl import presentation_R
from bzloop.nq import nq_compute
from bzloop.words import CommutatorWord, parse_word


def test_present(capsys):
    assert cli.run(["present", "--g", "2", "--h", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "g=2 h=1: q=2 eta=3 d=14 m=20"
    assert "y x y" in lines
    assert "y x^3 y x^2 y x^2 y" in lines
    assert len(lines) == 1 + 6  # header plus one line per relator


def test_nq(capsys):
    assert cli.run(["nq", "--g", "2", "--h", "1", "--class", "8"]) == 0
    out = capsys.readouterr().out
    assert "dims:" in out
    assert "y x^4, y x^3 y" in out  # the first two-dimensional component


def test_construct(capsys):
    assert cli.run(["construct", "--g", "2", "--h", "1", "--class", "6"]) == 0
    out = capsys.readouterr().out
    assert "y x^3 y" in out
    assert "[.,x]" in out and "[.,y]" in out


# sha256 of the exact stdout of `bzloop <command> --g 2 --h 1 --class 12`:
# every label and every action row, byte for byte
LABEL_OUTPUT = {
    "nq": "5c400cae98b9efb7302064851a3f8f0a5cf9370e092ce251b7a7935698082e75",
    "construct": "6246cb96868f85202c5f066fbcaa48e94ef8735879ae2403a5871d51c690551f",
}


@pytest.mark.parametrize("command", list(LABEL_OUTPUT))
def test_label_output_bytes_are_frozen(command, capsys):
    assert cli.run([command, "--g", "2", "--h", "1", "--class", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LABEL_OUTPUT[command]


# sha256 of the exact stdout of `bzloop eval --g 2 --h 1 --word WORD`: two
# nonzero words, whose value is read at their whole weight
EVAL_OUTPUT = {
    "y x^3 (y x^2)^2": "c3a52569a5b2881af81cd934223d30ed092968b70da059cdc33ef0d529908038",
    "y x^3 (y x^2 (y x^3)^2 y x^2)^8": "4a89184d70fb8a0fae00afed5478a0af8e57a57a0030734b54cbec52d5aa6692",
}


@pytest.mark.parametrize("word", list(EVAL_OUTPUT))
def test_eval_output_bytes_are_frozen(word, capsys):
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", word]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_OUTPUT[word]


def test_eval(capsys):
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", "y x y"]) == 0
    assert capsys.readouterr().out.strip().endswith("0")
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", "y x^4"]) == 0
    assert capsys.readouterr().out.strip().endswith("y x^4")
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", "y x^5"]) == 0
    assert capsys.readouterr().out.strip().endswith("0")


def _eval_bounds(word, monkeypatch, capsys):
    """The stdout of `eval` on (2, 1) and the last degree its cut loop cut."""
    last = 0
    cuts = nq._cuts

    def recording(pres):
        nonlocal last
        for d, table in enumerate(cuts(pres), 1):
            last = d
            yield table

    monkeypatch.setattr(nq, "_cuts", recording)
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", word]) == 0
    return capsys.readouterr().out, last


def test_eval_stops_at_the_first_zero_prefix(monkeypatch, capsys):
    """y x^5 is zero, so the weight-2000 word is zero once degree 6 is cut."""
    out, last = _eval_bounds("y x^1999", monkeypatch, capsys)
    assert out == "0\n"
    assert last == 6


def test_eval_reads_no_letter_past_the_first_zero_prefix(monkeypatch):
    """The letters are streamed from the word's runs: the run x^10000000 is never spelled out."""

    def refuse(word):
        raise AssertionError("the word's letters were spelled out")

    monkeypatch.setattr(CommutatorWord, "letters", refuse)
    value = nq.nq_eval(presentation_R(2, 1), parse_word("y x^10000000"))
    assert not value and str(value) == "0"


NONZERO_WORDS = ["x", "y", "z", "y x^4", "x y x^2 z", "y x^3 (y x^2)^2 z^3", "y x^3 (y x^2 (y x^3)^2 y x^2)^3"]


@pytest.mark.parametrize("word", NONZERO_WORDS)
def test_eval_of_a_nonzero_word_is_read_at_its_weight(word, monkeypatch, capsys):
    weight = parse_word(word).weight
    value = nq_compute(presentation_R(2, 1), weight).eval_word(parse_word(word))
    assert value
    out, last = _eval_bounds(word, monkeypatch, capsys)
    assert out == f"{value}\n"
    assert last == weight


def test_eval_bad_word(capsys):
    assert cli.run(["eval", "--g", "2", "--h", "1", "--word", "y x^"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(at position 3)" in err


def test_analyze(capsys):
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--class", "22"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("ALL CHECKS PASS")


def test_analyze_json(tmp_path, capsys):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    for path in (path1, path2):
        assert (
            cli.run(
                ["analyze", "--g", "2", "--h", "1", "--class", "22", "--json", str(path)]
            )
            == 0
        )
        capsys.readouterr()
    assert path1.read_bytes() == path2.read_bytes()
    decoded = json.loads(path1.read_text())
    assert decoded["ok"] is True
    assert decoded["class_bound"] == 22


def test_analyze_json_bytes_match_the_reference(tmp_path, capsys):
    """The bytes `analyze --g 2 --h 1 --json` writes, pinned by perfbench/refs.json."""
    refs = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text())
    path = tmp_path / "out.json"
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == refs["cli"]["analyze --g 2 --h 1 --json"]


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_analyze_refuses_an_unwritable_json_path_before_any_work(where, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("analyze ran before the --json path was opened")

    monkeypatch.setattr(cli, "analyze", never)
    path = tmp_path / "no" / "such" / "out.json" if where == "missing directory" else tmp_path
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "internal" not in err
    assert not (tmp_path / "no").exists()


def _raise(*args, **kwargs):
    raise RuntimeError("table corrupted")


@pytest.mark.parametrize("old", [b'{"old": 1}\n', None], ids=["existing file", "new path"])
@pytest.mark.parametrize(
    "argv,patch",
    [(["--class", "5"], None), ([], _raise)],
    ids=["refused --class", "internal error"],
)
def test_analyze_that_exits_2_leaves_the_json_path_as_it_was(argv, patch, old, tmp_path, monkeypatch, capsys):
    path = tmp_path / "out.json"
    if old is not None:
        path.write_bytes(old)
    if patch is not None:
        monkeypatch.setattr(cli, "analyze", patch)
    assert cli.run(["analyze", "--g", "2", "--h", "1", *argv, "--json", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert path.read_bytes() == old


def test_analyze_failure_exit_code(monkeypatch, capsys):
    real = cli.analyze

    def failing(g, h=None, class_bound=None):
        report = real(g, h, class_bound)
        return type(report)(
            params=report.params,
            class_bound=report.class_bound,
            dims=report.dims,
            centers=report.centers,
            second_center_extras=report.second_center_extras,
            quotient_dims=report.quotient_dims,
            quotient_centralizers=report.quotient_centralizers,
            quotient_constituents=report.quotient_constituents,
            checks=report.checks + (CheckResult("injected", False, "synthetic"),),
        )

    monkeypatch.setattr(cli, "analyze", failing)
    assert cli.run(["analyze", "--g", "2", "--h", "1", "--class", "22"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_verify_appendix(capsys):
    assert cli.run(["verify-appendix", "--gh-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL CLAIMS PASS" in out
    assert "g=2 h=1" in out


def test_binom(capsys):
    assert cli.run(["binom", "--check-max", "64"]) == 0
    assert "ALL ENTRIES AGREE" in capsys.readouterr().out


def test_identity_i(capsys):
    assert cli.run(["identity-i", "--Q", "4", "--s-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "ALL INSTANCES MATCH THE CORRECTED LAW" in out


def test_identity_i_rejects_bad_q(capsys):
    assert cli.run(["identity-i", "--Q", "3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()
    assert cli.run(["present", "--g", "2"]) == 2  # missing --h
    capsys.readouterr()
    assert cli.run(["present", "--g", "2", "--h", "1", "--bogus"]) == 2
    capsys.readouterr()


def test_present_invalid_params(capsys):
    assert cli.run(["present", "--g", "1", "--h", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bzloop", "present", "--g", "2", "--h", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "y x y" in proc.stdout
