"""Bi-Zassenhaus loop algebras: parameters, sequences, words, presentation."""

import pytest

from bzloop.bl import (
    BlParams,
    CentralizerSequence,
    bl_centralizer_sequence,
    bl_constituent_lengths,
    bl_params,
    centralizer_sequence,
    check_CL,
    constituent_lengths,
    construct_bl,
    lambda_admissible,
    mu_word,
    presentation_R,
    theta_specs,
    theta_word,
    v_word,
)
from bzloop.words import X, Y, parse_word

SMALL_PAIRS = [(g, h) for g in range(2, 6) for h in range(1, 6) if g + h <= 6]


def test_params_frozen():
    assert bl_params(2, 1) == BlParams(2, 1, q=2, eta=3, d=14, m=20)
    assert bl_params(3, 1) == BlParams(3, 1, q=2, eta=7, d=30, m=36)
    assert bl_params(2, 2) == BlParams(2, 2, q=4, eta=3, d=30, m=40)


def test_params_validation():
    with pytest.raises(ValueError):
        bl_params(1, 1)
    with pytest.raises(ValueError):
        bl_params(2, 0)


def test_params_relation():
    for g, h in SMALL_PAIRS:
        p = bl_params(g, h)
        assert p.d == 2 * p.q * (p.eta + 1) - 2
        assert p.m == 2 * p.q * (p.eta + 2)


# -- centralizer and constituent sequences -----------------------------------


def test_constituent_length_pattern():
    assert bl_constituent_lengths(2, 1, 10) == (4, 3, 4, 4, 3, 3, 4, 4, 3, 3)
    assert bl_constituent_lengths(3, 1, 10) == (4, 3, 4, 4, 4, 4, 4, 4, 3, 3)
    assert bl_constituent_lengths(2, 2, 6) == (8, 7, 8, 8, 7, 7)


def test_centralizer_sequence_access():
    seq = bl_centralizer_sequence(2, 1, up_to=11)
    assert seq.max_degree == 11
    assert seq.at(1) == seq.at(2) == "y"
    assert seq.at(4) == "x"  # the first constituent closes at degree 4
    assert seq.with_virtual_first() == ("y",) + seq.entries
    with pytest.raises(ValueError):
        seq.at(12)


def test_centralizer_sequence_validation():
    with pytest.raises(ValueError):
        CentralizerSequence(("x",))
    with pytest.raises(ValueError):
        CentralizerSequence(("y", "q"))


def test_centralizer_sequence_matches_construction():
    for g, h in ((2, 1), (2, 2)):
        bound = bl_params(g, h).m // 2
        B = construct_bl(g, h, bound)
        assert centralizer_sequence(B) == bl_centralizer_sequence(g, h, up_to=bound - 1)


def test_constituents_from_raw_entries():
    assert constituent_lengths(("y", "y", "x")) == (3,)
    # a trailing run with no terminator is dropped
    assert constituent_lengths(("y", "y", "x", "y", "y")) == (3,)
    assert constituent_lengths(("y", "x", "other", "y", "x")) == (2, 1, 2)


def test_constituents_count_virtual_first_entry():
    seq = bl_centralizer_sequence(2, 1, up_to=11)
    got = constituent_lengths(seq)
    assert isinstance(got, tuple)
    assert got == bl_constituent_lengths(2, 1, len(got))


def test_check_cl():
    assert check_CL((4, 3, 2), 2, 1)
    assert not check_CL((5,), 2, 1)
    assert not check_CL((1,), 2, 1)
    assert check_CL(constituent_lengths(("y", "y", "y", "x")), 2, 1)
    assert check_CL((8, 7, 6, 4), 2, 2)
    assert not check_CL((5,), 2, 2)


# -- direct construction -------------------------------------------------------


def test_construct_bl_labels():
    B = construct_bl(2, 1, 8)
    assert B.labels[1:] == (
        ("x", "y"),
        ("y x",),
        ("y x^2",),
        ("y x^3",),
        ("y x^3 y",),
        ("y x^3 y x",),
        ("y x^3 y x^2",),
        ("y x^3 y x^2 y",),
    )
    assert B.dims[2:] == (1,) * 7


def test_construct_bl_validation():
    with pytest.raises(ValueError):
        construct_bl(2, 1, 1)


# -- defined words -------------------------------------------------------------


def test_v_words():
    assert str(v_word(2, 1, 0)) == "y x^3"
    assert str(v_word(2, 1, 1)) == "y x^3 y x^2 (y x^3)^2 y x^2"
    assert str(v_word(2, 1, 2)) == "y x^3 (y x^2 (y x^3)^2 y x^2)^2"
    with pytest.raises(ValueError):
        v_word(2, 1, -1)


def test_word_weights():
    for g, h in ((2, 1), (2, 2), (3, 2)):
        p = bl_params(g, h)
        for n in range(3):
            assert v_word(p, n=n).weight == 2 * p.q + p.d * n
            assert theta_word(p, kind=1, n=n).weight == 2 * p.q + 1 + p.d * n
            assert theta_word(p, kind="omega", n=n).weight == 2 * p.q + 2 + p.d * (2 * n + 1)
            assert mu_word(p, n=n, i=1).weight == 4 * p.q - 2 + p.d * n
            for i in range(2, 5):
                assert mu_word(p, n=n, i=i).weight == 2 * p.q * i + 2 * p.q - 2 + p.d * n
            for a in range(2, p.h + 2):
                expected = 4 * p.q - 2 ** (p.h + 2 - a) + 1 + p.d * n
                assert theta_word(p, kind=a, n=n).weight == expected
            for b in range(p.h + 2, p.g + p.h + 1):
                e = 2 ** (p.g + p.h + 1 - b)
                expected = 2 * p.q * (p.eta - e + 2) + 2 * p.q - 1 + p.d * n
                assert theta_word(p, kind=b, n=n).weight == expected


def test_theta_letter_identities():
    for g, h in ((2, 1), (3, 2)):
        p = bl_params(g, h)
        for n in range(2):
            v = v_word(p, n=n)
            assert theta_word(p, kind=1, n=n).letters() == v.letters() + (X,)
            omega = theta_word(p, kind="omega", n=n)
            assert omega.letters() == v_word(p, n=2 * n + 1).letters() + (X, Y)
            for b in range(p.h + 2, p.g + p.h + 1):
                i = p.eta - 2 ** (p.g + p.h + 1 - b) + 2
                mu = mu_word(p, n=n, i=i)
                assert theta_word(p, kind=b, n=n).letters() == mu.letters() + (Y,)


def test_word_validation():
    with pytest.raises(ValueError):
        theta_word(2, 1, kind=0)
    with pytest.raises(ValueError):
        theta_word(2, 1, kind=4)  # kinds run 1..g+h
    with pytest.raises(ValueError):
        theta_word(2, 1, kind="bogus")
    with pytest.raises(ValueError):
        mu_word(2, 1, i=0)


# -- theta catalogue and presentation -----------------------------------------


def test_theta_specs_frozen():
    specs = theta_specs(2, 1, 50)
    assert [s.weight for s in specs] == [5, 7, 15, 19, 20, 21, 29, 33, 35, 43, 47, 48, 49]
    assert [(s.kind, s.n) for s in specs[:6]] == [
        (1, 0),
        (2, 0),
        (3, 0),
        (1, 1),
        ("omega", 0),
        (2, 1),
    ]
    for s in specs:
        assert s.weight == s.word.weight


def test_theta_specs_weights_distinct():
    for g, h in ((2, 1), (3, 1), (2, 2)):
        p = bl_params(g, h)
        weights = [s.weight for s in theta_specs(p, max_weight=p.m + 2 * p.d)]
        assert weights == sorted(weights)
        assert len(set(weights)) == len(weights)


def test_presentation_frozen():
    rels = presentation_R(2, 1).relators
    assert [str(r) for r in rels] == [
        "y x y",
        "y x^5",
        "y x^3 y x y x",
        "y x^3 y x^2 y x^3 y x^2 y x",
        "y x^3 y x^2 (y x^3)^2 y x^3 y x",
        "y x^3 y x^2 y x^2 y",
    ]
    assert [r.weight for r in rels] == [3, 6, 8, 16, 21, 11]


def test_presentation_counts():
    for g, h in SMALL_PAIRS:
        p = bl_params(g, h)
        rels = presentation_R(g, h).relators
        assert len(rels) == p.q + p.h + p.eta
        assert len(set(map(str, rels))) == len(rels)


def test_presentation_round_trips_through_parser():
    for g, h in ((2, 1), (3, 2)):
        for r in presentation_R(g, h).relators:
            assert parse_word(str(r)) == r


def test_lambda_admissible_rule():
    assert lambda_admissible(bl_params(2, 1)) == [0]
    assert lambda_admissible(bl_params(3, 1)) == [0, 1, 2, 4]
    for g in range(2, 8):
        p = bl_params(g, 1)
        # the same set written as 2^g - 2^gamma - 1 excluded from 0 <= i < eta - 2
        excluded = {2 ** g - 2 ** gamma - 1 for gamma in range(1, g)}
        assert lambda_admissible(p) == [i for i in range(p.eta - 2) if i not in excluded]
        # exactly eta - g of the eta - 1 exponents survive, one mu relator each
        assert len(lambda_admissible(p)) == p.eta - g
