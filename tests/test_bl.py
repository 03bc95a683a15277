"""Bi-Zassenhaus loop algebras: parameters, sequences, words, presentation."""

import hashlib
import json
from unittest import mock

import pytest

from bzloop.bl import (
    BlParams,
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
from bzloop.words import X, Y, make_word, parse_word

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


def test_centralizer_sequence_matches_construction():
    for g, h in ((2, 1), (2, 2)):
        bound = bl_params(g, h).m // 2
        B = construct_bl(g, h, bound)
        assert centralizer_sequence(B) == bl_centralizer_sequence(g, h, up_to=bound - 1)


def test_constituents_from_raw_entries():
    # entries start at degree 2; the count starts at the virtual degree-1 copy
    assert constituent_lengths(("y", "y", "x")) == (4,)
    # a trailing run with no terminator is dropped
    assert constituent_lengths(("y", "y", "x", "y", "y")) == (4,)
    assert constituent_lengths(("y", "x", "other", "y", "x")) == (3, 1, 2)
    assert constituent_lengths(()) == ()


def test_constituents_count_virtual_first_entry():
    seq = bl_centralizer_sequence(2, 1, up_to=11)
    got = constituent_lengths(seq)
    assert isinstance(got, tuple)
    assert got == bl_constituent_lengths(2, 1, len(got))


def test_check_cl():
    assert check_CL((4, 3, 2), 2, 1)
    assert not check_CL((5,), 2, 1)
    assert not check_CL((1,), 2, 1)
    assert check_CL(constituent_lengths(("y", "y", "x")), 2, 1)  # one 2q-constituent
    assert check_CL((8, 7, 6, 4), 2, 2)
    assert not check_CL((5,), 2, 2)


def _round_trip_bounds(g, h):
    """Class bounds N whose top centralizer degree N - 1 closes a constituent or lies inside one."""
    ends = []
    for length in bl_constituent_lengths(g, h, count=6):
        ends.append(length + (ends[-1] if ends else 0))
    return sorted({3, 4} | {e + k for e in ends for k in (1, 2, 3)})


@pytest.mark.parametrize("g,h", SMALL_PAIRS)
def test_centralizer_sequence_round_trips_through_construction(g, h):
    inside = 0
    for bound in _round_trip_bounds(g, h):
        got = centralizer_sequence(construct_bl(g, h, bound))
        assert got == bl_centralizer_sequence(g, h, bound - 1), bound
        consts = constituent_lengths(got)
        assert consts == bl_constituent_lengths(g, h, len(consts) + 1)[: len(consts)], bound
        inside += sum(consts) < bound - 1
    assert inside  # some bounds end inside a constituent


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
            assert v_word(g, h, n=n).weight == 2 * p.q + p.d * n
            assert theta_word(g, h, kind=1, n=n).weight == 2 * p.q + 1 + p.d * n
            assert theta_word(g, h, kind="omega", n=n).weight == 2 * p.q + 2 + p.d * (2 * n + 1)
            assert mu_word(g, h, n=n, i=1).weight == 4 * p.q - 2 + p.d * n
            for i in range(2, 5):
                assert mu_word(g, h, n=n, i=i).weight == 2 * p.q * i + 2 * p.q - 2 + p.d * n
            for a in range(2, p.h + 2):
                expected = 4 * p.q - 2 ** (p.h + 2 - a) + 1 + p.d * n
                assert theta_word(g, h, kind=a, n=n).weight == expected
            for b in range(p.h + 2, p.g + p.h + 1):
                e = 2 ** (p.g + p.h + 1 - b)
                expected = 2 * p.q * (p.eta - e + 2) + 2 * p.q - 1 + p.d * n
                assert theta_word(g, h, kind=b, n=n).weight == expected


def test_theta_letter_identities():
    for g, h in ((2, 1), (3, 2)):
        p = bl_params(g, h)
        for n in range(2):
            v = v_word(g, h, n=n)
            assert theta_word(g, h, kind=1, n=n).letters() == v.letters() + (X,)
            omega = theta_word(g, h, kind="omega", n=n)
            assert omega.letters() == v_word(g, h, n=2 * n + 1).letters() + (X, Y)
            for b in range(p.h + 2, p.g + p.h + 1):
                i = p.eta - 2 ** (p.g + p.h + 1 - b) + 2
                mu = mu_word(g, h, n=n, i=i)
                assert theta_word(g, h, kind=b, n=n).letters() == mu.letters() + (Y,)


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
        weights = [s.weight for s in theta_specs(g, h, max_weight=p.m + 2 * p.d)]
        assert weights == sorted(weights)
        assert len(set(weights)) == len(weights)


def test_each_spec_is_v_start_then_its_suffix_and_its_partner_swaps_the_last_letters():
    """The partner is the theta word with its last letter swapped x <-> y; for omega, its last two."""
    swap = {X: Y, Y: X}
    for g, h in SMALL_PAIRS:
        p = bl_params(g, h)
        for s in theta_specs(g, h, max_weight=p.m + 2 * p.d):
            head = v_word(g, h, n=s.start).letters()
            word = s.word.letters()
            assert s.start == (2 * s.n + 1 if s.kind == "omega" else s.n)
            assert word == head + s.suffix.letters()
            if s.kind == "omega":
                assert word[-2:] == (X, Y)
                partner = word[:-2] + (Y, X)
            else:
                partner = word[:-1] + (swap[word[-1]],)
            assert head + s.partner.letters() == partner


def test_theta_words_are_built_once_and_suffixes_only_for_kept_specs():
    """`theta_specs` builds 1 word per spec and 3 per kind (suffix, partner, the word past max_weight); `theta_word` 1."""
    calls = 0

    def counting(*parts):
        nonlocal calls
        calls += 1
        return make_word(*parts)

    with mock.patch("bzloop.bl.make_word", counting):
        for g, h in SMALL_PAIRS:
            p = bl_params(g, h)
            calls = 0
            specs = theta_specs(g, h, max_weight=p.m + 2 * p.d)
            assert calls == len(specs) + 3 * (p.g + p.h + 1)
            for kind in (1, p.g + p.h, "omega"):
                calls = 0
                theta_word(g, h, kind=kind, n=1)
                assert calls == 1


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


def test_presentation_relators_are_flat_but_the_v1_one():
    """Each theta and mu relator is built from runs, in the flat normal form its letters give.

    Only the relator v_1 x y x keeps the group of v_1, as the reports print it.
    """
    for g, h in [(g, s - g) for s in range(3, 11) for g in range(2, s)]:
        rels = presentation_R(g, h).relators
        v1 = make_word(*v_word(g, h, 1).items, X, Y, X)
        assert v1 in rels
        for r in rels:
            assert r == v1 or r == make_word(*r.letters()), (g, h, str(r))


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


# -- frozen shape bytes ----------------------------------------------------------


def _shape_lines(g, h):
    """Every word, relator, sequence and the class-200 table that the parameters fix."""
    p = bl_params(g, h)
    for n in range(3):
        yield f"v_{n} {v_word(g, h, n=n)}"
        for kind in (*range(1, g + h + 1), "omega"):
            yield f"theta[{kind}]_{n} {theta_word(g, h, kind=kind, n=n)}"
        for i in range(1, p.eta + 2):
            yield f"mu_{n},{i} {mu_word(g, h, n=n, i=i)}"
    for r in presentation_R(g, h).relators:
        yield f"R {r}"
    for up_to in (2, 3, 7, 50, 131):
        yield f"cents@{up_to} " + " ".join(bl_centralizer_sequence(g, h, up_to))
    yield "constituents " + " ".join(map(str, bl_constituent_lengths(g, h, 12)))
    yield json.dumps(construct_bl(g, h, 200).to_json_dict(), indent=2)


SHAPE_DIGESTS = {
    (2, 1): "7a4df4983da7645fff667f8b291e56d64126d3a13327d62c1c637de198f04e2f",
    (2, 2): "d5f9047011b5e3086e6a998b72860bce51dff1f0f122078227440011e87a155d",
    (2, 3): "48885a49d9c5305cb12a4fb32bd53358858b136cf5eae8bc597e12a8c306142a",
    (2, 4): "7df6a4eb8a1e05c77a44140e844508e438ea58b8fc2ae42b08081872a9a455c0",
    (3, 1): "421d4043240b2ca521d6a829437de317f611fcd2fc51c002466a61be418d407d",
    (3, 2): "313ab4745b7185f869f29cfb2730aa14fd382871838e62ae6ba94e04e9519e91",
    (3, 3): "1b66e2507bd29275b318fdcccd9620f752dceda892a25eef00f74cda77522c0f",
    (4, 1): "add347fb925634e52bd8c8a16ed5f79d90101d86425a5a5bb013508c1bda9cda",
    (4, 2): "099d1b6f6f822139673d823d7db5aec99ef25ede5bb08af993db8a56826d7897",
    (5, 1): "47d5fedb8799a7a25da66a342d95de01d52cac4ac59f7f50591a9c5d38511d43",
}


@pytest.mark.parametrize("g,h", SMALL_PAIRS)
def test_shape_bytes_are_frozen(g, h):
    text = "\n".join(_shape_lines(g, h)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SHAPE_DIGESTS[g, h]
