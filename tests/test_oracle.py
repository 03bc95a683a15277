"""Independent associative-envelope oracle, cross-checked against the engine."""

import pytest
from hypothesis import given, strategies as st

from bzloop.gf2 import echelonize, iter_bits
from bzloop.nq import Presentation, nq_compute
from bzloop.bl import presentation_R
from bzloop.oracle import (
    ORACLE_MAX_CLASS,
    assoc_bracket,
    bracket_letter,
    free_nq_oracle,
    lie_word_to_assoc,
    witt_dimension,
)
from bzloop.words import CommutatorWord, GenPower, X, Y, make_word, parse_word


WITT_12 = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335)


def test_witt_frozen():
    assert tuple(witt_dimension(n) for n in range(1, 13)) == WITT_12
    with pytest.raises(ValueError):
        witt_dimension(0)


def test_free_oracle_matches_witt():
    assert free_nq_oracle((), 10) == (0,) + WITT_12[:10]


def test_oracle_matches_engine_on_presentation():
    pres = presentation_R(2, 1)
    M = nq_compute(pres, 12)
    assert free_nq_oracle(pres.relators, 12) == M.dims


def test_oracle_bound_validation():
    with pytest.raises(ValueError):
        free_nq_oracle((), 0)
    with pytest.raises(ValueError):
        free_nq_oracle((), ORACLE_MAX_CLASS + 1)
    with pytest.raises(ValueError):
        free_nq_oracle([parse_word("x")], 4)


def test_oracle_never_expands_a_relator_past_its_class_bound(monkeypatch):
    """A relator heavier than the class bound imposes nothing, so its letters are never built."""
    letters = CommutatorWord.letters

    def spy(word):
        assert word.weight <= 10, "a relator past the class bound was expanded"
        return letters(word)

    monkeypatch.setattr(CommutatorWord, "letters", spy)
    light = parse_word("y x y")
    heavy = make_word(Y, GenPower(X, 10**6))
    assert free_nq_oracle([light, heavy], 10) == free_nq_oracle([light], 10)


# -- associative expansion ---------------------------------------------------


def test_lie_word_to_assoc_small():
    # [y, x] = yx + xy; with x -> 0, y -> 1 and the first letter most
    # significant, the monomial codes are 0b10 and 0b01.
    assert lie_word_to_assoc((Y, X)) == 0b110
    assert lie_word_to_assoc((X,)) == 0b01
    assert lie_word_to_assoc((Y, Y)) == 0
    assert lie_word_to_assoc("yx") == 0b110  # character letters work too


@given(st.integers(1, 6), st.integers(1), st.integers(0, 1))
def test_bracket_letter_matches_assoc_bracket(degree, seed, g):
    mask = seed % (1 << (1 << degree))
    assert bracket_letter(mask, degree, g) == assoc_bracket(mask, degree, 1 << g, 1)


@given(
    st.integers(10, 14),
    st.lists(st.integers(0, (1 << 14) - 1), min_size=1, max_size=8),
    st.integers(0, 1),
)
def test_bracket_letter_matches_assoc_bracket_on_wide_masks(degree, words, g):
    """Sparse masks over 2^10 to 2^14 words: every word's code doubles, however wide."""
    mask = 0
    for word in words:
        mask |= 1 << (word % (1 << degree))
    assert bracket_letter(mask, degree, g) == assoc_bracket(mask, degree, 1 << g, 1)


def test_bracket_squares_vanish():
    for g in (0, 1):
        assert bracket_letter(1 << g, 1, g) == 0
    for degree, poly in ((2, lie_word_to_assoc((Y, X))), (3, lie_word_to_assoc((Y, X, X)))):
        assert assoc_bracket(poly, degree, poly, degree) == 0


# -- engine cross-checks ------------------------------------------------------


@pytest.fixture(scope="module")
def F8():
    return nq_compute(Presentation(()), 8)


def _assoc_of(F, degree, mask):
    out = 0
    for i in iter_bits(mask):
        out ^= lie_word_to_assoc(parse_word(F.labels[degree][i]).letters())
    return out


def test_engine_free_basis_is_independent(F8):
    for d in range(1, 9):
        rows = [lie_word_to_assoc(parse_word(label).letters()) for label in F8.labels[d]]
        assert echelonize(rows, 1 << d).rank == len(rows) == witt_dimension(d)


def test_engine_brackets_match_envelope(F8):
    checked = 0
    for d1 in range(1, 8):
        for d2 in range(d1, 9 - d1):
            for i in range(F8.dim(d1)):
                u_assoc = _assoc_of(F8, d1, 1 << i)
                for j in range(F8.dim(d2)):
                    engine = F8.bracket(
                        F8.element(d1, 1 << i), F8.element(d2, 1 << j)
                    ).bits
                    envelope = assoc_bracket(
                        u_assoc, d1, _assoc_of(F8, d2, 1 << j), d2
                    )
                    assert _assoc_of(F8, d1 + d2, engine) == envelope
                    checked += 1
    assert checked == 134
