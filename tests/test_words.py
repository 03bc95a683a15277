"""Word grammar: construction, normalization, parsing."""

import pytest
from hypothesis import given, strategies as st

from bzloop import words
from bzloop.words import (
    MAX_GROUP_DEPTH,
    CommutatorWord,
    GenPower,
    GroupPower,
    WordSyntaxError,
    X,
    Y,
    Z,
    extend_label,
    make_word,
    parse_word,
    word_from_letters,
)


def test_make_word_merges_adjacent_powers():
    w = make_word(Y, GenPower(X, 2), X)
    assert str(w) == "y x^3"
    assert w.weight == 4
    assert w.letters() == (Y, X, X, X)


def test_make_word_accepts_characters():
    assert str(make_word("y", "x", "x")) == "y x^2"
    assert str(make_word("z")) == "z"
    with pytest.raises(TypeError):
        make_word("q")
    with pytest.raises(ValueError):
        make_word()


@pytest.mark.parametrize("gen", ["q", "X", "", None, 0])
def test_a_power_of_a_non_letter_is_refused(gen):
    """A `GenPower` of anything but x, y, z is a `TypeError`, as a bare non-letter is."""
    with pytest.raises(TypeError, match="not a letter"):
        make_word(GenPower(gen, 1), X)
    with pytest.raises(TypeError, match="not a letter"):
        make_word(Y, GroupPower((X, GenPower(gen, 2)), 3))
    with pytest.raises(TypeError, match="not a letter"):
        make_word(Y, GenPower(gen, 0))  # refused before its zero exponent drops it


def test_zero_exponents_drop():
    w = make_word(Y, GroupPower((X, Y), 0), GenPower(X, 2))
    assert str(w) == "y x^2"


def test_single_item_group_collapses():
    w = make_word(Y, GroupPower((GenPower(X, 2),), 3))
    assert str(w) == "y x^6"


def test_group_power_str_and_letters():
    w = make_word(Y, GenPower(X, 2), GroupPower((Y, GenPower(X, 3)), 2), Y)
    assert str(w) == "y x^2 (y x^3)^2 y"
    assert w.letters() == (Y, X, X, Y, X, X, X, Y, X, X, X, Y)
    assert w.weight == 12


def test_head_peels_through_groups():
    # a leading group unrolls until a plain letter heads the word
    w = make_word(GroupPower((Y, X), 2))
    assert w.items[0] == GenPower(Y, 1)
    assert str(w) == "y x y x"
    assert w.letters() == (Y, X, Y, X)


def test_items_include_head():
    w = make_word(Y, X, X)
    assert w.items == (GenPower(Y, 1), GenPower(X, 2))
    assert w == CommutatorWord((GenPower(Y, 1), GenPower(X, 2)))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        make_word(Y, GenPower(X, -1))


def test_parse_simple():
    w = parse_word("y x^3 y")
    assert w.weight == 5
    assert w.letters() == (Y, X, X, X, Y)


def test_parse_groups():
    w = parse_word("y x^3 (y x^2 (y x^3)^2 y x^2)^1")
    assert w.weight == 18
    # the exponent-1 outer group dissolves into the surrounding item list
    assert str(w) == "y x^3 y x^2 (y x^3)^2 y x^2"


def test_parse_z():
    assert parse_word("z x").letters() == (Z, X)


@pytest.mark.parametrize(
    "text, position",
    [
        ("y x^", 3),
        ("y x^0", 4),
        ("y (x", 2),
        ("y )", 2),
        ("y ()", 2),
        ("y a", 2),
        ("", 0),
        ("   ", 0),
        # an exponent is ASCII digits: no superscript, Arabic-Indic or fullwidth digit
        ("y x^\u00b2", 3),
        ("x^\u0663", 1),
        ("x^\uff11", 1),
        # longer than any int-string limit allows, the least (640) included
        pytest.param("x^" + "9" * 5000, 1, id="5000-digit exponent"),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text)
    assert err.value.position == position


def test_parse_accepts_an_exponent_of_the_most_digits():
    exp = "9" * words._EXPONENT_DIGITS
    assert parse_word(f"y x^{exp}").weight == 1 + int(exp)


def _nested(depth: int) -> str:
    return "(" * depth + "x y" + ")" * depth


def test_parse_accepts_groups_nested_to_the_bound():
    assert parse_word(_nested(MAX_GROUP_DEPTH)) == parse_word("x y")


@pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 1000, 100000])
def test_parse_refuses_groups_nested_past_the_bound(depth):
    """The first '(' past the bound is refused, long before the stack runs out."""
    with pytest.raises(WordSyntaxError) as err:
        parse_word(_nested(depth))
    assert err.value.position == MAX_GROUP_DEPTH
    assert "nested deeper" in str(err.value)


def _nested_group(depth: int) -> GroupPower:
    """(...((x y)^2 x)... x), a group nested `depth` deep, built without the parser."""
    g = GroupPower((GenPower(X, 1), GenPower(Y, 1)), 2)
    for _ in range(depth - 1):
        g = GroupPower((g, GenPower(X, 1)), 1)
    return g


def test_make_word_accepts_groups_nested_to_the_bound():
    w = make_word(Y, _nested_group(MAX_GROUP_DEPTH))
    assert str(w) == "y (x y)^2 x^99"
    assert w.weight == 1 + 4 + MAX_GROUP_DEPTH - 1


@pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 2000])
def test_make_word_refuses_groups_nested_past_the_bound(depth):
    """A ValueError before the normalizer recurses past the bound, not a RecursionError."""
    with pytest.raises(ValueError, match="nested deeper"):
        make_word(Y, _nested_group(depth))


def test_a_word_built_directly_is_normalized():
    """The constructor normalizes as `make_word` does: letters, spliced groups, merged runs."""
    assert CommutatorWord((X, Y)).weight == 2
    assert CommutatorWord((X, Y)).items == (GenPower(X, 1), GenPower(Y, 1))
    assert CommutatorWord((Y, X, GroupPower((Y, X), 1), GenPower(X, 2))) == make_word(Y, X, Y, GenPower(X, 3))
    assert CommutatorWord((GroupPower((Y, X), 2),)) == make_word(Y, X, Y, X)
    with pytest.raises(ValueError, match="empty word"):
        CommutatorWord((GenPower(X, 0),))


def _spliced_group(depth: int) -> GroupPower:
    """x inside `depth` nested groups of exponent 1, built without the parser."""
    g = GenPower(X, 1)
    for _ in range(depth):
        g = GroupPower((g,), 1)
    return g


@pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 3000])
def test_a_word_built_directly_refuses_groups_nested_past_the_bound(depth):
    """A ValueError at construction, so neither `.weight` nor `Presentation` can recurse past it."""
    with pytest.raises(ValueError, match="nested deeper"):
        CommutatorWord((GenPower(Y, 1), _spliced_group(depth)))


_letters = st.lists(st.sampled_from([X, Y, Z]), min_size=1, max_size=30)


@given(_letters)
def test_letters_roundtrip(letters):
    w = word_from_letters(letters)
    assert w.letters() == tuple(letters)
    assert w.weight == len(letters)


@given(_letters)
def test_str_parse_fixpoint(letters):
    w = word_from_letters(letters)
    again = parse_word(str(w))
    assert again == w
    assert str(again) == str(w)


def test_str_parse_fixpoint_with_groups():
    text = "y x^3 (y x^2 (y x^3)^2 y x^2)^2 x"
    w = parse_word(text)
    assert parse_word(str(w)) == w


_exps = st.integers(0, 3)
_letter_consts = st.sampled_from([X, Y, Z])
# a letter part is a constant or its character
_leaves = st.one_of(
    _letter_consts,
    st.sampled_from(["x", "y", "z"]),
    st.builds(GenPower, _letter_consts, _exps),
)


def _item_trees(depth: int):
    """Word parts whose groups nest at most `depth` deep."""
    if depth == 0:
        return _leaves
    return st.one_of(
        _leaves,
        st.builds(GroupPower, st.lists(_item_trees(depth - 1), max_size=4).map(tuple), _exps),
    )


def _expand(parts) -> list:
    """The plain letters of a part list, each as its character, by naive recursion."""
    out = []
    for part in parts:
        if isinstance(part, GenPower):
            out += [str(part.gen)] * part.exp
        elif isinstance(part, GroupPower):
            out += _expand(part.body) * part.exp
        else:
            out.append(str(part))
    return out


@given(st.lists(_item_trees(3), max_size=5))
def test_nested_words_match_a_naive_expansion(tree):
    expected = _expand(tree)
    if not expected:
        with pytest.raises(ValueError):
            make_word(*tree)
        return
    w = make_word(*tree)
    assert [str(letter) for letter in w.letters()] == expected
    assert w.weight == len(expected) == sum(count for _, count in w.runs())
    text = str(w)
    assert text[0] in "xyz"
    again = parse_word(text)
    assert again == w
    assert str(again) == text


@given(st.lists(st.sampled_from([X, Y]), min_size=1, max_size=60))
def test_extended_label_is_the_word_label(letters):
    label = str(letters[0])
    for letter in letters[1:]:
        label = extend_label(label, letter)
    assert label == str(make_word(*letters))


class _CountedPower(GenPower):
    """A power that counts the reads of its letter: the runs walker reads it once per run it yields."""

    reads = 0

    def __getattribute__(self, name):
        if name == "gen":
            type(self).reads += 1
        return super().__getattribute__(name)


def _long_word(repeats: int) -> CommutatorWord:
    """y x^5 (y x)^repeats, its group made of counted powers."""
    return CommutatorWord((Y, GenPower(X, 5), GroupPower((_CountedPower(Y, 1), _CountedPower(X, 1)), repeats)))


def test_a_walk_that_stops_early_expands_no_group_past_its_stop():
    """The runs are yielded as the walk reaches them, so a walk that stops early reads no run past its stop.

    y x^5 is zero in the quotient of R(2, 1), so `nq_eval` stops at degree 6,
    before the group; `eval_word` on a class-8 algebra stops once the word
    passes degree 8, two repeats into the group.
    """
    from bzloop.bl import presentation_R
    from bzloop.nq import nq_compute, nq_eval

    word = _long_word(100_000)
    _CountedPower.reads = 0
    assert not nq_eval(presentation_R(2, 1), word)
    assert _CountedPower.reads == 0
    word = CommutatorWord((Y, GenPower(X, 3), GroupPower((_CountedPower(Y, 1), _CountedPower(X, 1)), 100_000)))
    _CountedPower.reads = 0
    assert not nq_compute(presentation_R(2, 1), 8).eval_word(word)
    assert 0 < _CountedPower.reads <= 6
