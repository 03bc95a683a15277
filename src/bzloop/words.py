"""Left-normed commutator words over the generators x, y and the sum z = x+y.

A letter is one of the strings "x", "y", "z" (`X`, `Y`, `Z`), and a word
is the normalized tuple of its items, a plain letter first.  A word like
``y x^3 (y x^2 (y x^3)^2 y x^2)^1`` is read left-normed: ``[a b c]`` means
``[[a b] c]``, a trailing exponent repeats the letter or parenthesized
group, and the weight is the total letter count.  Words are normalized on
construction: zero exponents vanish, exponent-1 groups are spliced into
their context, single-letter groups collapse, and adjacent equal letters
merge.  `_normalize` is the one place a letter becomes a `GenPower`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

X, Y, Z = "x", "y", "z"
LETTERS = (X, Y, Z)


@dataclass(frozen=True)
class GenPower:
    """A letter raised to a positive exponent, e.g. x^3."""

    gen: str
    exp: int

    @property
    def weight(self) -> int:
        return self.exp

    def __str__(self) -> str:
        return self.gen if self.exp == 1 else f"{self.gen}^{self.exp}"


@dataclass(frozen=True)
class GroupPower:
    """A parenthesized run of items raised to an exponent, e.g. (y x^3)^2."""

    body: tuple
    exp: int

    @property
    def weight(self) -> int:
        return self.exp * sum(item.weight for item in self.body)

    def __str__(self) -> str:
        inner = " ".join(str(item) for item in self.body)
        return f"({inner})^{self.exp}"


Item = Union[GenPower, GroupPower]

# Deepest nesting of groups a word may have: the parser and the word builder
# recurse once per level, so `parse_word` and `make_word` refuse deeper words
# before they could exhaust the stack.
MAX_GROUP_DEPTH = 100

# Most ASCII digits an exponent may have, well below the least limit on
# int-string digits (640), so `int` never refuses an exponent the parser took.
_EXPONENT_DIGITS = 100


def _push(out: list, item: Item) -> None:
    if isinstance(item, GenPower) and out and isinstance(out[-1], GenPower) and out[-1].gen == item.gen:
        out[-1] = GenPower(item.gen, out[-1].exp + item.exp)
    else:
        out.append(item)


def _normalize(items: Iterable[Item], depth: int = 0) -> tuple:
    out: list[Item] = []
    for item in items:
        if item in LETTERS:
            item = GenPower(item, 1)
        if isinstance(item, GenPower):
            if item.gen not in LETTERS:
                raise TypeError(f"not a letter: {item.gen!r}")
            if item.exp < 0:
                raise ValueError("negative exponent")
            if item.exp:
                _push(out, item)
        elif isinstance(item, GroupPower):
            if item.exp < 0:
                raise ValueError("negative exponent")
            if depth == MAX_GROUP_DEPTH:
                raise ValueError(f"groups nested deeper than {MAX_GROUP_DEPTH}")
            body = _normalize(item.body, depth + 1)
            if item.exp == 0 or not body:
                continue
            if item.exp == 1:
                for sub in body:
                    _push(out, sub)
            elif len(body) == 1 and isinstance(body[0], GenPower):
                _push(out, GenPower(body[0].gen, body[0].exp * item.exp))
            else:
                out.append(GroupPower(body, item.exp))
        else:
            raise TypeError(f"not a word item: {item!r}")
    return tuple(out)


@dataclass(frozen=True)
class CommutatorWord:
    """A left-normed commutator word: its normalized items, a plain letter first.

    The constructor normalizes the items it is given, letters, `GenPower`
    and `GroupPower` parts alike, and peels group repetitions off the front
    until the word starts with a plain letter.  An empty word and groups
    nested deeper than `MAX_GROUP_DEPTH` are a `ValueError`.
    """

    items: tuple

    def __post_init__(self) -> None:
        items = _normalize(self.items)
        while items and isinstance(items[0], GroupPower):
            first = items[0]
            items = _normalize(first.body + (GroupPower(first.body, first.exp - 1),) + items[1:])
        if not items:
            raise ValueError("empty word")
        object.__setattr__(self, "items", items)

    @property
    def weight(self) -> int:
        return sum(item.weight for item in self.items)

    def runs(self) -> tuple[tuple[str, int], ...]:
        """The letters as (letter, run length) pairs, with groups expanded."""
        out: list[tuple[str, int]] = []

        def emit(items):
            for item in items:
                if isinstance(item, GenPower):
                    out.append((item.gen, item.exp))
                else:
                    for _ in range(item.exp):
                        emit(item.body)

        emit(self.items)
        return tuple(out)

    def letters(self) -> tuple[str, ...]:
        return tuple(gen for gen, exp in self.runs() for _ in range(exp))

    def __str__(self) -> str:
        return " ".join(str(item) for item in self.items)


def make_word(*parts) -> CommutatorWord:
    """Build a word from letters, GenPower and GroupPower parts: `CommutatorWord(parts)`.

    A letter is one of the strings "x", "y", "z" (`X`, `Y`, `Z`); zero
    exponents are dropped and the result is normalized.  Groups nested
    deeper than `MAX_GROUP_DEPTH` are a `ValueError`.
    """
    return CommutatorWord(parts)


def word_from_letters(letters: Iterable[str]) -> CommutatorWord:
    return make_word(*letters)


def extend_label(label: str, gen: str) -> str:
    """The label of a word's letters followed by `gen`, given the label of the letters.

    A label is the run-length text ``str(make_word(*letters))``, such as
    ``y x^2 y``; only its last run is read and rewritten.
    """
    head, _, last = label.rpartition(" ")
    if last[0] != gen:
        return f"{label} {gen}"
    exp = int(last[2:]) + 1 if len(last) > 1 else 2
    return f"{head} {gen}^{exp}" if head else f"{gen}^{exp}"


class WordSyntaxError(ValueError):
    """Raised on malformed word text; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _parse_exponent(text: str, i: int) -> tuple[int, int]:
    """Parse an optional ^INT immediately at offset i; default exponent 1.

    INT is 1 to `_EXPONENT_DIGITS` ASCII digits; anything else after the
    '^' is a `WordSyntaxError` at the '^'.
    """
    if i >= len(text) or text[i] != "^":
        return 1, i
    j = i + 1
    start = j
    while j < len(text) and text[j] in "0123456789":
        j += 1
    if not 0 < j - start <= _EXPONENT_DIGITS:
        raise WordSyntaxError(f"expected 1 to {_EXPONENT_DIGITS} digits after '^'", i)
    exp = int(text[start:j])
    if exp == 0:
        raise WordSyntaxError("zero exponent", start)
    return exp, j


def parse_word(text: str) -> CommutatorWord:
    """Parse word text like ``y x^3 (y x^2 (y x^3)^2 y x^2)^1``.

    Groups nest at most `MAX_GROUP_DEPTH` deep; the first '(' past that
    depth is a `WordSyntaxError`.
    """

    def parse_items(i: int, depth: int) -> tuple[list, int]:
        items: list[Item] = []
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in LETTERS:
                exp, i2 = _parse_exponent(text, i + 1)
                items.append(GenPower(c, exp))
                i = i2
            elif c == "(":
                if depth == MAX_GROUP_DEPTH:
                    raise WordSyntaxError(f"groups nested deeper than {MAX_GROUP_DEPTH}", i)
                body, i2 = parse_items(i + 1, depth + 1)
                if i2 >= len(text) or text[i2] != ")":
                    raise WordSyntaxError("unclosed '('", i)
                if not body:
                    raise WordSyntaxError("empty group", i)
                exp, i3 = _parse_exponent(text, i2 + 1)
                items.append(GroupPower(tuple(body), exp))
                i = i3
            elif c == ")":
                if depth == 0:
                    raise WordSyntaxError("unmatched ')'", i)
                return items, i
            else:
                raise WordSyntaxError(f"unexpected character {c!r}", i)
        return items, i

    items, i = parse_items(0, 0)
    if not items:
        raise WordSyntaxError("empty word", 0)
    return make_word(*items)
