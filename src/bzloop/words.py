"""Left-normed commutator words over the generators x, y and the sum z = x+y.

A word like ``y x^3 (y x^2 (y x^3)^2 y x^2)^1`` is read left-normed:
``[a b c]`` means ``[[a b] c]``, a trailing exponent repeats the letter or
parenthesized group, and the weight is the total letter count.  Words are
normalized on construction: zero exponents vanish, exponent-1 groups are
spliced into their context, single-letter groups collapse, and adjacent
equal letters merge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union


class GeneratorSymbol(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"

    def __str__(self) -> str:
        return self.value


X = GeneratorSymbol.X
Y = GeneratorSymbol.Y
Z = GeneratorSymbol.Z

_BY_CHAR = {s.value: s for s in GeneratorSymbol}


@dataclass(frozen=True)
class GenPower:
    """A letter raised to a positive exponent, e.g. x^3."""

    gen: GeneratorSymbol
    exp: int

    @property
    def weight(self) -> int:
        return self.exp

    def __str__(self) -> str:
        return str(self.gen) if self.exp == 1 else f"{self.gen}^{self.exp}"


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


def _push(out: list, item: Item) -> None:
    if isinstance(item, GenPower) and out and isinstance(out[-1], GenPower) and out[-1].gen is item.gen:
        out[-1] = GenPower(item.gen, out[-1].exp + item.exp)
    else:
        out.append(item)


def _normalize(items: Iterable[Item], depth: int = 0) -> tuple:
    out: list[Item] = []
    for item in items:
        if isinstance(item, GeneratorSymbol):
            item = GenPower(item, 1)
        elif isinstance(item, str) and item in _BY_CHAR:
            item = GenPower(_BY_CHAR[item], 1)
        if isinstance(item, GenPower):
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
    """A left-normed commutator word: leftmost letter plus remaining items."""

    head: GeneratorSymbol
    tail: tuple

    @property
    def weight(self) -> int:
        return 1 + sum(item.weight for item in self.tail)

    def items(self) -> tuple:
        """The full normalized item sequence, head included."""
        out: list[Item] = [GenPower(self.head, 1)]
        for item in self.tail:
            _push(out, item)
        return tuple(out)

    def runs(self) -> tuple[tuple[GeneratorSymbol, int], ...]:
        """The letters as (letter, run length) pairs, with groups expanded."""
        out: list[tuple[GeneratorSymbol, int]] = []

        def emit(items):
            for item in items:
                if isinstance(item, GenPower):
                    out.append((item.gen, item.exp))
                else:
                    for _ in range(item.exp):
                        emit(item.body)

        emit(self.items())
        return tuple(out)

    def letters(self) -> tuple[GeneratorSymbol, ...]:
        return tuple(gen for gen, exp in self.runs() for _ in range(exp))

    def __str__(self) -> str:
        return " ".join(str(item) for item in self.items())


def make_word(*parts) -> CommutatorWord:
    """Build a word from letters, GenPower and GroupPower parts.

    Letters may be GeneratorSymbol values or the characters 'x','y','z';
    zero exponents are dropped and the result is normalized.  Groups nested
    deeper than `MAX_GROUP_DEPTH` are a `ValueError`.
    """
    items: list[Item] = []
    for part in parts:
        if isinstance(part, GeneratorSymbol):
            items.append(GenPower(part, 1))
        elif isinstance(part, str) and part in _BY_CHAR:
            items.append(GenPower(_BY_CHAR[part], 1))
        elif isinstance(part, (GenPower, GroupPower)):
            items.append(part)
        else:
            raise TypeError(f"not a word part: {part!r}")
    normalized = _normalize(items)
    # Peel group repetitions until the word starts with a plain letter.
    while normalized and isinstance(normalized[0], GroupPower):
        first = normalized[0]
        rest = (GroupPower(first.body, first.exp - 1),) + normalized[1:]
        normalized = _normalize(first.body + rest)
    if not normalized:
        raise ValueError("empty word")
    first = normalized[0]
    head_tail = (GenPower(first.gen, first.exp - 1),) + normalized[1:]
    return CommutatorWord(first.gen, _normalize(head_tail))


def word_from_letters(letters: Iterable[GeneratorSymbol]) -> CommutatorWord:
    return make_word(*letters)


def extend_label(label: str, gen: GeneratorSymbol) -> str:
    """The label of a word's letters followed by `gen`, given the label of the letters.

    A label is the run-length text ``str(make_word(*letters))``, such as
    ``y x^2 y``; only its last run is read and rewritten.
    """
    c = gen._value_  # a plain attribute; `.value` is a Python-level descriptor
    head, _, last = label.rpartition(" ")
    if last[0] != c:
        return f"{label} {c}"
    exp = int(last[2:]) + 1 if len(last) > 1 else 2
    return f"{head} {c}^{exp}" if head else f"{c}^{exp}"


class WordSyntaxError(ValueError):
    """Raised on malformed word text; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _parse_exponent(text: str, i: int) -> tuple[int, int]:
    """Parse an optional ^INT immediately at offset i; default exponent 1."""
    if i >= len(text) or text[i] != "^":
        return 1, i
    j = i + 1
    start = j
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == start:
        raise WordSyntaxError("expected digits after '^'", i)
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
            elif c in _BY_CHAR:
                exp, i2 = _parse_exponent(text, i + 1)
                items.append(GenPower(_BY_CHAR[c], exp))
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
