"""Count the code lines of a package: the figure the roadmap and change log quote.

A code line is a physical line that holds part of a token other than a
comment, and is not part of a docstring (the first statement of a module,
class or function when it is a string).  Blank lines, comment lines and
docstrings do not count; each line of a statement that spans several lines
does.  Only the standard library is used.

Run it from anywhere; the directory defaults to the package, ``src/bzloop``::

    python tests/code_lines.py [DIRECTORY]

It prints the total over every ``*.py`` file under the directory.  pytest
does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of code lines in the source text of one module."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "bzloop"
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in sorted(directory.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
