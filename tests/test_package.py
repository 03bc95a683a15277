"""The package's public surface."""

import ast
import re
from pathlib import Path

import bzloop

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_binds_every_export():
    names = bzloop.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from bzloop import *", namespace)
    assert [name for name in names if name not in namespace] == []


def _library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_readme_library_example_runs_on_the_public_surface():
    source = _library_example()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "bzloop"
        for alias in node.names
    ]
    assert imported and [name for name in imported if name not in bzloop.__all__] == []
    exec(compile(source, f"{README}:Library", "exec"), {})


def test_no_private_name_crosses_a_module_seam():
    """No module of the package imports a name with a leading underscore from another."""
    crossings = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted((ROOT / "src" / "bzloop").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []
