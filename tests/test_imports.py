"""No module imports a name it never uses, or imports a sibling twice.

A stdlib `ast` scan stands in for a linter: every name bound by an import in
`src/corings/*.py` or `tests/*.py` must be read somewhere in the same file.
`__init__.py` is exempt, since its imports are the package's re-exports, and
so are `from __future__` imports.  In `src/corings/`, a function-local
`from .X import ...` is allowed only where the file has no module-level import
from `.X`: such an import exists to break an import cycle, as `constructions`
does for `.category`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in ROOT.glob("src/corings/*.py") if p.name != "__init__.py")
FILES = sorted([*SRC, *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """Names bound by imports in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def redundant_local_imports(source):
    """(line, module) of function-local relative imports of an already imported module."""
    tree = ast.parse(source)
    top = {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1}
    return sorted({
        (node.lineno, f".{node.module}")
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in top
    })


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        (1, "os"), (2, "b")]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_a_redundant_local_import():
    source = (
        "from .a import x\n"
        "def f():\n"
        "    from .a import y\n"
        "    from .b import z\n"
        "    def g():\n"
        "        from .a import w\n"
    )
    assert redundant_local_imports(source) == [(3, ".a"), (6, ".a")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert redundant_local_imports(path.read_text()) == []
