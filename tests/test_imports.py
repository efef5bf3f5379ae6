"""No module imports a name it never uses, or imports a sibling twice.

A stdlib `ast` scan stands in for a linter: every name bound by an import in
`src/corings/*.py` or `tests/*.py` must be read somewhere in the same file.
`__init__.py` is exempt, since its imports are the package's re-exports, and
so are `from __future__` imports.  In `src/corings/`, no function imports a
sibling module (`from .X import ...` inside a function): such an import only
hides an import cycle, and a cycle is fixed by where the code lives.

A second scan finds dead definitions: every module-level function, class and
constant of `src/corings/*.py` (again bar `__init__.py`), and every method and
property of its classes bar the dunders, must be read, as a name or an
attribute, somewhere in `src/corings/` or `perfbench/` outside its own
definition.  Reads in `tests/` do not count: code only the tests run belongs
in `tests/reference.py`.  `perfbench/` counts because its tracer reads the
program's objects (`QuotientSpace.relations`).

A third check keeps the start-up path of every command lean: importing
`corings.cli` in a fresh interpreter must not load `dataclasses` or the
introspection modules it pulls in (`inspect`, `ast`, `dis`, `tokenize`), nor
`argparse` or the `gettext` and `locale` it pulls in, and a command over F_p
must load none of those, nor `fractions` or the `decimal` it imports.  A
command over Q loads `fractions` only once a value is not an integer.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in ROOT.glob("src/corings/*.py") if p.name != "__init__.py")
FILES = sorted([*SRC, *ROOT.glob("tests/*.py")])
READERS = sorted([*ROOT.glob("src/corings/*.py"), *ROOT.glob("perfbench/*.py")])


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


def local_imports(source):
    """(line, module) of the relative imports made inside a function."""
    tree = ast.parse(source)
    return sorted({
        (node.lineno, "." * node.level + (node.module or ""))
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level
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
        "import json\n"
        "def f():\n"
        "    from .a import y\n"
        "    from .b import z\n"
        "    from . import c\n"
        "    import os\n"
        "    def g():\n"
        "        from .a import w\n"
    )
    assert local_imports(source) == [(4, ".a"), (5, ".b"), (6, "."), (9, ".a")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert local_imports(path.read_text()) == []


def read_names(tree):
    """How often each name is read, as a loaded name or as an attribute, in `tree`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    )


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(line, name, node) of each module-level function, class and constant,
    and of each method and property of those classes except the dunders;
    a method is named `Class.method`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield node.lineno, t.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.lineno, node.target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_dunder(item.name)):
                    yield item.lineno, f"{node.name}.{item.name}", item


def unread_definitions(source, elsewhere):
    """(line, name) of the definitions of `source` that nothing reads.

    A definition is read when a name or attribute of its spelling (a
    method's own name) is loaded in `source` outside the definition itself,
    or counted in `elsewhere`.
    """
    tree = ast.parse(source)
    reads = read_names(tree) + elsewhere
    unread = []
    for line, name, node in definitions(tree):
        spelling = name.rpartition(".")[2]
        if reads[spelling] <= read_names(node)[spelling]:
            unread.append((line, name))
    return sorted(unread)


@cache
def file_reads(path):
    return read_names(ast.parse(path.read_text()))


def test_scan_sees_an_unread_definition():
    source = (
        "A = 1\n"
        "B: int = A\n"
        "def f(n):\n"
        "    return f(n - 1)\n"
        "class C:\n"
        "    def same(self, other):\n"
        "        return isinstance(other, C)\n"
        "def g():\n"
        "    return B\n"
    )
    assert unread_definitions(source, Counter()) == [
        (3, "f"), (5, "C"), (6, "C.same"), (8, "g")]
    assert unread_definitions(source, Counter(["f", "g"])) == [(5, "C"), (6, "C.same")]


def test_scan_sees_a_method_only_a_test_reads():
    source = (
        "class M:\n"
        "    def used(self):\n"
        "        return self.size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def spare(self):\n"
        "        return self.spare()\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "M().used()\n"
    )
    test_file = "from m import M\nassert M().spare() == M().size\n"
    assert unread_definitions(source, Counter()) == [(7, "M.spare")]
    # A read in a test file would keep it, which is why no test file is read.
    assert unread_definitions(source, read_names(ast.parse(test_file))) == []
    assert all(p.parent.name != "tests" for p in READERS)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unread_definitions(path):
    elsewhere = sum((file_reads(p) for p in READERS if p != path), Counter())
    assert unread_definitions(path.read_text(), elsewhere) == []


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")


def heavy_modules_after(code, heavy=HEAVY):
    """The modules of `heavy` loaded once `code` has run in a fresh interpreter.

    The interpreter runs without `site` (-S), so nothing but `code` and the
    interpreter's own start-up can load a module.
    """
    probe = f"{code}\nimport sys\nprint(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.split()


def test_cli_import_loads_no_introspection_modules():
    assert heavy_modules_after("import corings.cli") == []


def test_import_guard_sees_dataclasses():
    assert "dataclasses" in heavy_modules_after("import dataclasses\nimport corings.cli")


def test_import_guard_sees_argparse():
    """A parser built with `argparse` loads `locale` as well, through `gettext`."""
    code = "import argparse\nargparse.ArgumentParser()\nimport corings.cli"
    assert heavy_modules_after(code) == ["argparse", "gettext", "locale"]


Q_ONLY = ("fractions", "decimal")
# The report goes to a buffer, so that the probe's own line is all of stdout.
RUN = ("import io, sys\nimport corings.cli\nsys.stdout = io.StringIO()\n"
       "corings.cli.main(['--workspace', {!r}, *{!r}])\nsys.stdout = sys.__stdout__")


def test_a_command_over_a_prime_field_loads_no_fractions():
    workspace = ROOT / "perfbench" / "workspaces" / "monoidal-f5.json"
    argv = ["--seed", "3", "verify-monoidal", "ext"]
    assert heavy_modules_after(RUN.format(str(workspace), argv), HEAVY + Q_ONLY) == []


def test_an_integral_command_over_q_loads_no_fractions():
    workspace = ROOT / "perfbench" / "workspaces" / "cli-q.json"
    for argv in (["check", "m3"], ["base-extend", "counit_sw"]):
        assert heavy_modules_after(RUN.format(str(workspace), argv), Q_ONLY) == []


def test_fraction_guard_sees_a_command_over_q(tmp_path):
    """The 1-dim algebra with basis e = 2 * 1: its unit is 1/2 e."""
    workspace = tmp_path / "half.json"
    workspace.write_text('{"field": {"kind": "rationals"}, "algebras": {"a": '
                         '{"dim": 1, "table": [[["2"]]], "unit": ["1/2"]}}}')
    assert heavy_modules_after(RUN.format(str(workspace), ["dims", "a"]), Q_ONLY) == list(Q_ONLY)


def test_q_loads_fractions_at_its_first_non_integral_value():
    code = ("import sys\nfrom corings.linalg import Field\nQ = Field.rationals()\n"
            "assert (Q.inv(1), Q.inv(-1), Q.coerce('-4'), Q.coerce('6/1')) == (1, -1, -4, 6)\n"
            "assert 'fractions' not in sys.modules\n"
            "assert Q.fmt(Q.inv(2)) == '1/2'")
    assert heavy_modules_after(code, Q_ONLY) == list(Q_ONLY)


def test_a_prime_field_reads_a_fraction_made_before_fractions_was_needed():
    code = ("from fractions import Fraction\nfrom corings.linalg import Field\n"
            "assert Field.prime(5).coerce(Fraction(1, 2)) == 3\n"
            "assert Field.prime(5).coerce('1/2') == 3")
    assert heavy_modules_after(code, Q_ONLY) == list(Q_ONLY)
