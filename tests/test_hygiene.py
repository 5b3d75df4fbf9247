"""Every name a module imports is read somewhere in that module, and every
name the package exports, and every function and class a module defines, is
read by one of its modules or listed in the README's "Library API" section.
In the tests, no top-level function, class or constant is defined in two
modules, and no test module imports another but `oracles`, which holds the
references that several share, and `cases`, the command-line case table.

`__init__.py` is skipped by the first and the last check of the package: its
imports are the package's exports, and what it defines serves scripts. Names
bound by `from __future__ import ...` are compiler directives, not reads.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kgflrw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = {p.stem: p.read_text(encoding="utf-8")
         for p in sorted((ROOT / "tests").glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_checker_flags_an_unused_import():
    src = "import os\nimport math\nfrom x import a, b as c\nprint(math.pi, c)\n"
    assert unused_imports(src) == ["a (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_exports(init: str, modules: list[str], listed: set) -> list[str]:
    """Names init imports from the package that no module reads (as a name,
    or as the module of a relative import) and that listed leaves out."""
    exported = {alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    read = set()
    for tree in map(ast.parse, modules):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.add(node.module)
    return sorted(exported - read - listed)


def test_export_checker_flags_an_unread_name():
    init = "from . import errors\nfrom .m import a, b, c as d\n"
    modules = ["from .errors import E\n", "def a(): return b\n"]
    assert unread_exports(init, modules, set()) == ["a", "d"]
    assert unread_exports(init, modules, {"a"}) == ["d"]


def library_api() -> set:
    """The names in backticks in the README's "Library API" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_every_export_is_read_or_listed():
    assert unread_exports(
        (SRC / "__init__.py").read_text(encoding="utf-8"),
        [p.read_text(encoding="utf-8") for p in MODULES], library_api()) == []


def unread_definitions(modules: dict, listed: set) -> list[str]:
    """The module-level functions and classes of modules ({name: source})
    that no module reads as a name and that listed leaves out, as
    "module.name"."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name}.{node.name}" for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in read | listed)


def test_definition_checker_flags_an_unread_name():
    modules = {"a": "def f():\n    return g()\ndef g(): pass\nclass C: pass\n",
               "b": "from .a import C\nx = [C]\ndef h(): pass\n"}
    assert unread_definitions(modules, set()) == ["a.f", "b.h"]
    assert unread_definitions(modules, {"h"}) == ["a.f"]


def test_every_definition_is_read_or_listed():
    assert unread_definitions(
        {p.stem: p.read_text(encoding="utf-8") for p in MODULES},
        library_api()) == []


def twice_defined(modules: dict) -> list[str]:
    """The top-level functions, classes and constants that more than one of
    modules ({name: source}) defines, as "name (module, module)"."""
    where = {}
    for mod, src in modules.items():
        for node in ast.parse(src).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                where.setdefault(name, set()).add(mod)
    return sorted(f"{name} ({', '.join(sorted(mods))})"
                  for name, mods in where.items() if len(mods) > 1)


def test_definition_checker_flags_a_name_defined_twice():
    modules = {"a": "X = 1\ndef f(): pass\nclass C: pass\nX = 2\n",
               "b": "def g(): pass\nclass X: pass\n",
               "c": "C: int = 3\ndef h():\n    f = 1\n"}
    assert twice_defined(modules) == ["C (a, c)", "X (a, b)"]


def test_no_test_helper_is_defined_twice():
    assert twice_defined(TESTS) == []


def cross_imports(modules: dict, importable: set) -> list[str]:
    """The imports of one of modules ({name: source}) by another, but of
    those in importable, as "importer: imported"."""
    found = []
    for mod, src in modules.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{mod}: {name}" for name in names
                      if name.split(".")[0] in modules.keys() - importable]
    return sorted(found)


def test_import_checker_flags_a_test_module_import():
    modules = {"oracles": "import numpy\n",
               "test_a": "from oracles import f\nimport test_b\n",
               "test_b": "def g():\n    from test_a import h\n"}
    assert cross_imports(modules, {"oracles"}) == ["test_a: test_b",
                                                   "test_b: test_a"]


def test_test_modules_import_only_the_oracles():
    assert cross_imports(TESTS, {"oracles", "cases"}) == []
