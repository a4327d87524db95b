"""Every private function, class and method of the library has a caller,
and every imported name is used.

A private name (``_name``, dunders excepted) is public to no one, so if no
code in ``src/splitfields`` refers to it outside its own definition it is
dead.  References are matched by name: a ``Name``, an attribute or an
imported name anywhere in the package counts, except inside the definition
itself (so a recursive call does not keep a function alive).

A public module-level function or class that ``__init__.py`` does not
re-export is dead too when nothing refers to it, outside its own
definition, in ``src/splitfields`` or in ``bench/*.py``; the strings of
``bench/tracer.py``, which name the functions it wraps, count as
references.

A name a module imports is dead unless the module reads it as a ``Name``
somewhere.  The re-exports of ``__init__.py`` and ``from __future__``
imports are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import splitfields

PACKAGE = Path(splitfields.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _referenced_names(node):
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def _private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.endswith("__"):
                yield node


def unreferenced(package=PACKAGE):
    """``module:name`` of each private definition nothing else refers to."""
    trees = _parsed(package)
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_referenced_names(tree))
    dead = []
    for module, tree in trees.items():
        for node in _private_definitions(tree):
            if everywhere[node.name] == _referenced_names(node)[node.name]:
                dead.append(f"{module}:{node.name}")
    return dead


def _parsed(package):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def unexported_unreferenced(package=PACKAGE, outside=BENCH):
    """``module:name`` of each public module-level function or class that
    ``__init__.py`` does not re-export and nothing else refers to."""
    trees = _parsed(package)
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_referenced_names(tree))
    for name, tree in _parsed(outside).items():
        everywhere.update(_referenced_names(tree))
        if name == "tracer":
            everywhere.update(node.value for node in ast.walk(tree)
                              if isinstance(node, ast.Constant)
                              and isinstance(node.value, str))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in exported \
                    and everywhere[node.name] == _referenced_names(node)[node.name]:
                dead.append(f"{module}:{node.name}")
    return dead


def unused_imports(package=PACKAGE):
    """``module:name`` of each imported name its module never reads."""
    dead = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        dead.append(f"{path.stem}:{name}")
    return dead


def test_no_private_definition_is_dead():
    assert unreferenced() == []


def test_an_unused_private_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _unused():\n    return _unused()\n\n\n"
        "class _Box:\n    def _peek(self):\n        return self._peek\n\n"
        "    def _take(self):\n        return 2\n\n\n"
        "def public():\n    return _used() + _Box()._take()\n")
    assert unreferenced(tmp_path) == ["a:_unused", "a:_peek"]


def test_no_unexported_public_definition_is_dead():
    assert unexported_unreferenced() == []


def test_an_unexported_unused_public_definition_is_found(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import exported\n")
    (package / "a.py").write_text(
        "def exported():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "class Unused:\n    def method(self):\n        return 2\n\n\n"
        "def traced():\n    return 3\n\n\n"
        "def benched():\n    return 4\n")
    (bench / "tracer.py").write_text('FUNCTIONS = (("a", "traced"),)\n')
    (bench / "run.py").write_text("from pkg.a import benched\n")
    assert unexported_unreferenced(package, bench) == ["a:unused", "a:Unused"]


def test_no_import_is_unused():
    assert unused_imports() == []


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import public\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport re as regex\nfrom math import gcd, lcm\n"
        "from typing import Iterator\n\n\n"
        "def public(n) -> Iterator:\n"
        "    from fractions import Fraction\n"
        "    return lcm(n, 2), regex.escape(str(n)), os.sep\n")
    assert unused_imports(tmp_path) == ["a:gcd", "a:Fraction"]
