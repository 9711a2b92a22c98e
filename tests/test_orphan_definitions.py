"""Every function and class defined in ``src/`` is named somewhere.

An AST scan collects each non-dunder function, method and class defined
under ``src/`` and every name the repository's Python code uses: identifiers,
attribute names, imported names and identifier-shaped string constants (so
``getattr(obj, "name")`` and monkeypatching by name count).  A definition
that no module in ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
``perfbench/`` names is dead code and fails the test, unless
:data:`ALLOWED` lists it with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")

#: ``"module path:name"`` -> why the definition stays although nothing names it.
ALLOWED: dict[str, str] = {}


def _python_files(directory: str):
    paths = (ROOT / directory).rglob("*.py")
    return sorted(path for path in paths if path.name != Path(__file__).name)


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_definition_in_src_is_named():
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for directory in SCANNED:
        for path in _python_files(directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used.update(_names(tree))
            if directory == "src":
                module = path.relative_to(ROOT).as_posix()
                defined.extend((module, name) for name in _definitions(tree))
    assert len(defined) > 500, "the scan should see the whole package"
    orphans = {f"{module}:{name}" for module, name in defined if name not in used}
    assert not sorted(orphans - ALLOWED.keys()), "defined in src/ but named nowhere"
    # an entry whose definition went away, or that code now names, is stale
    assert not sorted(ALLOWED.keys() - orphans), "stale ALLOWED entries"
