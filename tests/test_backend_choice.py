"""The dense/streamed choice lives in :mod:`repro.runtime` alone.

Every read that answers differently on the dense and the streamed backend
is a backend method (``entity_weights``, ``pair_probabilities``,
``mutual_top_n``), so no module outside ``repro/runtime/`` needs to ask
which backend it runs on.  A comparison of ``backend_name`` with a backend
name anywhere else is a second place that makes the choice; this test pins
that there is none.  (Comparing two engines' names with each other, as the
checkpoint restore does before it re-seeds saved top-k tables, chooses
nothing and is allowed.)
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_ROOT = Path(repro.__file__).parent


def _mentions_backend_name(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "backend_name")
        or (isinstance(sub, ast.Name) and sub.id == "backend_name")
        for sub in ast.walk(node)
    )


def _is_name_literal(node: ast.AST) -> bool:
    """A string constant, or a tuple/list/set of them (``in ("dense", …)``)."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_name_literal(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def backend_branches(root: Path = _ROOT) -> list[str]:
    """``path:line`` of every comparison of ``backend_name`` with a literal
    name in a module outside ``repro/runtime/``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] == "runtime":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            named = [op for op in operands if _mentions_backend_name(op)]
            others = [op for op in operands if not _mentions_backend_name(op)]
            if named and any(_is_name_literal(op) for op in others):
                found.append(f"{relative}:{node.lineno}")
    return found


def test_no_backend_branch_outside_runtime():
    assert backend_branches() == []


def test_guard_sees_a_branch(tmp_path):
    # the scan must flag the forms it exists to forbid, and only those
    package = tmp_path / "repro"
    (package / "runtime").mkdir(parents=True)
    (package / "runtime" / "ok.py").write_text('x = engine.backend_name == "dense"\n')
    (package / "consumer.py").write_text(
        'if engine.backend_name == "dense":\n    pass\n'
        'same = manifest["backend"] == engine.backend_name\n'
        'if backend_name in ("dense", "sharded"):\n    pass\n'
    )
    assert backend_branches(package) == ["consumer.py:1", "consumer.py:4"]
