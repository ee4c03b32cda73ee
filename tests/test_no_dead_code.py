"""No public name in the package is dead code.

Every public top-level def, class or constant in ``src/bwcache`` is used by
name somewhere in ``src/`` or ``perfbench/`` besides its own definition, or
is exported in ``bwcache.__all__``. The tests do not count as users: code
that only a test calls belongs in that test.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import bwcache

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bwcache"


def public_definitions(tree: ast.Module):
    """(name, node) for each public top-level def, class or assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def used_names(tree: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported under ``tree``."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
    return used


def test_every_public_name_has_a_user_outside_the_tests():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used: Counter = Counter()
    for path in sources:
        used += used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in public_definitions(tree):
            if name in bwcache.__all__:
                continue
            if used[name] - used_names(node)[name] <= 0:
                unused.append(f"{path.name}: {name}")
    assert unused == [], "public names that only their definition or the tests use"
