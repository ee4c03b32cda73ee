"""No top-level name, method or defaulted parameter in the package is dead code.

Every top-level def, class or constant in ``src/bwcache``, and every method
or property of a top-level class there, is used by name somewhere in
``src/`` or ``perfbench/`` besides its own definition; a public top-level
name may instead be exported in ``bwcache.__all__``. Every parameter with a
default is passed by some call there. The tests under ``tests/`` do not
count as users: code that only such a test calls belongs in that test.
perfbench's own tests do count, because they are frozen with the benchmark
that they check, and they pin names such as ``TailRule.twothirds``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import bwcache

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bwcache"


def definitions(tree: ast.Module):
    """(name, node) for each top-level def, class or assigned constant, and
    each method or property of a top-level class as ``Class.name``, but a dunder."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = (m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
            yield from ((f"{node.name}.{m.name}", m) for m in methods if not m.name.startswith("__"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


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


def unused_definitions(private: bool) -> list[str]:
    """The public or the private top-level names and methods of the package
    that nothing in ``src/`` or ``perfbench/`` uses besides their own definition."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used: Counter = Counter()
    for path in sources:
        used += used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("_") != private or qualname in bwcache.__all__:
                continue
            if used[name] - used_names(node)[name] <= 0:
                unused.append(f"{path.name}: {qualname}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_definitions(private=False) == [], (
        "public names that only their definition or the tests use"
    )


def test_every_private_name_has_a_user_outside_the_tests():
    """A private helper that only a test calls, such as a second parser kept
    to check the first, belongs in that test."""
    assert unused_definitions(private=True) == [], (
        "private names that only their definition or the tests use"
    )


def defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) for each parameter with a default of
    each function or method under ``tree``.

    The position is the index of the call argument that fills the
    parameter, so a method's self or cls is not counted; it is None for a
    keyword-only parameter.
    """
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            bound = isinstance(parent, ast.ClassDef) and not static
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i in range(first, len(positional)):
                yield node.name, positional[i].arg, i - bound
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` may fill ``parameter``: by keyword, by position, or
    through a ``*`` or ``**`` unpacking."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A parameter whose default no call in ``src/`` or ``perfbench/``
    overrides is a constant written as an option."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, parameter, position in defaulted_parameters(tree):
            if not any(passes(c, parameter, position) for c in calls.get(function, [])):
                unpassed.append(f"{path.name}: {function}({parameter})")
    assert unpassed == [], "defaulted parameters that no call in src/ or perfbench/ passes"
