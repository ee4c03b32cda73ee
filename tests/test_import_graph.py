"""The package imports one way.

No function in ``src/bwcache`` imports a package module: a lazy import only
hides a cycle. The imports run on import (everything but function bodies and
``if TYPE_CHECKING:`` blocks, which only annotations read) form a graph with
no cycle. The run records live in ``traceio`` beside the formats that write
them, so ``cache`` and ``metrics`` take them from there. No module reads the
process environment, and none keeps a mode (a ``global``, a context
variable or a thread-local): a run is defined by its arguments alone.
"""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

import pytest

import bwcache
from bwcache import cache, metrics, traceio

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bwcache"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# The names through which the os module hands out the environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def package_modules(node: ast.AST) -> set[str]:
    """The package modules an import statement names ('__init__' for the package)."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["bwcache" if node.level else None, node.module]))
        targets = [f"{base}.{alias.name}" for alias in node.names]
    else:
        return set()
    found = set()
    for parts in (target.split(".") for target in targets):
        if parts[0] == "bwcache":
            found.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return found


def import_time_edges(tree: ast.Module) -> set[str]:
    """Package modules imported outside function bodies and TYPE_CHECKING blocks."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            skipped.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    edges: set[str] = set()
    for node in ast.walk(tree):
        if id(node) not in skipped:
            edges |= package_modules(node)
    return edges


def test_package_imports_one_way():
    local = set()
    graph = {}
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                local.update(
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if package_modules(node)
                )
        graph[name] = import_time_edges(tree)
    assert sorted(local) == [], "function-local imports of package modules"
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert "cache" not in graph["metrics"]


def environment_reads(tree: ast.Module, filename: str) -> list[str]:
    """Where ``tree`` names the environment: as an attribute (``os.environ``,
    ``os.getenv``), a bare name or an imported name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in ENVIRONMENT:
            found.append(f"{filename}:{node.lineno} {name}")
    return found


def test_no_module_reads_the_environment():
    found = []
    for path in MODULES.values():
        found += environment_reads(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert found == []


def mode_state(tree: ast.Module, filename: str) -> list[str]:
    """Where ``tree`` could keep a process-wide mode: a ``global`` statement,
    an import from ``contextvars``, or ``threading.local``, imported or named
    as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            names = ["global"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [
            f"{filename}:{node.lineno} {name}"
            for name in names
            if name in ("global", "threading.local") or name.split(".")[0] == "contextvars"
        ]
    return found


def test_no_module_keeps_a_mode():
    """A run is its arguments: no module holds state that a scope or a call
    could switch for the rest of the process (or the rest of a thread)."""
    found = []
    for path in MODULES.values():
        found += mode_state(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert found == []


@pytest.mark.parametrize("name", ["Action", "StepDecision", "RunTrace", "RunSummary"])
def test_run_records_are_defined_in_traceio(name):
    record = getattr(traceio, name)
    assert record.__module__ == "bwcache.traceio"
    assert getattr(bwcache, name) is record
    for module in (cache, metrics):
        assert getattr(module, name, record) is record
