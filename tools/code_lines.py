"""Count the code lines of Python modules.

A line counts when it holds a Python token. Blank lines, comment lines and
the lines of module, class and function docstrings (at any depth) do not.
A token that spans lines, such as a triple-quoted string that is not a
docstring, counts on every line it spans.

Run as ``python3 tools/code_lines.py DIR [DIR ...]``: prints each module's
count, then the total over all the directories given.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Tokens that carry no code: layout and comments.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _WITH_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token outside every docstring."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path, help="directories of .py files")
    total = 0
    for directory in parser.parse_args().dirs:
        for path in sorted(directory.rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
