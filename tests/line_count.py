"""Total and code lines of every module of ``src/rankseg``.

Code lines are the non-blank lines that are neither comment-only lines nor
docstring lines; a docstring is the string that opens a module, class or
function body, found with ``ast``, and all its lines count as docstring.
One line per module, then the package total. pytest does not collect this
file. Run from a checkout::

    python3 tests/line_count.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rankseg"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of every line of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total lines, code lines)`` of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, str(path)))
    lines = source.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return len(lines), code


if __name__ == "__main__":
    totals = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        total, code = count(path)
        totals[0] += total
        totals[1] += code
        print(f"{path.name:16} {total:6,} total {code:6,} code")
    print(f"{'src/rankseg':16} {totals[0]:6,} total {totals[1]:6,} code")
