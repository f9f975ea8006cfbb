"""Count code lines: physical lines that carry code, per package.

A line counts when at least one token other than a comment or a
docstring sits on it; blank lines, comment-only lines and every line of
a module/class/function docstring do not.  This is the measure the
simplicity PRs quote (``make loc``).

Usage: ``python tools/loc.py [root ...]`` (default ``src``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of *source* that carry code."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count(root: Path) -> Counter:
    """Code lines per package (directory of the file, relative to
    *root*'s parent)."""
    totals: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        package = path.parent.relative_to(root.parent).as_posix()
        totals[package] += code_lines(path.read_text())
    return totals


def main(argv: list[str]) -> int:
    for root in [Path(arg) for arg in argv] or [Path("src")]:
        totals = count(root)
        width = max(map(len, totals), default=0)
        for package, lines in sorted(totals.items()):
            print(f"{package:<{width}}  {lines:>6}")
        print(f"{str(root) + ' total':<{width}}  {sum(totals.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
