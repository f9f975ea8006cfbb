"""Reach audit: public names under ``src/repro`` that nothing calls.

For every public top-level name (function, class, assigned constant)
and every public method of a top-level class defined under
``src/repro``, count the references to it — variables, attributes and
imports of that name; comments, strings and ``def``/``class`` headers
do not count — in the program and
everything that drives it (``src/``, ``perf/``, ``benchmarks/``,
``examples/``, ``tools/``) and, apart, in ``tests/``.  A name with no
reference of the first kind is dead or exercised by tests alone; those
are printed, one per line, as::

    <file>:<line>  <name>  (tests: <count>)

What counts as a reference, beyond another file naming it: a use in
the defining file *outside the definition's own body* (so recursion is
not a caller, but a module's own use of its result class is).  What
does not: re-exports in ``__init__.py`` files, which publish a name
without calling it.  The match is by word, so two classes' methods of
one name vouch for each other — the audit under-reports, never
over-reports.

Not audited: ``_private`` names, dunders, ``rpc_*`` handlers (reached
by ``getattr`` dispatch on the message type) and the hooks of abstract
base classes (a name some class declares ``@abstractmethod`` is called
through the base, wherever it is implemented).

``tests/test_layering.py`` runs this against an allowlist in which
every entry carries its reason, so a new caller-less name fails CI.

Usage: ``python tools/reach.py [repo root]`` (``make reach``); exits 0.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

#: Where a reference counts as traffic (relative to the repo root).
TRAFFIC = ("src", "perf", "benchmarks", "examples", "tools")
TESTS = "tests"


class Definition(NamedTuple):
    path: Path
    line: int
    end_line: int
    name: str


def reference_lines(path: Path) -> dict[str, list[int]]:
    """Line numbers at which the module at *path* refers to each name:
    loads and stores of variables, attribute accesses and imports
    (f-string fields included; ``def``/``class`` headers, keyword
    argument names, comments and strings are not references)."""
    lines: dict[str, list[int]] = defaultdict(list)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            lines[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines[node.attr].append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lines[alias.name.rpartition(".")[2]].append(node.lineno)
    return lines


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def public_definitions(path: Path) -> tuple[list[Definition], set[str]]:
    """``(audited definitions, abstract hook names)`` of one module."""
    found: list[Definition] = []
    hooks: set[str] = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def add(name: str, node: ast.AST) -> None:
        if not name.startswith(("_", "rpc_")):
            found.append(Definition(path, node.lineno, node.end_lineno, name))

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, functions):
            add(node.name, node)
        elif isinstance(node, ast.ClassDef):
            add(node.name, node)
            for member in node.body:
                if isinstance(member, functions):
                    if _is_abstract(member):
                        hooks.add(member.name)
                    add(member.name, member)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    add(target.id, node)
    return found, hooks


def unreached(root: Path) -> list[tuple[Definition, int]]:
    """Audited definitions without traffic, with their test counts."""
    references = {
        path: reference_lines(path)
        for top in (*TRAFFIC, TESTS)
        for path in sorted((root / top).rglob("*.py"))
        if path.name != "__init__.py"
    }
    traffic: dict[str, int] = defaultdict(int)
    tests: dict[str, int] = defaultdict(int)
    for path, lines in references.items():
        in_tests = path.relative_to(root).parts[0] == TESTS
        for name, where in lines.items():
            (tests if in_tests else traffic)[name] += len(where)
    definitions: list[Definition] = []
    hooks: set[str] = set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        found, abstract = public_definitions(path)
        definitions.extend(found)
        hooks |= abstract
    report = []
    for definition in definitions:
        name = definition.name
        if name in hooks:
            continue
        own_body = sum(
            definition.line <= line <= definition.end_line
            for line in references.get(definition.path, {}).get(name, ())
        )
        if traffic[name] - own_body == 0:
            report.append((definition, tests[name]))
    return report


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for definition, in_tests in unreached(root):
        where = definition.path.relative_to(root).as_posix()
        print(
            f"{where}:{definition.line}  {definition.name}  "
            f"(tests: {in_tests})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
