"""Run the test suite and fail if any assert statement in tests/, or any
statement in src/abl_engine/, never ran.

    PYTHONPATH=src python tools/unrun_asserts.py

A trace hook follows only frames whose code lives in tests/ or
src/abl_engine/ and records each line they run, on every thread. Afterwards
`ast` lists every assert statement in tests/*.py none of whose lines ran: a
check that guards nothing; and every statement in src/abl_engine/*.py none
of whose own lines ran: code that no test reaches. A statement's own lines
are its decorators and header, without its body. Docstrings are skipped, and
so is a statement or except clause whose own lines hold
`# pragma: no cover`, with everything inside it. The script exits 1 if any
are listed, and 0 otherwise. It does not judge which tests passed; run the
suite itself for that.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
SRC = ROOT / "src" / "abl_engine"
PRAGMA = re.compile(r"#\s*pragma:\s*no cover")


def unrun_asserts(ran: set[tuple[str, int]]) -> list[str]:
    """`path:line` of each assert in tests/*.py with no line in `ran`."""
    unrun = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Assert)):
            # a multi-line assert may report only the lines of its condition
            if not any((str(path), n) in ran for n in range(node.lineno, node.end_lineno + 1)):
                unrun.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return unrun


def _own_lines(node) -> range:
    """A statement's or except clause's decorators and header, up to its
    first body statement; all of a simple statement."""
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    stop = max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1
    return range(start, stop)


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)


def unrun_statements(ran: set[tuple[str, int]]) -> list[str]:
    """`path:line` of each statement in src/abl_engine/*.py, docstrings and
    `# pragma: no cover` blocks aside, none of whose own lines is in `ran`."""
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        pragma = {n for n, line in enumerate(text.splitlines(), 1) if PRAGMA.search(line)}
        nodes = [n for n in ast.walk(ast.parse(text)) if isinstance(n, (ast.stmt, ast.excepthandler))]
        skipped = set()
        for node in nodes:
            if pragma.intersection(_own_lines(node)):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for node in sorted(nodes, key=lambda n: n.lineno):
            if isinstance(node, ast.excepthandler) or node.lineno in skipped or _is_docstring(node):
                continue
            if not any((str(path), n) in ran for n in _own_lines(node)):
                unrun.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return unrun


def main() -> int:
    ran: set[tuple[str, int]] = set()
    prefixes = (str(TESTS) + "/", str(SRC) + "/")

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        # returning None leaves every frame outside tests/ and src/ untraced
        return trace_lines if frame.f_code.co_filename.startswith(prefixes) else None

    # the sampler counts ranges on pool threads too
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = unrun_asserts(ran)
    for where in unrun:
        print(f"assert never ran: {where}", file=sys.stderr)
    statements = unrun_statements(ran)
    for where in statements:
        print(f"statement never ran: {where}", file=sys.stderr)
    print(f"{len(unrun)} assert statements in tests/ never ran")
    print(f"{len(statements)} statements in src/abl_engine/ never ran")
    return 1 if unrun or statements else 0


if __name__ == "__main__":
    sys.exit(main())
