"""Run the test suite and fail if any assert statement in tests/ never ran.

    PYTHONPATH=src python tools/unrun_asserts.py

A trace hook follows only frames whose code lives in tests/ and records
each line they run. Afterwards `ast` lists every assert statement in
tests/*.py none of whose lines ran: a check that guards nothing. The script
exits 1 if there is any, and 0 otherwise. It does not judge which tests
passed; run the suite itself for that.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent.parent / "tests"


def unrun_asserts(ran: set[tuple[str, int]]) -> list[str]:
    """`path:line` of each assert in tests/*.py with no line in `ran`."""
    unrun = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Assert)):
            # a multi-line assert may report only the lines of its condition
            if not any((str(path), n) in ran for n in range(node.lineno, node.end_lineno + 1)):
                unrun.append(f"{path.relative_to(TESTS.parent)}:{node.lineno}")
    return unrun


def main() -> int:
    ran: set[tuple[str, int]] = set()
    prefix = str(TESTS) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        # returning None leaves every frame outside tests/ untraced
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
    unrun = unrun_asserts(ran)
    for where in unrun:
        print(f"assert never ran: {where}", file=sys.stderr)
    print(f"{len(unrun)} assert statements never ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
