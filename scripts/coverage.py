#!/usr/bin/env python3
"""Print the lines of each src/qubusim/ module that the tier-1 tests never run.

Runs the test suite in this process under a `sys.settrace` line tracer and
lists, per module, the executable lines (from the compiled code objects) that
no test reached.  Files are matched on their full path, so a library module
of the same bare name (another `detection.py` or `errors.py`) is not mixed in.
Standard library only, apart from pytest, which runs the suite.

Usage: python scripts/coverage.py [pytest arguments, default: the tests/ folder]

Lines run only in a subprocess (the tests that start `python -m qubusim`) are
not seen, so `cli.py`'s count overstates its gap.  The tracer slows the suite
several times over, and a wall-clock bound such as that of
`test_criterion_02_merging_contract` can fail under it; the script reports
lines, not the suite's outcome, and is not part of tier-1 or CI.
"""

import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qubusim"


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    spans = []
    for n in sorted(lines):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    keys: dict[str, str | None] = {}   # co_filename -> full path or None
    hits: dict[str, set[int]] = defaultdict(set)

    def key(filename):
        if filename not in keys:
            full = os.path.realpath(filename)
            keys[filename] = full if full in modules else None
        return keys[filename]

    def trace(frame, event, arg):
        path = key(frame.f_code.co_filename)
        if path is None:
            return None
        hits[path].add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits[path].add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider"]
                    + (sys.argv[1:] or [str(REPO / "tests")]))
    finally:
        sys.settrace(None)

    total = unrun_total = 0
    for path, p in modules.items():
        lines = executable_lines(p)
        unrun = lines - hits[path]
        total += len(lines)
        unrun_total += len(unrun)
        print(f"{p.relative_to(REPO)}: {len(unrun)} of {len(lines)} lines unrun"
              + (f": {ranges(unrun)}" if unrun else ""))
    print(f"total: {unrun_total} of {total} executable lines unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main())
