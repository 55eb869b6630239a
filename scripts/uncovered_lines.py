#!/usr/bin/env python3
"""Print the lines of ``src/fpaxos`` that no test runs.

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames of code compiled from
``src/fpaxos``.  A module's executable lines are the lines ``co_lines()``
gives for its compiled source and every code object nested in it.  After
pytest's own summary it prints, per module, the executable lines that no
test ran.  It gates nothing: the exit status is 0 whatever it finds.
Arguments are passed on to pytest:

    python scripts/uncovered_lines.py [pytest args ...]

Tracing slows the suite about fourfold: 207-232 s against 53 s untraced
on a 2-vCPU host, and 320 s against 52 s on a slower one.  That pushes
``test_criterion_7_performance_trend`` past its 10 s wall-clock bound on
some runs (10.1 s in one of two on the 2-vCPU host, and on the slower
host); such a failure says nothing about the code.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpaxos"


def executable_lines(path: Path) -> set:
    """The line numbers ``co_lines()`` gives for ``path``'s code, nested code included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def spans(lines) -> str:
    """``1-3, 7`` for ``[1, 2, 3, 7]``."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv) -> int:
    import pytest

    prefix = str(SRC) + "/"
    ran = {}  # file name -> the lines run in it

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = ran.setdefault(name, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nlines no test ran:")
    for path in sorted(SRC.glob("*.py")):
        missed = executable_lines(path) - ran.get(str(path), set())
        print(f"  {path.relative_to(ROOT)}: {spans(missed) if missed else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
