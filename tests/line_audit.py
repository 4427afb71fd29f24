"""Line audit of src/g2lift: run the tier-1 suite under a line tracer and
print every executable line of the package that never ran.

    python tests/line_audit.py [extra pytest arguments]

The tracer is a ``sys.settrace`` hook that follows only code compiled from
src/g2lift, so the audit needs nothing beyond the standard library and
pytest.  Test verdicts are ignored: the audit collects lines, not outcomes,
and the tracer's overhead can push a timed test past its budget.  A code
object stops being traced once every one of its lines has run, which keeps
the run to a few minutes.

Executable lines are the line table (``co_lines``) of every code object
compiled from a module, so docstrings, comments, blank lines and lines such
as ``else:`` never appear.  A function's own first line counts as run when
the function is called.  Pytest does not collect this file, because its
name does not start with ``test_``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2lift"


def _code_lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line is not None}


def executable_lines(path: Path) -> set:
    """Every line in the line table of a code object compiled from path."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines |= _code_lines(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run):
    """Call run() under the tracer; return {path: lines that ran}."""
    prefix = str(PACKAGE) + os.sep
    ran = {}
    pending = {}  # code -> (lines that ran in its file, its lines not yet run)

    def on_call(frame, event, arg):
        code = frame.f_code
        entry = pending.get(code)
        if entry is None:
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                entry = (ran.setdefault(path, set()), _code_lines(code))
            else:
                entry = (None, set())
            pending[code] = entry
        seen, left = entry
        if not left:
            return None
        seen.add(frame.f_lineno)
        left.discard(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return on_line if left else None

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def report(ran) -> None:
    """Print every executable line of the package missing from ``ran`` (as
    ``traced`` returns it), then the count of them."""
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        text = path.read_text().splitlines()
        for n in never:
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} never ran")


def main(argv) -> int:
    import pytest

    os.chdir(ROOT)
    report(traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
