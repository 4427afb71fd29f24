"""Replay the recorded CLI cases without pytest: each case of
tests/data/cli_outputs.json that needs no library patch runs in this
process, and its stdout (or the SHA-256 of it) and exit code are compared
with the recording.

    PYTHONPATH=src python tests/replay.py

The cases are ``user_reach.recorded()``, the ones the reach audit runs, so
there is one list.  The package needs only the standard library, so any
CPython it supports can check the CLI contract this way, with no test
extras installed.  Exits 1 if a case differs, and names it.  Pytest does
not collect this file, because its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from user_reach import recorded


def main() -> int:
    from g2lift.cli import main as run

    cases, differ = recorded(), []
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(case["argv"])
        text = out.getvalue()
        if "stdout_sha256" in case:
            same = hashlib.sha256(text.encode()).hexdigest() == case["stdout_sha256"]
        else:
            same = text == case["stdout"]
        if code != case["exit"] or not same:
            differ.append(case["id"])
            print(f"{case['id']}: exit {code} (recorded {case['exit']}), stdout {'same' if same else 'differs'}")
    version = sys.version.split()[0]
    print(f"Python {version}: {len(cases) - len(differ)} of {len(cases)} recorded cases replayed byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
