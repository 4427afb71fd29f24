"""Reach audit of src/g2lift: run what a user of the package runs under the
line tracer of ``line_audit`` and print every executable line of the
package that none of it reached.

    PYTHONPATH=src python tests/user_reach.py

The runs are every recorded CLI case in tests/data/cli_outputs.json that
needs no library patch, the commands ``gross``, ``lfunc value`` and
``verify-structure`` at their defaults, and one seed-1 pass of each
benchmark workload of perfbench/workloads.py, verification included.
Code that only the test suite reaches shows up here; what is left should
be refusals, guards and ``__main__``.  Pytest does not collect this file,
because its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from line_audit import ROOT, report, traced

DEFAULT_COMMANDS = (["gross"], ["lfunc", "value"], ["verify-structure"])


def cli_runs() -> list:
    """The argv of every recorded case with no patch, then the commands
    that run at their defaults."""
    cases = json.loads((ROOT / "tests" / "data" / "cli_outputs.json").read_text())
    pinned = [c["argv"] for c in cases if c["patch"] is None]
    return pinned + [list(argv) for argv in DEFAULT_COMMANDS]


def run_cli() -> None:
    from g2lift.cli import main

    for argv in cli_runs():
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)


def run_workloads(seed: int = 1) -> None:
    """One pass of each workload's op list, then its verification."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Outcome

    for workload in WORKLOADS.values():
        workload.load()
        workload.prepare()
        ops, outcomes = workload.ops(seed), []
        for op in ops:
            try:
                outcomes.append(Outcome("ok", op.call(), 0.0))
            except (ValueError, ArithmeticError) as exc:
                outcomes.append(Outcome("refused", type(exc).__name__, 0.0))
        workload.verify(ops, outcomes)


def main() -> int:
    report(traced(lambda: (run_cli(), run_workloads())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
