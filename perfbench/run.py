"""g2lift benchmark driver: one closed-loop client, one thread.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is ``src/g2lift`` of
that directory, imported from source.  Workloads (see perfbench/README.md):
``halfint``, ``lift`` and ``structure``.

With ``--trace 0`` the run measures set-up in fresh interpreters, then
repeats the workload's op list while another pass fits in ``--seconds``
(at least once; ``halfint`` runs its cold op list once) and prints the
end-to-end metrics.  Their times are rescaled to a reference host speed
by the probe in ``speed.py``.  With ``--trace 1`` it first runs one
untraced pass in a child process for the overhead figure, then runs the op
list once with spans around every layer entry point and prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an op returned a wrong answer or a negative control passed, and 2
when the directory holds no g2lift source.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, load_json  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
# String hashing is salted per process unless PYTHONHASHSEED is set, and the
# salt alone moved per-op latencies by up to 2x between otherwise identical
# processes (hot attribute names colliding in CPython's type cache).  Every
# benchmark process runs with this fixed seed instead.
HASH_SEED = "0"
UNTYPED = (ZeroDivisionError, OverflowError, FloatingPointError)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when an op outlives its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def _describe(exc: BaseException) -> str:
    msg = re.sub(r"\d+", "N", str(exc).splitlines()[0] if str(exc) else "")
    return f"{type(exc).__name__}: {msg}"[:72] if msg else type(exc).__name__


def run_op(call, deadline_s: float, probe: SpeedProbe | None):
    """Run one op under a wall-clock deadline (main thread, ITIMER_REAL).

    Returns the outcome, whose seconds leave out time spent in probes, and
    the op's start and end on the perf_counter clock."""
    spent = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            value = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except DeadlineExceeded:
        status, value = "deadline", None
    except UNTYPED as exc:
        status, value = "error", _describe(exc)
    except (ValueError, ArithmeticError) as exc:
        status, value = "refused", _describe(exc)
    except Exception as exc:  # an untyped failure is a measured outcome
        status, value = "error", _describe(exc)
    t1 = time.perf_counter()
    if probe:
        spent = probe.spent - spent
    return Outcome(status, value, t1 - t0 - spent), t0, t1


def run_pass(workload, seed: int, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
    ops = workload.ops(seed)
    outcomes, spans = [], []
    t0 = time.perf_counter()
    for op in ops:
        call = op.call
        if tracer is not None:
            span = "structure." + op.kind if op.kind.startswith("check.") else "op." + op.kind
            call = lambda c=call, s=span: tracer.call(s, c)  # noqa: E731
        outcome, start, end = run_op(call, workload.deadline_s, probe)
        outcomes.append(outcome)
        spans.append((start, end))
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "raw_wall": wall,
        "outcomes": outcomes,
        "spans": spans,
        "verdicts": workload.verify(ops, outcomes),
    }


def rescale(passes, probe: SpeedProbe, deadline_s: float):
    """Rescale op times to the reference speed; wall_s becomes their sum.

    A deadline miss is charged the deadline itself: the op was stopped by
    the wall clock, so its rescaled time would only follow the host speed.
    """
    for p in passes:
        p["raw_seconds"] = [o.seconds for o in p["outcomes"]]
        p["outcomes"] = [
            o._replace(
                seconds=deadline_s if o.status == "deadline" else o.seconds * probe.speed_over(*span)
            )
            for o, span in zip(p["outcomes"], p["spans"])
        ]
        p["wall"] = sum(o.seconds for o in p["outcomes"])


def tail(latencies) -> tuple[float, str, int]:
    """The highest of p99.9/p99/p90 (nearest rank) with >= 10 samples beyond
    it; p90 when no percentile has that many."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1]:
            return xs[rank - 1], f"p{p:g}", n - rank


def measure_setup(name: str) -> list[float]:
    """Seconds from starting a fresh interpreter to its 'ready' line, less
    the child's probe time and rescaled by the speed its probes saw."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        fields = line.split()
        if proc.wait() != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up child failed with code {proc.returncode}")
        spent, speed = float(fields[1]), float(fields[2])
        times.append((elapsed - spent) * speed)
    return times


def env_stamp() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = "missing"
    src = hashlib.sha256()
    for path in sorted((SRC / "g2lift").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        f"python={platform.python_version()} mpmath={mpmath} nproc={os.cpu_count()} "
        f'cpu="{cpu}" git={_git_sha()} src_sha256={src.hexdigest()[:16]}'
    )


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def breakdown(verdicts) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in verdicts:
        if v != "verified":
            counts[v] = counts.get(v, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def report_untraced(workload, setup_times, passes, probe: SpeedProbe):
    verdicts = [v for p in passes for v in p["verdicts"]]
    attempted = len(verdicts)
    unverified = sum(v != "verified" for v in verdicts)
    walls = [p["wall"] for p in passes]
    wall = statistics.median(walls)
    completed = statistics.median(
        sum(o.status != "deadline" for o in p["outcomes"]) for p in passes
    )
    p50s, tails = [], []
    for p in passes:
        lat = [o.seconds for o in p["outcomes"]]
        p50s.append(statistics.median(lat))
        tails.append(tail(lat))
    tail_ms = statistics.median(t[0] for t in tails) * 1e3
    label, beyond = tails[0][1], tails[0][2]
    in_range = [
        raw
        for p in passes
        for raw, o in zip(p["raw_seconds"], p["outcomes"])
        if o.status != "deadline"
    ]
    slowest = max(in_range)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "op_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "verified_frac": (1 - unverified / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n_ops = len(passes[0]["outcomes"])
    details = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters: "
        + " ".join(f"{t:.3f}" for t in setup_times),
        "wall_s": f"median of {len(walls)} pass(es) of {n_ops} ops: "
        + " ".join(f"{w:.3f}" for w in walls),
        "ops_per_s": f"{completed:g} ops completed per pass (deadline misses excluded)",
        "op_p50_ms": f"median over passes of the per-pass median, n={n_ops} per pass",
        "op_tail_ms": f"{label}, {beyond} samples beyond it, n={n_ops} per pass",
        "verified_frac": f"1 - fail_frac; fail_frac = {unverified}/{attempted}"
        f" = {unverified / attempted:.4f}: {breakdown(verdicts) or 'no failures'}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:>14.6g} {unit:<6} {details[name]}")
    q = statistics.quantiles(probe.speed, n=4)
    print(
        f"host speed     {len(probe.speed)} probes, median {statistics.median(probe.speed):.3f} "
        f"(quartiles {q[0]:.3f} {q[2]:.3f}) of the reference; unscaled wall_s "
        + " ".join(f"{p['raw_wall']:.3f}" for p in passes)
    )
    print(
        f"deadline       {workload.deadline_s:g} s per op (wall clock); slowest op that met it "
        f"{slowest:.3f} s (margin {workload.deadline_s / slowest:.1f}x)"
    )
    return attempted, metrics


def report_traced(workload, tracer, mark, passes, untraced_wall, check_names):
    table = tracer.layer_table(check_names)
    traced_wall = passes[0]["wall"]
    primary, total = tracer.shares(mark, workload.primary_layers)
    table["trace.overhead_ratio"] = traced_wall / untraced_wall
    table["trace.primary_self_share"] = primary / total if total else 0.0
    print(f"{'layer':<40} {'calls':>9} {'self_s':>11}")
    for name in sorted(k[:-6] for k in table if k.endswith(".calls")):
        print(f"{name:<40} {table[name + '.calls']:>9} {table[name + '.self_s']:>11.4f}")
    for name in sorted(k for k in table if not k.endswith((".calls", ".self_s"))):
        print(f"{name:<40} {table[name]:>21.6g}")
    print(
        f"tracing overhead: traced wall_s {traced_wall:.3f} / untraced wall_s "
        f"{untraced_wall:.3f} = {table['trace.overhead_ratio']:.3f}"
    )
    print(
        f"primary layers {'+'.join(workload.primary_layers)}: {primary:.3f} s of "
        f"{total:.3f} s op time = {table['trace.primary_self_share']:.1%} self-time share"
    )
    if tracer.missing:
        print(f"not traced (absent in this version): {', '.join(tracer.missing)}")
    return {name: (value, _layer_unit(name)) for name, value in table.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "bits" if name.endswith("_bits_max") else "count"


def untraced_wall(args) -> float:
    """wall_s of one untraced pass at the same seed, in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"untraced child run failed with code {proc.returncode}")
    return json.loads(lines[-1])["metrics"]["wall_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    if not (SRC / "g2lift" / "__init__.py").is_file():
        print(f"error: no g2lift source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        probe = SpeedProbe()
        probe.start()
        t0 = time.perf_counter()
        workload.load()
        workload.prepare()
        probe.stop()
        speed = probe.speed_over(t0, time.perf_counter())
        print(f"ready {probe.spent!r} {speed!r}", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    print(f"# g2lift benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {env_stamp()}")
    problems = []

    if args.trace:
        base_wall = untraced_wall(args)
        tracer = Tracer()
        workload.load()
        tracer.install()
        workload.prepare()
        mark = len(tracer.spans)
        # The probe keeps traced and untraced wall_s on the same scale; its
        # time falls inside whichever span it interrupts, about 2% of each.
        probe = SpeedProbe()
        probe.start()
        passes = [run_pass(workload, args.seed, tracer, probe)]
        probe.stop()
        rescale(passes, probe, workload.deadline_s)
        tracer.uninstall()
    else:
        setup_times = measure_setup(args.workload)
        t0 = time.perf_counter()
        workload.load()
        workload.prepare()
        print(f"# in-process set-up {time.perf_counter() - t0:.3f} s")
        probe = SpeedProbe()
        probe.start()
        passes, elapsed = [], 0.0
        while True:
            passes.append(run_pass(workload, args.seed, probe=probe))
            elapsed += passes[-1]["raw_wall"]
            if workload.single_pass or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        probe.stop()
        rescale(passes, probe, workload.deadline_s)

    import g2lift

    if not Path(g2lift.__file__).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"g2lift imported from {g2lift.__file__}, not from {SRC}")
    if hasattr(workload, "check_base_records"):
        problems.append(workload.check_base_records())
    try:
        control = workload.control()
    except Exception as exc:  # a control that cannot run leaves the run unchecked
        control = f"negative control raised {exc!r}"
    print(f"negative control: {'failed as required' if control is None else control}")
    problems.append(control)
    wrong = [v for p in passes for v in p["verdicts"] if v.startswith("wrong")]
    errors = [v for p in passes for v in p["verdicts"] if v.startswith("error")]
    if wrong:
        problems.append(f"{len(wrong)} wrong answers, the first: {wrong[0]}")
    problems = [p for p in problems if p]

    if args.trace:
        check_names = sorted(load_json("structure_reference.json")["checks"])
        metrics = report_traced(workload, tracer, mark, passes, base_wall, check_names)
        attempted = len(passes[0]["verdicts"])
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        attempted, metrics = report_untraced(workload, setup_times, passes, probe)
    for problem in problems:
        print(f"INVALID: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(wrong) + len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
