"""qubusim benchmark: one seeded workload in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load: one process, one thread, one caller in a closed loop (the next op is
sent only after the previous one returned).  The simulator is imported from
``src/`` of the checkout this file sits in.  Reported times are corrected
for the shared host's speed (see ``hostspeed.py``); raw wall times are
printed beside them.

``--trace 0`` times the ops with no wrappers installed and prints the
end-to-end metrics.  ``--trace 1`` runs passes over a fixed op list, each
pass once untraced and once traced, and prints the per-layer metrics with
the tracing overhead; spans are written to ``perfbench/out/``.  Either way
every op's output is checked after its cycle or pass, outside the timed
ops, and the last line of standard output is one JSON object: correct,
attempted, failed, metrics.  Without ``src/qubusim`` the run prints nothing
on standard output and exits with code 2.
"""

import os
import sys

if __name__ == "__main__":
    # one thread: pin numerical thread pools before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import hostspeed
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21
MODULES = ("state", "elements", "detection", "gates", "kak", "verify", "circuits", "errors")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def import_qubusim(src: Path) -> SimpleNamespace:
    """Import qubusim afresh from `src`, dropping any loaded copy first."""
    for key in [k for k in sys.modules if k == "qubusim" or k.startswith("qubusim.")]:
        del sys.modules[key]
    pkg = importlib.import_module("qubusim")
    if Path(pkg.__file__).resolve().parent != (src / "qubusim").resolve():
        raise BenchError(f"imported qubusim from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"qubusim.{m}") for m in MODULES})


def set_up(workload, seed: int):
    """Import qubusim afresh, load the workload's inputs, run the lazy
    set-up and build the first cycle.  Returns (context, first cycle,
    seconds taken); numpy is already loaded, so it is not counted."""
    src = ROOT / "src"
    if not (src / "qubusim" / "__init__.py").is_file():
        raise BenchError(f"no qubusim sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    gc.collect()  # garbage of an earlier set-up is not set-up work
    t0 = perf_counter()
    qs = import_qubusim(src)
    try:
        ctx = workloads.prepare(workload, qs, ROOT)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot load workload inputs: {exc}") from None
    qs.gates._magic_as_gates()
    first = workloads.make_cycle(workload, ctx, seed, 0)
    return ctx, first, perf_counter() - t0


def execute(op, runner=None):
    """(op, output or exception, latency s, raised?) for one op."""
    t0 = perf_counter()
    try:
        out = op.call() if runner is None else runner(op.index, op.call)
    except Exception as exc:  # an op that raises is a counted failure
        return op, exc, perf_counter() - t0, True
    return op, out, perf_counter() - t0, False


def run_ops(ops, speed, runner=None):
    """Execute ops in order, probing the host after every PROBE_EVERY_S of
    op time; each result gets the speed factor of its stretch appended."""
    results, pending, pending_s = [], [], 0.0
    for op in ops:
        pending.append(execute(op, runner))
        pending_s += pending[-1][2]
        if pending_s >= hostspeed.PROBE_EVERY_S or op is ops[-1]:
            f = speed.factor()
            results.extend((*res, f) for res in pending)
            pending, pending_s = [], 0.0
    return results


def is_simulator_error(exc) -> bool:
    # by name: ops of different set-ups hold different copies of the module
    return any(c.__name__ == "SimulatorError" and c.__module__ == "qubusim.errors"
               for c in type(exc).__mro__)


class Tally:
    """Checked ops: corrected and raw latencies of the good ones, the time of
    all of them, failures and problems.  A problem is a wrong output, or an
    exception from an op that is not known red."""

    def __init__(self):
        self.good: list[float] = []
        self.good_raw: list[float] = []
        self.busy = self.busy_raw = 0.0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, op, out, latency, raised, factor) -> None:
        self.attempted += 1
        self.busy += latency * factor
        self.busy_raw += latency
        if raised:
            self.failed += 1
            if not (op.known_red and is_simulator_error(out)):
                self.problems.append(
                    f"op {op.index} ({op.kind}) raised {type(out).__name__}: {out}")
            return
        reason = op.check(out)
        if reason is None:
            self.good.append(latency * factor)
            self.good_raw.append(latency)
        else:
            self.failed += 1
            self.problems.append(f"op {op.index} ({op.kind}): {reason}")


def tail(latencies, pct: float):
    """Nearest-rank `pct` percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_timed(workload, seed: int, seconds: float):
    """Whole cycles until `seconds` of op time have passed (and at least
    the workload's minimum number of cycles).

    Set-up is repeated SETUP_REPEATS times, spread over the run between
    cycles, so that its median sees the same host as the ops do.  Returns
    the tally, the host-speed probe and the corrected and raw median set-up
    times."""
    speed = hostspeed.HostSpeed()
    setups, setups_raw = [], []

    def timed_set_up():
        speed.restart()
        ctx, first, t = set_up(workload, seed)
        setups.append(t * speed.factor())
        setups_raw.append(t)
        return ctx, first

    ctx, ops = timed_set_up()
    execute(ops[0])  # warm-up, not counted
    tally = Tally()
    step = seconds / SETUP_REPEATS
    cycle_no = 0
    while tally.busy_raw < seconds or cycle_no < workload.min_cycles:
        if cycle_no:
            ops = workloads.make_cycle(workload, ctx, seed, cycle_no)
        speed.restart()
        for result in run_ops(ops, speed):
            tally.add(*result)
        cycle_no += 1
        while len(setups) < SETUP_REPEATS and tally.busy_raw >= step * len(setups):
            ctx, _ = timed_set_up()
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    return tally, speed, statistics.median(setups), statistics.median(setups_raw)


def run_traced(workload, seed: int, seconds: float):
    """Passes over the first `trace_cycles` cycles, each once untraced and
    once traced, until `seconds` have passed.  Returns the untraced and
    traced tallies and the tracer."""
    ctx, first, _ = set_up(workload, seed)
    ops = first + [op for c in range(1, workload.trace_cycles)
                   for op in workloads.make_cycle(workload, ctx, seed, c)]
    execute(ops[0])  # warm-up, not counted
    speed = hostspeed.HostSpeed()
    tracer = layers.Tracer()
    untraced, traced = Tally(), Tally()
    t_start = perf_counter()
    while True:
        speed.restart()
        results = run_ops(ops, speed)
        tracer.install()
        try:
            speed.restart()
            results_t = run_ops(ops, speed, tracer.run_op)
        finally:
            tracer.uninstall()
        for result in results:
            untraced.add(*result)
        for result in results_t:
            traced.add(*result)
        if perf_counter() - t_start >= seconds:
            return untraced, traced, tracer


def machine_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "load": "one process, one thread, closed loop (one caller)"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            untraced, tally, tracer = run_traced(workload, args.seed, args.seconds)
        else:
            tally, speed, setup_s, setup_raw = run_timed(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if not tally.good:
        print("benchmark: no op succeeded", file=sys.stderr)
        return 1
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# mix: {workload.mix}")
    print(f"# context {json.dumps(machine_context())}")

    if args.trace:
        problems = untraced.problems + tally.problems
        attempted = untraced.attempted + tally.attempted
        failed = untraced.failed + tally.failed
        p50_u = statistics.median(untraced.good) * 1e3
        p50_t = statistics.median(tally.good) * 1e3
        metrics = layers.per_layer_metrics(tracer, tally.attempted,
                                           (p50_t - p50_u, p50_t / p50_u - 1.0))
        span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.write_spans(span_file)
        print(f"# {tally.attempted} ops traced; op_p50_ms untraced {p50_u:.3f}, traced "
              f"{p50_t:.3f}; the last pass's {len(tracer.spans)} spans written to {span_file}")
        table = metrics
    else:
        problems, attempted, failed = tally.problems, tally.attempted, tally.failed
        tail_s, beyond = tail(tally.good, workload.tail_pct)
        metrics = {
            "op_p50_ms": (statistics.median(tally.good) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "ops_per_s": (len(tally.good) / tally.busy, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # error_rate is 0 where nothing fails, so it travels as failed/attempted
        table = dict(metrics, error_rate=(failed / attempted, "ratio"))
        print(f"# op_tail_ms is p{workload.tail_pct:g}: {beyond} of {len(tally.good)} samples "
              f"beyond it; setup_s is the median of {SETUP_REPEATS}")
        raw_tail = tail(tally.good_raw, workload.tail_pct)[0]
        print(f"# raw wall times: op_p50_ms {statistics.median(tally.good_raw) * 1e3:.4g}, "
              f"op_tail_ms {raw_tail * 1e3:.4g}, ops_per_s "
              f"{len(tally.good) / tally.busy_raw:.4g}, setup_s {setup_raw:.4g}; host speed "
              f"factor median {statistics.median(speed.factors):.3f} "
              f"(range {min(speed.factors):.3f}-{max(speed.factors):.3f})")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    for name, (value, unit) in table.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
