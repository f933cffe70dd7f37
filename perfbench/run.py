"""Benchmark of onepoint: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload corpus|large|finite --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The ops of a workload form a round; the run
repeats whole rounds until S seconds have passed and at least MIN_OPS ops
were attempted.  Every op of the first round is checked by ``checks``, outside
the timed region; later rounds must reproduce the first round's output.

Host speed drifts on a shared machine, so every time is scaled by
R_NOMINAL / R_run, where R_run is the time of a fixed Fraction computation
that runs between ops and uses nothing from onepoint, taken as the mean of
the samples just before and just after the timed stretch.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The line
before it holds the raw, unscaled figures, which are not metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Median R_run, in seconds, on the machine the reference figures in the
#: README come from.
R_NOMINAL = 0.0011
REF_EVERY_S = 0.025
SETUPS = 7
MIN_OPS = 100
OUT_DIR = HERE / "out"


def reference_work() -> int:
    """Fixed pure-Python Fraction work, the same kind onepoint does."""
    s = 0
    for i in range(1, 100):
        a = Fraction(i, i + 3)
        b = Fraction(2 * i + 1, i + 7)
        c = a * b + a - b
        s += (c < 1) + (a == b)
    return s


class Reference:
    """Host speed along the run, from reference_work timed between ops.

    Measured on a shared host, the speed of this work moves between two
    levels about 1.7x apart within half a second, so one median per run
    cannot follow it.  Every op is instead scaled by the mean of the samples
    taken just before and just after it.
    """

    def __init__(self):
        self.samples = []

    def sample(self, repeat: int = 1) -> float:
        """Time reference_work `repeat` times; return the median."""
        times = []
        for _ in range(repeat):
            t0 = perf_counter()
            reference_work()
            times.append(perf_counter() - t0)
        self.samples += times
        return statistics.median(times)

    def bracket(self, before: float, after: float, seconds: float) -> float:
        """seconds, scaled to nominal speed by the samples around them."""
        return seconds * R_NOMINAL / ((before + after) / 2)


MODULES = ("cli", "connectify", "records", "sampling", "intervals", "space", "finite")
COLD_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    + "; ".join(f"import onepoint.{n}" for n in MODULES)
    + "; print(time.perf_counter() - t0)"
)


def cold_import_s() -> float:
    """Seconds to import onepoint in a fresh interpreter, where the standard
    library modules it needs are not loaded yet (start-up not included)."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", COLD_IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def import_program():
    """Import onepoint from a clean module table, so that its caches start empty."""
    for name in [n for n in sys.modules if n == "onepoint" or n.startswith("onepoint.")]:
        del sys.modules[name]
    return type("Modules", (), {n: importlib.import_module(f"onepoint.{n}") for n in MODULES})


def execute(m, op):
    """Run one op; returns (ns, exit code, lines, stderr text, exception)."""
    lines = []
    err = io.StringIO()
    saved, sys.stderr = sys.stderr, err
    exc, rc = None, 0
    t0 = perf_counter_ns()
    try:
        if op.argv is not None:
            rc = m.cli.main(op.argv, emit=lines.append)
        else:
            lines = op.call()
    except SystemExit as e:  # argparse rejects a request this way
        rc = e.code
    except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
        exc = e
    finally:
        dt = perf_counter_ns() - t0
        sys.stderr = saved
    return dt, rc, lines, err.getvalue(), exc


def setup(workload: str, seed: int, tracer=None):
    """One set-up; returns (modules, ops, seconds).

    The seconds are a cold import of onepoint in a fresh interpreter plus
    the generation of the inputs and the warm-up here.  The in-process
    re-import is not timed: this process has already loaded the standard
    library modules onepoint uses, so it would not show their cost.
    """
    import workloads

    cold = cold_import_s()
    m = import_program()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    ops = workloads.WORKLOADS[workload](m, seed)
    for op in ops:
        if op.warm:
            execute(m, op)
    return m, ops, cold + perf_counter() - t0


def nearest_rank(sorted_vals, q: float) -> float:
    k = max(0, -(-len(sorted_vals) * q // 1) - 1)
    return sorted_vals[int(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "large", "finite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "onepoint" / "__init__.py").is_file():
        print(f"error: onepoint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    ref = Reference()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
    raw_setup, setup_scaled = [], []
    for _ in range(1 if args.trace else SETUPS):
        m = ops = None
        gc.collect()
        before = ref.sample(3)
        m, ops, seconds = setup(args.workload, args.seed, tracer)
        raw_setup.append(seconds)
        if len(raw_setup) == 1:
            first_setup_end = perf_counter() - T_START
        setup_scaled.append(ref.bracket(before, ref.sample(3), raw_setup[-1]))
    if tracer is not None:
        setup_table = tracer.snapshot()
        tracer.reset()
    gc.collect()

    checker = checks.Checker()
    expected, problems, failures = [], [], {}
    raw_ms, scaled_ms = [], []  # per op
    pending = []  # ns of the ops since the last reference sample
    failed = attempted = rounds = 0
    raw_total = scaled_total = 0.0

    def flush(before: float, repeat: int = 1) -> float:
        nonlocal raw_total, scaled_total
        after = ref.sample(repeat)
        for ns in pending:
            sec = ref.bracket(before, after, ns / 1e9)
            raw_total += ns / 1e9
            scaled_total += sec
            raw_ms.append(ns / 1e6)
            scaled_ms.append(sec * 1e3)
        pending.clear()
        return after

    # An op that took longer than REF_EVERY_S in the first round gets fresh
    # samples of 3 right before and right after it.
    long_ops = set()
    last = ref.sample()
    start = perf_counter()
    next_ref = start + REF_EVERY_S
    while True:
        for i, op in enumerate(ops):
            if i in long_ops or perf_counter() >= next_ref:
                last = flush(last, 3 if i in long_ops else 1)
                next_ref = perf_counter() + REF_EVERY_S
            ns, rc, lines, err, exc = execute(m, op)
            attempted += 1
            pending.append(ns)
            if i in long_ops:
                last = flush(last, 3)
                next_ref = perf_counter() + REF_EVERY_S
            if exc is not None:
                failed += 1
                name = f"{op.kind}:{type(exc).__name__}"
                failures[name] = failures.get(name, 0) + 1
                digest = hash(name)
                # Only the oversized inputs are known to raise; anything
                # else raising is a wrong output.
                if op.kind != "oversized":
                    problems.append(f"{op.kind} {op.ctx[0][:60]!r}: raised {name}: {exc}")
            else:
                digest = hash((rc, tuple(lines)))
            if rounds == 0:
                if ns > REF_EVERY_S * 1e9:
                    long_ops.add(i)
                expected.append(digest)
                reason = None if exc else checker.check(op.kind, op.ctx, rc, lines, err)
                if reason:
                    problems.append(reason)
            elif digest != expected[i]:
                problems.append(f"{op.kind} {op.ctx[0][:60]!r}: output differs from round 1")
        rounds += 1
        if perf_counter() - start >= args.seconds and attempted >= MIN_OPS:
            break
    flush(last)
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw_ms.sort()
    scaled_ms.sort()
    q = statistics.quantiles(ref.samples, n=4)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "wall_s": wall,
        "round_wall_s": wall / rounds,
        "op_time_s": raw_total,
        "op_time_scaled_s": scaled_total,
        "setup_s": raw_setup,
        "first_setup_end_s": first_setup_end,
        "R_samples": len(ref.samples),
        "R_q1_median_q3_ms": [q[0] * 1e3, q[1] * 1e3, q[2] * 1e3],
        "ops_per_s": attempted / raw_total,
        "op_ms_p50": statistics.median(raw_ms),
        "op_ms_p90": nearest_rank(raw_ms, 0.9),
    }
    for p in problems[:5]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"raw": raw}))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (attempted / scaled_total, "1/s"),
            "op_ms_p50": (statistics.median(scaled_ms), "ms"),
            "op_ms_p90": (nearest_rank(scaled_ms, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        table = {
            k: tuple(s + v / rounds for s, v in zip(setup_table.get(k, (0, 0, 0, 0)), vals))
            for k, vals in tracer.snapshot().items()
        }
        metrics = layers.layer_metrics(table, scaled_total / raw_total)
        OUT_DIR.mkdir(exist_ok=True)
        rows = {
            k: {"calls": v[0], "incl_ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
            for k, v in sorted(table.items())
            if v[0]
        }
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"raw": raw, "per_round_with_setup": rows}, indent=1) + "\n")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
