#!/usr/bin/env python3
"""qheun benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  The run executes jobs one after another in this
process and thread (a closed loop with a single client), checks every
job's output, prints a summary, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run's work is fixed by ``--seed`` and ``--seconds``: a job budget
sized to last about ``--seconds`` on a 2-vCPU VM at the package's
first version (JOB_RATE).  Two runs of one seed therefore attempt, and
fail, exactly the same checks; faster code finishes the budget sooner.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced on half the budget, then replays exactly the same steps with
the library's public functions wrapped in spans, and reports per-layer
metrics plus the tracing overhead measured on that identical work.
README.md beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
# Per workload: jobs per second of --seconds, and the block the job
# budget is rounded to.  A block is the fewest whole rounds of the
# stream in which every job kind draws each of the Q_STRATA slices of q
# equally often (verify-sweep: 2 rounds of 80 jobs; jackson-transform:
# 4 rounds of 12 draws of 3 jobs; accessory-scan: 4 rounds of 39 jobs),
# so that every run holds the same mix of job kinds and q slices.
JOB_RATE = {"verify-sweep": (6.5, 160), "jackson-transform": (11.0, 144), "accessory-scan": (120.0, 156)}
# Safety stop, so that a much slower program still ends in time: the
# job loop stops at min(CUTOFF_FACTOR * --seconds, MAX_LOOP_S) seconds.
CUTOFF_FACTOR = 4
MAX_LOOP_S = 150.0
RESIDUAL_FLOOR = 1e-20
# Failure classes the seed is known to produce, reported one by one in
# traced runs; any other class is summed into failures.other.
FAILURE_CLASSES = (
    "ToleranceMiss", "NoConvergence", "ConvergenceError", "OverflowError",
    "NoLimit", "LimitMismatch", "TransformMismatch", "NonFinite",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import qheun.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qheun.cli"], env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Aggregate of job outcomes over one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.messages: dict = {}
        self.values: list[float] = []
        self.units = 0
        self.inconsistent: list[str] = []
        self.job_ms: list[float] = []
        self.elapsed = 0.0  # wall time of the whole loop
        self.busy = 0.0  # time inside steps, without generating them

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, outcome, label: str, ms: float | None) -> None:
        if ms is not None:
            self.job_ms.append(ms)
        self.attempted += outcome.attempted
        self.failures.update(outcome.failures)
        for kind, msg in outcome.messages.items():
            self.messages.setdefault(kind, f"{label}: {msg}")
        self.values.extend(outcome.values)
        self.units += outcome.units
        self.inconsistent.extend(f"{label}: {m}" for m in outcome.inconsistent)


def job_budget(workload: str, seconds: float) -> int:
    """Jobs in a run of ``seconds``: a whole number of blocks, at least one."""
    rate, block = JOB_RATE[workload]
    return block * max(1, round(seconds * rate / block))


def run_steps(
    steps, env, jobs: int | None = None, cutoff: float | None = None, keep: bool = False
) -> tuple[Tally, list]:
    """Execute steps in order until ``jobs`` jobs have run (every step when None).

    ``cutoff`` is a safety deadline on the clock: once a job has run,
    the loop stops there even short of the budget, and says so.

    Returns the tally and, with ``keep``, the steps that ran (for a
    traced replay; otherwise they are dropped, so memory does not grow
    with the budget).  An exception escaping a step is counted against
    it by class, never raised.
    """
    from workloads import Outcome

    tally, done = Tally(), []
    clock = env.clock
    t0 = clock()
    for step in steps:
        if cutoff is not None and clock() >= cutoff and tally.job_ms:
            print(f"perfbench: stopped at the safety limit after {len(tally.job_ms)} jobs", file=sys.stderr)
            break
        if keep:
            done.append(step)
        env.checked_at = None
        start = clock()
        try:
            outcome = step.run(env)
        except Exception as exc:
            outcome = Outcome()
            outcome.raised(exc)
        end = env.checked_at if env.checked_at is not None else clock()
        tally.busy += clock() - start
        if outcome is not None:
            tally.add(outcome, step.label, 1e3 * (end - start) if step.job else None)
        if jobs is not None and len(tally.job_ms) >= jobs:
            break
    tally.elapsed = clock() - t0
    return tally, done


def decades(r: float) -> float:
    """log10(r / 1e-20): residuals are compared by order of magnitude, kept positive."""
    return math.log10(max(r, RESIDUAL_FLOOR) / RESIDUAL_FLOOR)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    ms = tally.job_ms
    p50, p90 = (statistics.quantiles(ms, n=10)[i] for i in (4, 8)) if len(ms) > 1 else (ms[0], ms[0])
    values = tally.values or [math.inf]
    return {
        "setup_s": (setup_s, "s"),
        "units_per_s": (tally.units / tally.elapsed, "1/s"),
        "job_ms_p50": (p50, "ms"),
        "job_ms_p90": (p90, "ms"),
        "pass_ratio": (1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
        "residual_worst": (decades(max(values)), "log10/1e-20"),
        "residual_median": (decades(statistics.median(values)), "log10/1e-20"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: Tally, traced: Tally, runtime_warnings: int) -> dict:
    from spans import COUNTERS, SPAN_NAMES

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, selfs = tracer.self_times()
    out = {}
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = (int(calls[i]), "count")
        out[f"{name}.self_s"] = (float(selfs[i]), "s")
        out[f"{name}.errors"] = (tracer.errors[name], "count")
    for name in COUNTERS:
        out[name] = (tracer.counts[name], "count")
    out["warnings.runtime"] = (runtime_warnings, "count")
    c = dict(zip(SPAN_NAMES, calls.tolist()))
    counts = tracer.counts
    out["qtransform.kernel_value.per_transform"] = (
        ratio(c["qtransform.kernel_value"], c["qtransform.transform"]), "calls/transform")
    out["qcore.bilateral_sum.terms_per_call"] = (
        ratio(counts["qcore.bilateral_sum.terms"], c["qcore.bilateral_sum"]), "terms/call")
    out["accessory.poly_roots.certified_ratio"] = (
        ratio(counts["accessory.poly_roots.roots_certified"], counts["accessory.poly_roots.roots_sought"]), "ratio")
    out["checks.attempted"] = (traced.attempted, "count")
    out["checks.fail_ratio"] = (ratio(traced.failed, traced.attempted), "ratio")
    for kind in FAILURE_CLASSES:
        out[f"failures.{kind}"] = (traced.failures[kind], "count")
    out["failures.other"] = (traced.failed - sum(traced.failures[k] for k in FAILURE_CLASSES), "count")
    out["trace.jobs"] = (len(traced.job_ms), "count")
    # The replay skips generating steps, so both phases are timed by busy time.
    out["trace.untraced_units_per_s"] = (untraced.units / untraced.busy, "1/s")
    out["trace.traced_units_per_s"] = (traced.units / traced.busy, "1/s")
    out["trace.overhead_ratio"] = (traced.busy / untraced.busy - 1.0, "ratio")
    return out


def summarize(workload: str, seed: int, tally: Tally, metrics: dict, directions: dict) -> None:
    print(f"workload {workload} seed {seed}: {len(tally.job_ms)} jobs (latency samples), "
          f"{tally.attempted} checks, {tally.units} units in {tally.elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<16} {directions.get(name, '')}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1):.4f}")
    for kind, count in tally.failures.most_common():
        print(f"  failures {kind:<20} {count:>6}   e.g. {tally.messages[kind]}")
    for line in tally.inconsistent[:10]:
        print(f"  INCONSISTENT {line}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qheun" / "__init__.py").is_file():
        fail(f"no qheun sources under {SRC}; run from a qheun source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qheun.cli
    from workloads import WORKLOADS, Env

    if Path(qheun.__file__).resolve().parent != (SRC / "qheun").resolve():
        fail(f"imported qheun from {qheun.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bench = ROOT / "BENCHMARK.json"
    spec = json.loads(bench.read_text()) if bench.is_file() else {}
    directions = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}

    setup_s = None if args.trace else measure_setup()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stream = WORKLOADS[args.workload](args.seed, workdir)
    runtime_warnings: Counter = Counter()

    def count_warning(message, category, *rest, **kw) -> None:
        runtime_warnings[category.__name__] += 1

    clock = time.perf_counter
    jobs = job_budget(args.workload, args.seconds)
    cutoff = clock() + min(CUTOFF_FACTOR * args.seconds, MAX_LOOP_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count_warning
            if not args.trace:
                tally, _ = run_steps(stream, Env(clock), jobs, cutoff)
                metrics = end_to_end(tally, setup_s)
            else:
                from spans import CLI_JOB, Tracer

                untraced, steps = run_steps(stream, Env(clock), max(1, jobs // 2), cutoff, keep=True)
                before = runtime_warnings["RuntimeWarning"]
                with Tracer(clock) as tracer:
                    tally, _ = run_steps(steps, Env(clock, cli=tracer.wrap(CLI_JOB, qheun.cli.main)), cutoff=cutoff)
                metrics = per_layer(tracer, untraced, tally, runtime_warnings["RuntimeWarning"] - before)
                tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summarize(args.workload, args.seed, tally, metrics, directions)
    print(json.dumps({
        "correct": not tally.inconsistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
