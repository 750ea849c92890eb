#!/usr/bin/env python3
"""Time two checkouts on the same jobs of three perfbench streams in one process.

    python scripts/ab_timing.py PARENT CHANGE --seed 1 [--jobs 160]

PARENT and CHANGE are source checkouts (their ``src/qheun`` is loaded
under a name of its own, so both live in this process), and
``perfbench/workloads.py`` is loaded once for each of them; that file is
only read.  The jobs are, per stream of the seed:

* verify-sweep: the first JOBS ``qheun verify`` jobs (160, the default,
  is the stream's 30-second budget);
* jackson-transform: the first JACKSON_STEPS job steps (the stream's
  30-second budget), each a boundary-limit or a transform point check.
  Each checkout runs its own copy of the stream; a draw's prepare step
  runs on both sides, untimed, before its jobs.  A step is timed over
  the span that perfbench/run.py measures, up to the moment it starts
  its checks (``Env.check_start``), so the check of a transform
  against the explicit bilateral forms is excluded; the g1/g2 split of
  verify-sweep times those forms;
* accessory-scan: the first ACCESSORY_JOBS ``qheun accessory`` jobs
  (four rounds of its 39 family and N pairs).

Each job runs on both checkouts three times, the side that goes first
alternating, and keeps each side's best time.  Timing both sides in one
process, job by job, cancels the drift of a shared machine, which moves
whole runs by up to a factor of two.

Prints, per stream, the change/parent ratios of the median, the 90th
percentile and the total of the per-job best times, and the number of
jobs whose result differs (stdout and exit code of a command; attempted
checks, failures and values of a jackson-transform step).  A refactor
that claims identical answers reads 0 there.  For verify-sweep it also
prints those three ratios for the jobs of the bilateral forms g1/g2 and
for the other jobs, to show where a change of one kind of sum lands.

Each job that differs is then classified by its answers:

* verify-sweep, per (form, root) check: pass -> fail, fail -> pass or
  both fail, and the change/parent ratio of the max residuals of the
  checks with a finite residual on both sides (median and worst);
* jackson-transform, per step: pass -> fail, fail -> pass or both fail
  by whether any of its checks failed, and the change/parent ratio of
  its checked values (residuals and errors; median and worst);
* accessory-scan, per job: pass -> fail, fail -> pass or both fail by
  exit code and certificates (each at most 1e-10), the worst move of a
  root relative to its modulus and the worst change/parent ratio of a
  root's certificate.

It ends with one line for the start-up cost: IMPORT_RUNS fresh
interpreters per side, the sides alternating, each timing its own
``import qheun.cli``; the line gives both medians, their change/parent
ratio and the packages outside the standard library that the import
loads on each side.

Exits 1 if any check goes from pass to fail.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
REPEATS = 3
JACKSON_STEPS = 288
ACCESSORY_JOBS = 156
ACCESSORY_TOL = 1e-10  # the certificate bound of an accessory root
TRANSITIONS = ("pass->fail", "fail->pass", "both fail")
IMPORT_RUNS = 9
IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import qheun.cli\n"
    "seconds = time.perf_counter() - start\n"
    "new = {m.partition('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names) - {'qheun'}\n"
    "print(seconds, ','.join(sorted(new)) or '-')"
)


def load_checkout(root: Path, name: str):
    """The ``cli`` module of root's src/qheun, imported as the package ``name``."""
    package = root / "src" / "qheun"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_workloads(package: str):
    """perfbench/workloads.py, loaded with the package ``package`` standing
    in for the ``qheun`` it imports."""
    aliases = {key.replace(package, "qheun", 1): mod for key, mod in sys.modules.items() if key.split(".")[0] == package}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"ab_workloads_{package}", WORKLOADS)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, mod in saved.items():
            if mod is None:
                sys.modules.pop(key)
            else:
                sys.modules[key] = mod
    return workloads


def stream_jobs(workloads, stream: str, seed: int, count: int) -> list[tuple[dict, list[str]]]:
    """(config, command) of the first count jobs of a stream of seed, the
    command being the ``qheun`` arguments without ``--config``."""
    jobs, config = [], None
    with tempfile.TemporaryDirectory() as tmp:
        for step in workloads.WORKLOADS[stream](seed, Path(tmp)):
            if not step.job:
                config = step.inputs
                continue
            # label "verify <family> N=<N> <form>" or "accessory <family> N=<N>"
            command, *_, form = step.label.split()
            jobs.append((config, [command, "--solution", form] if command == "verify" else [command]))
            if len(jobs) == count:
                return jobs
    return jobs


def run_job(cli, path: Path, config: dict, argv: list[str]) -> tuple[float, str]:
    """(seconds, stdout and exit code) of one in-process ``qheun`` command
    on config, written to path first."""
    path.write_text(json.dumps(config))
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            cli.main(argv, prog_name="qheun")
        code = 0
    except SystemExit as stop:
        code = stop.code
    return time.perf_counter() - start, f"{buf.getvalue()}exit {code}\n"


def cli_runs(clis, jobs: list[tuple[dict, list[str]]], path: Path) -> list[list]:
    """Per job, its run on each side."""
    return [
        [partial(run_job, cli, path, config, [*command, "--config", str(path)]) for cli in clis]
        for config, command in jobs
    ]


def run_step(step, env) -> tuple[float, str]:
    """(seconds, the checks' result as JSON) of one jackson-transform job step,
    timed up to its env.checked_at where it sets one, as perfbench/run.py does."""
    env.checked_at = None
    start = env.clock()
    out = step.run(env)
    end = env.checked_at if env.checked_at is not None else env.clock()
    return end - start, json.dumps([out.attempted, sorted(out.failures.items()), out.values])


def step_runs(workloads, seed: int, count: int, workdir: Path) -> tuple[list[list], list[str]]:
    """Per job step of the first count of each side's jackson-transform
    stream, its run on each side, and its label; the prepare steps before
    it have run."""
    envs = [w.Env(time.perf_counter) for w in workloads]
    streams = [w.WORKLOADS["jackson-transform"](seed, workdir) for w in workloads]
    runs, labels = [], []
    for steps in zip(*streams):
        if len(runs) == count:
            break
        assert steps[0].label == steps[1].label, steps
        if steps[0].job:
            runs.append([partial(run_step, step, env) for step, env in zip(steps, envs)])
            labels.append(steps[0].label)
        else:
            for step, env in zip(steps, envs):
                step.run(env)
    return runs, labels


def compare(runs: list[list]) -> tuple[list[list[float]], dict[int, tuple[str, str]]]:
    """Per side, each job's best time; and job index -> (parent's result,
    change's result) of each job whose result differs."""
    best = [[], []]
    differ = {}
    for index, sides in enumerate(runs):
        times, results = [[], []], [set(), set()]
        for repeat in range(REPEATS):
            for side in ((0, 1) if (index + repeat) % 2 == 0 else (1, 0)):
                seconds, result = sides[side]()
                times[side].append(seconds)
                results[side].add(result)
        if results[0] != results[1] or len(results[0]) != 1:
            differ[index] = (min(results[0]), min(results[1]))
        for side in (0, 1):
            best[side].append(min(times[side]))
    return best, differ


def transition(passed: tuple[bool, bool]) -> str | None:
    """The TRANSITIONS entry of a check that passed on (parent, change), None where both pass."""
    return {(True, False): "pass->fail", (False, True): "fail->pass", (False, False): "both fail"}.get(passed)


def report(result: str) -> tuple[dict, int]:
    """(the JSON report, exit code) of a command's result; {} where stdout holds no report."""
    text, _, code = result.rpartition("exit ")
    try:
        return json.loads(text), int(code)
    except ValueError:
        return {}, int(code)


def verify_checks(result: str) -> dict[tuple, tuple[bool, float]]:
    """(form, root index) -> (passed, max residual) of each check of a verify report."""
    results = report(result)[0].get("results", [])
    return {(r["form"], r["root_index"]): (r["status"] == "pass", r["max_residual"]) for r in results}


def label(config: dict, command: list[str]) -> str:
    return f"{config.get('family', 'generic')} N={config.get('N', 0)} {command[2] if len(command) > 2 else ''}".strip()


def spread(ratios: list[tuple[float, str]], what: str) -> str:
    """The median and the worst (largest) of ratios, with the worst's label."""
    if not ratios:
        return f"{what}: none"
    worst = max(ratios)
    return f"{what}: median {statistics.median(r for r, _ in ratios):.3g}, worst {worst[0]:.3g} at {worst[1]}"


def classify_verify(jobs, differ) -> tuple[Counter, str]:
    """Transitions of the (form, root) checks of the differing verify jobs,
    and the spread of their max-residual ratios."""
    counts, ratios = Counter(), []
    for index, results in differ.items():
        parent, change = (verify_checks(result) for result in results)
        for key in parent.keys() | change.keys():
            (p_pass, p_res), (c_pass, c_res) = parent.get(key, (False, math.inf)), change.get(key, (False, math.inf))
            counts[transition((p_pass, c_pass))] += 1
            if 0 < p_res < math.inf and 0 <= c_res < math.inf:
                ratios.append((c_res / p_res, f"{label(*jobs[index])}[{key[1]}]"))
    return counts, spread(ratios, "max residual change/parent")


def classify_steps(labels, differ) -> tuple[Counter, str]:
    """Transitions of the differing jackson-transform steps by whether any
    check failed, and the spread of the ratios of their checked values."""
    counts, ratios = Counter(), []
    for index, results in differ.items():
        (_, p_fail, p_values), (_, c_fail, c_values) = (json.loads(result) for result in results)
        counts[transition((not p_fail, not c_fail))] += 1
        ratios += [(b / a, labels[index]) for a, b in zip(p_values, c_values) if 0 < a < math.inf and math.isfinite(b)]
    return counts, spread(ratios, "checked value change/parent")


def accessory_answers(result: str) -> tuple[bool, list[complex], list[float]]:
    """(passed, roots, certificates) of an accessory report."""
    rep, code = report(result)
    acc = rep.get("accessory", {})
    roots, certs = [complex(*r) for r in acc.get("roots", [])], acc.get("certificates", [])
    return code == 0 and bool(certs) and all(c <= ACCESSORY_TOL for c in certs), roots, certs


def classify_accessory(jobs, differ) -> tuple[Counter, str]:
    """Transitions of the differing accessory jobs, the worst root move
    relative to |r| and the worst certificate ratio."""
    counts, moves, ratios = Counter(), [], []
    for index, results in differ.items():
        (p_pass, p_roots, p_certs), (c_pass, c_roots, c_certs) = (accessory_answers(r) for r in results)
        counts[transition((p_pass, c_pass))] += 1
        where = label(*jobs[index])
        moves += [(abs(b - a) / max(abs(a), 1e-300), where) for a, b in zip(p_roots, c_roots)]
        ratios += [(b / a, where) for a, b in zip(p_certs, c_certs) if 0 < a < math.inf and math.isfinite(b)]
    return counts, f"{spread(moves, 'root move relative to |r|')}; {spread(ratios, 'certificate change/parent')}"


BILATERAL = ("g1", "g2")


def summary(best: list[list[float]]) -> dict[str, float]:
    """p50, p90 and total of each side's per-job best times, in ms."""
    out = {}
    for side, name in enumerate(("parent", "change")):
        ms = [1000.0 * t for t in best[side]]
        p50, p90 = (statistics.quantiles(ms, n=10)[i] for i in (4, 8)) if len(ms) > 1 else (ms[0], ms[0])
        out.update({f"{name}_p50_ms": p50, f"{name}_p90_ms": p90, f"{name}_total_ms": sum(ms)})
    return out


def print_bilateral_split(jobs: list[tuple[dict, list[str]]], best: list[list[float]]) -> None:
    """The ratios of summary for the jobs of g1/g2 and for the other jobs."""
    for name, bilateral in (("g1/g2", True), ("other", False)):
        picked = [i for i, (_, command) in enumerate(jobs) if (command[2] in BILATERAL) == bilateral]
        if picked:
            stats = summary([[side[i] for i in picked] for side in best])
            ratios = "  ".join(
                f"{key} {stats[f'change_{key}_ms'] / stats[f'parent_{key}_ms']:.3f}" for key in ("p50", "p90", "total")
            )
            print(f"{name:>5}  {len(picked)} jobs, ratios  {ratios}")


def import_run(root: Path) -> tuple[float, str]:
    """(seconds, the packages outside the standard library and qheun it loads) of
    ``import qheun.cli`` from root's src, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True).stdout
    seconds, loaded = out.split()
    return float(seconds), loaded


def print_import_times(roots: list[Path]) -> None:
    """The median of IMPORT_RUNS fresh-interpreter imports of qheun.cli on each side,
    the sides alternating, their ratio, and the packages each side's import loads."""
    times, loaded = [[], []], [set(), set()]
    for run in range(IMPORT_RUNS):
        for side in ((0, 1) if run % 2 == 0 else (1, 0)):
            seconds, packages = import_run(roots[side])
            times[side].append(1000.0 * seconds)
            loaded[side].add(packages)
    parent, change = (statistics.median(t) for t in times)
    print(
        f"import qheun.cli, median of {IMPORT_RUNS} fresh interpreters: {parent:.1f} ms -> {change:.1f} ms  "
        f"ratio {change / parent:.3f}; outside the standard library: parent {'|'.join(sorted(loaded[0]))}, "
        f"change {'|'.join(sorted(loaded[1]))}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=160)
    args = ap.parse_args(argv)
    clis = [load_checkout(args.parent.resolve(), "qheun_parent"), load_checkout(args.change.resolve(), "qheun_change")]
    workloads = [load_workloads("qheun_parent"), load_workloads("qheun_change")]
    worse = 0
    with tempfile.TemporaryDirectory() as tmp:
        streams = (("verify-sweep", args.jobs), ("jackson-transform", JACKSON_STEPS), ("accessory-scan", ACCESSORY_JOBS))
        for stream, count in streams:
            if stream == "jackson-transform":
                runs, labels = step_runs(workloads, args.seed, count, Path(tmp))
                unit = "steps"
            else:
                jobs = stream_jobs(workloads[1], stream, args.seed, count)
                runs, unit = cli_runs(clis, jobs, Path(tmp) / "job.json"), "jobs"
            best, stream_differ = compare(runs)
            stats = summary(best)
            print(f"seed {args.seed}: {len(runs)} {stream} {unit}, best of {REPEATS}, change/parent")
            for key in ("p50", "p90", "total"):
                parent, change = stats[f"parent_{key}_ms"], stats[f"change_{key}_ms"]
                print(f"{key:>5}  {parent:10.2f} ms -> {change:10.2f} ms  ratio {change / parent:.3f}")
            if stream == "verify-sweep":
                print_bilateral_split(jobs, best)
            print(f"{unit} with different output: {len(stream_differ)}")
            if stream == "verify-sweep":
                counts, detail = classify_verify(jobs, stream_differ)
                kind = "checks"
            elif stream == "jackson-transform":
                counts, detail = classify_steps(labels, stream_differ)
                kind = "steps"
            else:
                counts, detail = classify_accessory(jobs, stream_differ)
                kind = "jobs"
            print(f"{kind} that differ: " + ", ".join(f"{name} {counts[name]}" for name in TRANSITIONS) + f"; {detail}")
            worse += counts["pass->fail"]
    print_import_times([args.parent.resolve(), args.change.resolve()])
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
