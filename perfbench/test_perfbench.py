"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qheun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Env, Outcome, Step  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _qheun_bindings() -> dict:
    return {
        (key, attr): value
        for key, mod in sys.modules.items()
        if key == "qheun" or key.startswith("qheun.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_jobs(workload, tmp_path):
    def jobs(seed):
        return [(s.label, s.inputs) for s in itertools.islice(WORKLOADS[workload](seed, tmp_path), 150)]

    assert jobs(3) == jobs(3)
    assert jobs(3) != jobs(4)


def test_same_seed_attempts_and_fails_the_same_checks(tmp_path):
    def tally(delay):
        def slow_clock():
            time.sleep(delay)
            return time.perf_counter()

        out, _ = run.run_steps(WORKLOADS["accessory-scan"](7, tmp_path), Env(slow_clock), jobs=40)
        return len(out.job_ms), out.attempted, out.failures

    assert tally(0.0) == tally(0.002)
    assert tally(0.0)[0] == 40


def _q_slices_per_kind(workload: str, jobs: int, tmp_path) -> list[Counter]:
    """How often each job kind drew each q slice in the first ``jobs`` jobs."""
    slices: dict = {}
    done = 0
    for step in WORKLOADS[workload](2, tmp_path):
        if step.job:
            done += 1
            if done == jobs:
                break
        elif step.inputs is not None:  # a draw: a config, or the parameters of a transform draw
            if isinstance(step.inputs, dict):
                family, q, kind = step.inputs["family"], step.inputs["q"], (step.inputs["family"], step.inputs["N"])
            else:
                family, q, kind = step.label.split()[1], step.inputs[0].q, tuple(step.label.split()[1:4])
            lo, hi = workloads.Q_RANGE[family]
            slices.setdefault(kind, Counter())[int((q - lo) / (hi - lo) * workloads.Q_STRATA)] += 1
    return list(slices.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_budget_balances_q_slices_per_kind(workload, tmp_path):
    block = run.job_budget(workload, 0.01)
    assert run.job_budget(workload, BENCH["run_seconds"]) % block == 0
    for c in _q_slices_per_kind(workload, block, tmp_path):
        assert len(c) == workloads.Q_STRATA and len(set(c.values())) == 1, c


def test_tracing_restores_every_wrapped_function():
    before = _qheun_bindings()
    with Tracer() as tracer:
        from qheun import family_one, qcore

        assert family_one.q_pochhammer_ratio is not before[("qheun.family_one", "q_pochhammer_ratio")]
        assert qcore.theta is not before[("qheun.qcore", "theta")]
        qcore.theta(0.5 + 0.1j, 0.5)
    calls, _ = tracer.self_times()
    assert calls[SPAN_NAMES.index("qcore.theta")] == 1
    after = _qheun_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untyped_exception_is_counted_not_raised():
    def overflowing_cli(argv, prog_name):
        raise OverflowError("(34, 'Numerical result out of range')")

    stream = WORKLOADS["verify-sweep"](1, ROOT / "perfbench" / "_work")
    job = next(s for s in stream if s.job)
    N = int(re.search(r"N=(\d+)", job.label).group(1))
    out = job.run(Env(time.perf_counter, cli=overflowing_cli))
    assert out.failures == {"OverflowError": N + 1} and out.attempted == N + 1

    def broken(env):
        raise ZeroDivisionError("escaped a job")

    tally, done = run.run_steps([Step(True, broken, "broken")], Env(time.perf_counter), keep=True)
    assert tally.failures == {"ZeroDivisionError": 1} and len(done) == 1


def test_metric_names_match_benchmark_json():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert set(BENCH["workloads"][i]["name"] for i in range(len(BENCH["workloads"]))) == set(WORKLOADS)

    tally = run.Tally()
    tally.add(Outcome(attempted=1, values=[1e-14], units=3), "job", 2.0)
    tally.elapsed = tally.busy = 1.0
    assert list(run.end_to_end(tally, 0.3)) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(run.per_layer(Tracer(), tally, tally, 0)) == [m["name"] for m in BENCH["per_layer"]]


def test_traced_accessory_steps_make_no_q_products(tmp_path):
    steps = list(itertools.islice(WORKLOADS["accessory-scan"](5, tmp_path), 20))
    with Tracer() as tracer:
        tally, _ = run.run_steps(steps, Env(time.perf_counter, cli=tracer.wrap("cli.job", qheun.cli.main)))
    calls = dict(zip(SPAN_NAMES, tracer.self_times()[0]))
    assert calls["cli.job"] == len(tally.job_ms) == 10
    assert tracer.errors["cli.job"] == 0  # a CLI exit is not an error
    assert calls["accessory.poly_roots"] > 0
    assert calls["qcore.q_pochhammer_ratio"] == calls["qcore.phi_series"] == 0


def _bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", "accessory-scan", "--seed", "1", "--seconds", "1", *extra]
    return subprocess.run([sys.executable] + cmd[1:], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_short_run_prints_the_result_line():
    res = _bench(ROOT, "--trace", "0")
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert last["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = _bench(tmp_path, "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
