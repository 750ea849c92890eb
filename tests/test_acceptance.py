"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; criterion 9 drives the CLI end to end
in a subprocess.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qheun
from qheun import acceptance


@pytest.mark.parametrize("index", range(1, 9))
def test_criterion(index):
    result = acceptance.run_one(index)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_9_cli_selftest():
    # The subprocess must import the same qheun as this test, installed or not.
    src = str(Path(qheun.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qheun.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    dt = time.perf_counter() - t0
    status = "PASS" if proc.returncode == 0 and dt < 120 else "FAIL"
    print(f"[{status}] criterion 9: CLI selftest end-to-end ({dt:.2f}s)")
    sys.stdout.write(proc.stdout)
    assert proc.returncode == 0
    assert dt < 120
    assert "8/8 criteria passed" in proc.stdout
