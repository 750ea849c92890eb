"""The example scripts run end to end on small arguments."""

import csv
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_transform_demo_routes_agree(monkeypatch, capsys):
    lines = run_script("transform_demo.py", ["--points", "3"], monkeypatch, capsys).splitlines()
    assert lines[0].startswith("# N = 1, q = ")
    assert lines[1].split() == ["x", "|series|", "|transform|", "rel", "diff", "residual"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 3
    for row in rows:
        assert len(row) == 5
        assert float(row[3]) <= 1e-10 and float(row[4]) <= 1e-10, row


@pytest.mark.parametrize("N", [1, 2])
def test_accessory_scan_routes_agree(N, monkeypatch, capsys):
    out = run_script("accessory_scan.py", ["--N", str(N), "--steps", "3"], monkeypatch, capsys)
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["q", "root_index", "E_re", "E_im", "coeff_gap"]
    assert len(rows) == 3 * (N + 1)
    assert [int(r[1]) for r in rows] == list(range(N + 1)) * 3
    assert all(float(r[4]) <= 1e-10 for r in rows)


# The entry points of tests/test_errors.py, in its order.
ERRORS = [
    "Family.setup", "Form.grid", "q_pochhammer", "phi_series", "jackson_integral", "kernel_value", "boundary_limits",
    "transform", "accessory_poly", "accessory_poly_expanded", "series_coefficients", "apparent_singularity_check",
]


def test_output_digest_is_stable_and_well_formed():
    digests = runpy.run_path(str(SCRIPTS / "output_digest.py"))["digests"]
    small = dict(verify_ns=(1,), transform_ns=(1,), generic_ns=(0,), evaluate_ns=(1,))
    lines = digests(1, **small)
    assert digests(1, **small) == lines
    sections = [line.split()[0] for line in lines]
    cli = ["accessory", "verify", "eval"]
    common = cli + ["rows", "transform", "limits"]
    assert sections == (
        [f"family1.{s}" for s in common + ["replay", "evaluate", "pointwise", "edges"]]
        + [f"family2.{s}" for s in common + ["defects", "replay", "evaluate", "pointwise", "edges"]]
        + [f"generic.{s}" for s in cli]
        + ["qcore.phi_series", "qcore.chain", "qcore.jackson_integral"]
        + ["recurrence"]
        + [f"errors.{name}" for name in ERRORS]
        + ["scripts.transform_demo", "acceptance"]
    )
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[1] for line in lines}) == len(lines)


def test_ab_timing_runs_both_sides_on_the_same_jobs(monkeypatch, capsys):
    root = str(SCRIPTS.parent)
    with pytest.raises(SystemExit) as stop:
        run_script("ab_timing.py", [root, root, "--seed", "1", "--jobs", "17"], monkeypatch, capsys)
    lines = capsys.readouterr().out.splitlines()
    assert stop.value.code == 0
    assert lines[0] == "seed 1: 17 verify-sweep jobs, best of 3, change/parent"
    assert [line.split()[0] for line in lines[1:4]] == ["p50", "p90", "total"]
    # The first 17 jobs of seed 1 hold two of g1/g2, both family1 g2.
    assert [line.split()[:4] for line in lines[4:6]] == [["g1/g2", "2", "jobs,", "ratios"], ["other", "15", "jobs,", "ratios"]]
    assert [line.split()[4::2] for line in lines[4:6]] == [["p50", "p90", "total"]] * 2
    # A checkout against itself: no output differs, so nothing is classified.
    assert lines[6] == "jobs with different output: 0"
    assert lines[7] == "checks that differ: pass->fail 0, fail->pass 0, both fail 0; max residual change/parent: none"
    assert lines[8] == "seed 1: 288 jackson-transform steps, best of 3, change/parent"
    assert [line.split()[0] for line in lines[9:12]] == ["p50", "p90", "total"]
    assert lines[12] == "steps with different output: 0"
    assert lines[13] == "steps that differ: pass->fail 0, fail->pass 0, both fail 0; checked value change/parent: none"
    assert lines[14] == "seed 1: 156 accessory-scan jobs, best of 3, change/parent"
    assert [line.split()[0] for line in lines[15:18]] == ["p50", "p90", "total"]
    assert lines[18:20] == [
        "jobs with different output: 0",
        "jobs that differ: pass->fail 0, fail->pass 0, both fail 0; root move relative to |r|: none; "
        "certificate change/parent: none",
    ]
    # Last, the start-up cost; the command path loads no package outside the standard library.
    assert re.fullmatch(
        r"import qheun\.cli, median of 9 fresh interpreters: \d+\.\d ms -> \d+\.\d ms  ratio \d\.\d{3}; "
        r"outside the standard library: parent -, change -",
        lines[20],
    ), lines[20]
    assert len(lines) == 21


def test_envelope_prints_one_cell(monkeypatch, capsys):
    out = run_script("envelope.py", ["--family", "family2", "--N", "1", "--q", "0.5"], monkeypatch, capsys)
    (line,) = out.splitlines()
    # 10 draws, 2 roots and 10 forms; N = 1 fails no check at q = 0.5.
    assert line.startswith("family2 N=1 q=0.5  0/200  worst passing ")
    assert line.endswith("  failing: -")
