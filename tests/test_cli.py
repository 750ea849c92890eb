"""Command-line interface: reports, exit codes, determinism."""

import cmath
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import qheun
from qheun import _bilateral, _finite_sum, accessory, forms
from qheun.accessory import (
    backward_error, exponent_at_origin, polynomial_at_root, polynomial_solution, require_root, root_certificate,
)
from qheun.cli import main
from qheun.errors import DomainError, NotARoot
from qheun.family_one import (
    family1_bilateral, family1_domain, family1_seed, family1_setup, family1_source_params, family1_unilateral,
)
from qheun.family_two import (
    Family2Setup, family2_bilateral, family2_seed, family2_setup, family2_source_params,
    g1_inhomogeneity, g2_inhomogeneity,
)
from qheun.qheun_op import QHeunParams
from qheun.qtransform import TransformSpec, boundary_limits, boundary_terms, kernel_value, transform
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


@dataclass
class Result:
    exit_code: int
    output: str  # stdout: the report, or the JSON error
    stderr: str  # argparse's usage message


class Runner:
    """Runs a command line through main in-process, as the ``qheun`` script does."""

    def invoke(self, main, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                main(argv, prog_name="qheun")
            code = 0
        except SystemExit as stop:
            code = stop.code
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture
def runner():
    return Runner()


def write_config(tmp_path, p, name="job.json", **extra):
    cfg = {k: getattr(p, k) for k in ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta", "q")}
    cfg["t1"] = [p.t1.real, p.t1.imag]
    cfg["t2"] = [p.t2.real, p.t2.imag]
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


# A family1 N = 9 draw whose accessory coefficients reach ~1e31.
HUGE_ROOTS_CONFIG = {
    "h1": 12.017799152028836, "h2": -10.4941940978305,
    "l1": 0.818981165881957, "l2": -0.49419409783049906,
    "alpha1": 1.170594886183617, "alpha2": 0.6468525452056657,
    "beta": 0.3155020644223961, "q": 0.37178951174942665,
    "t1": [0.25823249082445926, 0.8794904978229996],
    "t2": [0.698134189468116, -1.0065507909939253],
    "family": "family1", "N": 9, "grid_count": 2, "solution": "g3",
}


class TestAccessory:
    def test_family2_single_root(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 0)
        st = family2_setup(p, 0)
        path = write_config(tmp_path, p, family="family2", N=0)
        res = runner.invoke(main, ["accessory", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["schema"] == "qheun/1"
        roots = rep["accessory"]["roots"]
        assert len(roots) == 1
        assert complex(*roots[0]) == pytest.approx(st.roots[0])
        assert "d_coeffs" in rep["accessory"]
        assert rep["accessory"]["certificates"][0] < 1e-10

    def test_certificates_of_huge_roots(self, tmp_path, runner):
        # A family1 N = 9 draw whose accessory coefficients reach ~1e31:
        # its roots (moduli 247 .. 1.27e4) must match mpmath's, and eval
        # and verify must report on them.
        mp = pytest.importorskip("mpmath")
        path = tmp_path / "job.json"
        path.write_text(json.dumps(HUGE_ROOTS_CONFIG))
        res = runner.invoke(main, ["accessory", "--config", str(path)])
        assert res.exit_code == 0, res.output
        acc = json.loads(res.output)["accessory"]
        roots = [complex(*r) for r in acc["roots"]]
        with mp.workdps(80):
            exact = mp.polyroots([mp.mpc(*c) for c in reversed(acc["coeffs"])], maxsteps=500, extraprec=250)
        for w in map(complex, exact):
            assert min(abs(r - w) for r in roots) <= 1e-10 * abs(w)
        assert len(acc["certificates"]) == 10
        assert all(c <= 1e-10 for c in acc["certificates"])
        res = runner.invoke(main, ["eval", "--config", str(path)])
        assert [row["status"] for row in json.loads(res.output)["rows"]] == ["ok", "ok"]
        res = runner.invoke(main, ["verify", "--config", str(path)])
        assert len(json.loads(res.output)["results"]) == 10  # a report, whatever its verdict

    def test_non_root_among_huge_roots_is_rejected(self):
        # Between the roots 2822 and 4734 of the draw above, E = 5000 scores
        # 5.8e-31 on the max-norm certificate, but its backward error is 0.49.
        cfg = HUGE_ROOTS_CONFIG
        p = QHeunParams(
            **{k: cfg[k] for k in ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta", "q")},
            t1=complex(*cfg["t1"]), t2=complex(*cfg["t2"]),
        )
        st = family1_setup(p, 9)
        assert root_certificate(st.accessory.coeffs, 5000.0) < 1e-30
        assert backward_error(st.accessory.coeffs, 5000.0) > 0.4
        with pytest.raises(NotARoot):
            require_root(st.accessory, 5000.0)
        x = 0.5 * family1_domain(st, "g3")[1]
        with pytest.raises(NotARoot):
            family1_unilateral(st, "g3", 5000.0, x)
        for r in st.roots:
            assert backward_error(st.accessory.coeffs, r) <= 1e-15
            require_root(st.accessory, r)

    def test_generic_quadratic_roots(self, tmp_path, runner, rng):
        p = random_admissible_params(rng, 1)
        path = write_config(tmp_path, p, family="generic", N=1)
        res = runner.invoke(main, ["accessory", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        coeffs = [complex(*c) for c in rep["accessory"]["coeffs"]]
        c0, b, a = coeffs
        disc = (b / a) ** 2 - 4 * c0 / a
        explicit = {(-b / a + disc**0.5) / 2, (-b / a - disc**0.5) / 2}
        for pair in rep["accessory"]["roots"]:
            r = complex(*pair)
            assert min(abs(r - e) for e in explicit) < 1e-9

    def test_family2_beta_mismatch_exits_2(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=3)
        res = runner.invoke(main, ["accessory", "--config", path])
        assert res.exit_code == 2
        rep = json.loads(res.output)
        assert rep["error"]["reason"] == "precondition: beta != N+1"


class TestEval:
    def test_family1_rows_inside_domain(self, tmp_path, runner, rng):
        p = random_family1_params(rng, 1)
        path = write_config(tmp_path, p, family="family1", N=1, solution="g3")
        res = runner.invoke(main, ["eval", "--config", path, "--grid-count", "20"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert len(rep["rows"]) == 20
        assert all(row["status"] == "ok" for row in rep["rows"])
        assert all(row["value"] is not None for row in rep["rows"])

    def test_pole_point_is_tagged(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 0)
        pole = p.q ** (p.h1 - 0.5) * p.t1  # prefactor-denominator spiral of g3
        path = write_config(
            tmp_path, p, family="family2", N=0, solution="g3",
            points=[[pole.real, pole.imag]],
        )
        res = runner.invoke(main, ["eval", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["rows"][0]["status"] == "PoleError"
        assert rep["rows"][0]["value"] is None

    def test_generic_matches_library_bit_for_bit(self, tmp_path, runner, rng):
        p = random_admissible_params(rng, 2)
        path = write_config(tmp_path, p, family="generic", N=2, seed=5, grid_count=6)
        res = runner.invoke(main, ["eval", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        E0 = complex(*rep["E"])
        sol = polynomial_solution(p, E0, 2)
        for row in rep["rows"]:
            x = complex(*row["x"])
            want = sol(x)
            assert complex(*row["value"]) == want

    def test_draws_are_plain_python_numbers(self, rng):
        # The CLI reads floats back from JSON; a numpy scalar in a draw
        # would take a different arithmetic path from the same value.
        draws = [random_admissible_params(rng, 2), random_family1_params(rng, 2), random_family2_params(rng, 2)]
        for p in draws + [random_generic_params(rng)]:
            assert {type(getattr(p, k)) for k in ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta", "q")} == {float}
            assert {type(p.t1), type(p.t2)} == {complex}

    def test_zero_point_with_negative_exponent_is_a_domain_error(self, tmp_path, runner):
        rng = np.random.default_rng(7)
        random_admissible_params(rng, 0)
        p = random_admissible_params(rng, 1)
        assert exponent_at_origin(p) < 0
        path = write_config(tmp_path, p, family="generic", N=1, points=[[0, 0], [1, 0.5]])
        res = runner.invoke(main, ["eval", "--config", path])
        assert res.exit_code == 0, res.output
        assert [r["status"] for r in json.loads(res.output)["rows"]] == ["DomainError", "ok"]

    def test_csv_format(self, tmp_path, runner, rng):
        p = random_admissible_params(rng, 1)
        path = write_config(tmp_path, p, family="generic", N=1, format="csv", grid_count=4)
        res = runner.invoke(main, ["eval", "--config", path])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "x_re,x_im,value_re,value_im,residual,status"
        assert len(lines) == 5


class TestVerify:
    def test_family2_full_suite_passes(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=1, grid_count=5)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["all_pass"] is True
        forms = {r["form"] for r in rep["results"]}
        assert forms == {"g3", "g4", "g5", "g6-g7", "g7-g8", "g6", "g7", "g8"}
        assert all(r["max_residual"] < 1e-8 for r in rep["results"])

    def test_readme_sample_config_passes(self, tmp_path, runner):
        # The README's sample job, so the documented config cannot drift
        # from one that verifies.
        path = tmp_path / "job.json"
        path.write_text(json.dumps(readme_config()))
        res = runner.invoke(main, ["verify", "--config", str(path)])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["family"] == "family2" and len(rep["accessory"]["roots"]) == 3
        assert len(rep["results"]) == 24
        assert all(r["status"] == "pass" for r in rep["results"])

    def test_wrong_eigenvalue_fails(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 1)
        path = write_config(
            tmp_path, p, family="family2", N=1, grid_count=5, e_offset=0.1,
            solution="g3",
        )
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 1
        rep = json.loads(res.output)
        assert rep["all_pass"] is False
        assert all(r["max_residual"] > 1e-3 for r in rep["results"])

    def test_error_results_carry_message_and_point(self, tmp_path, runner):
        # The README job with alpha2 = -0.2 breaks lambda1 + alpha2 > 0,
        # which g3's series needs.
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**readme_config(), "alpha2": -0.2}))
        res = runner.invoke(main, ["verify", "--config", str(path), "--solution", "g3"])
        assert res.exit_code == 1
        results = json.loads(res.output)["results"]
        assert len(results) == 3
        for r in results:
            assert r["status"] == "error: ConvergenceError"
            assert r["error"]["message"] == "series argument needs lambda1 + alpha2 > 0"
            assert len(r["error"]["point"]) == 2

    @pytest.mark.parametrize(
        "family, draw, message",
        [
            ("family1", random_family1_params, "bilateral forms need lambda2 + alpha1 > 1 and lambda1 + alpha2 > 1"),
            ("family2", random_family2_params, "bilateral forms need lambda1 + alpha2 > 1"),
        ],
        ids=["family1", "family2"],
    )
    def test_bilateral_hypothesis_error_at_every_root(self, tmp_path, runner, family, draw, message):
        # Lowering alpha2 by 3 breaks lambda1 + alpha2 > 1 and keeps the
        # family's relation, so the setup succeeds and every root of g1
        # fails at the first grid point.
        p = draw(np.random.default_rng(3), 1)
        p = replace(p, alpha2=p.alpha2 - 3.0)
        xi = 0.8 * abs(p.t1)
        path = write_config(tmp_path, p, family=family, N=1, grid_count=3, xi=[xi, 0.0])
        res = runner.invoke(main, ["verify", "--config", path, "--solution", "g1"])
        assert res.exit_code == 1, res.output
        family_forms = forms.FAMILIES[family]
        first = family_forms.form("g1").grid(family_forms.setup(p, 1), complex(xi), 3, 0)[0]
        results = json.loads(res.output)["results"]
        assert [r["root_index"] for r in results] == [0, 1]
        for r in results:
            assert r["status"] == "error: PreconditionError"
            assert r["error"] == {"message": message, "point": [first.real, first.imag]}

    @pytest.mark.parametrize(
        "family, draw, order",
        [
            ("family1", random_family1_params, ["g1", "g2", "g3", "g4", "g5", "g6"]),
            (
                "family2",
                random_family2_params,
                ["g1", "g2", "g3", "g4", "g5", "g6-g7", "g7-g8", "g6", "g7", "g8"],
            ),
        ],
    )
    def test_every_form_in_report_order(self, tmp_path, runner, rng, family, draw, order):
        p = draw(rng, 1)
        path = write_config(
            tmp_path, p, family=family, N=1, grid_count=4, xi=[0.8 * abs(p.t1), 0.0]
        )
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 0, res.output
        results = json.loads(res.output)["results"]
        assert [(r["form"], r["root_index"]) for r in results] == [
            (form, i) for form in order for i in range(2)
        ]
        assert all(r["status"] == "pass" and "error" not in r for r in results)

    def test_one_family_setup_per_command(self, tmp_path, runner, rng, monkeypatch):
        # Forms look family functions up by name when they run, so a
        # patched module binding (as a tracer installs) sees every call.
        calls = []
        monkeypatch.setattr(forms, "family2_setup", lambda *a: calls.append(a) or family2_setup(*a))
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=1, grid_count=3, xi=[0.8 * abs(p.t1), 0.0])
        for command in ("accessory", "eval", "verify"):
            assert runner.invoke(main, [command, "--config", path]).exit_code == 0
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("N", None), ("h1", [1, 2]), ("points", 3), ("out", [1]),
            # Integer keys take neither a fraction, a bool nor a string.
            ("N", 2.7), ("N", True), ("N", "3"), ("seed", 0.5), ("grid_count", "4"), ("root_index", False),
            # A complex value is a number or an [re, im] pair, and the error names the key.
            ("t1", [1, 2, 3]), ("xi", [1]), ("points", [[0.5, 0, 1]]),
            # Text keys take only a string: an empty or false solution must not
            # run every form, nor a list or a number name an unknown one.
            ("solution", []), ("solution", 0), ("solution", False), ("solution", ["g3"]), ("solution", 5),
            ("family", 1), ("family", ["family1"]), ("format", 0), ("format", ["csv"]),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, runner, rng, key, value):
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, **{"family": "family2", "N": 1, "grid_count": 3, key: value})
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 2, res.output
        rep = json.loads(res.output)
        assert rep["schema"] == "qheun/1"
        assert rep["error"]["reason"].startswith(f"precondition: config key {key!r}")

    @pytest.mark.parametrize(
        "config, extra",
        [(5, []), (None, []), ("h1 h2", []), ([1, 2], ["--N", "2"])],
        ids=["number", "null", "string", "array"],
    )
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, runner, config, extra):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        res = runner.invoke(main, ["verify", "--config", str(path), *extra])
        assert res.exit_code == 2, res.output
        assert json.loads(res.output)["error"]["reason"] == "precondition: config must be a JSON object"

    def test_integral_float_key_is_an_integer(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=1.0, grid_count=3.0, solution="g3")
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["N"] == 1 and isinstance(rep["N"], int)
        assert len(rep["results"][0]["points"]) == 3

    def test_empty_grid_exits_2(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=1, grid_count=0)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 2

    def test_generic_polynomial_solutions(self, tmp_path, runner, rng):
        p = random_admissible_params(rng, 2)
        path = write_config(tmp_path, p, family="generic", N=2, grid_count=8)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert len(rep["results"]) == 3  # one per root
        assert all(r["status"] == "pass" for r in rep["results"])

    def test_generic_builds_its_solution_once_per_root(self, tmp_path, runner, rng, monkeypatch):
        builds = []
        monkeypatch.setattr(forms, "polynomial_at_root", lambda *a: builds.append(a) or polynomial_at_root(*a))
        p = random_admissible_params(rng, 6)
        path = write_config(tmp_path, p, family="generic", N=6, grid_count=20)
        rep = json.loads(runner.invoke(main, ["verify", "--config", path]).output)
        assert [len(r["points"]) for r in rep["results"]] == [20] * 7
        assert len(builds) == 7
        builds.clear()
        rep = json.loads(runner.invoke(main, ["eval", "--config", path]).output)
        assert [r["status"] for r in rep["rows"]] == ["ok"] * 20
        assert len(builds) == 1

    def test_generic_failed_build_reports_the_first_point(self, tmp_path, runner, rng):
        # Off the roots the build fails; it fails at each point it is asked
        # for, so every eval row and the first verify point carry the error.
        p = random_admissible_params(rng, 2)
        path = write_config(tmp_path, p, family="generic", N=2, grid_count=4, e_offset=0.1)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 1
        rep = json.loads(res.output)
        grid = forms.FAMILIES["generic"].form("poly").grid(forms.FAMILIES["generic"].setup(p, 2), None, 4, 0)
        for r in rep["results"]:
            assert r["status"] == "error: NotARoot"
            assert r["error"]["point"] == [grid[0].real, grid[0].imag]
        rep = json.loads(runner.invoke(main, ["eval", "--config", path]).output)
        assert [r["status"] for r in rep["rows"]] == ["NotARoot"] * 4

    @pytest.mark.parametrize("family, draw", [("family1", random_family1_params), ("family2", random_family2_params)])
    def test_bilateral_stencil_replays_the_point_order(self, tmp_path, runner, family, draw):
        # g1's stencil is evaluated in one batch; its report still reads
        # point by point: every root passes the first point and meets the
        # anchor's pole in the stencil of the second, which the error names.
        p = draw(np.random.default_rng(3), 2)
        r, xi = abs(p.t1), 0.8 * abs(p.t1)
        points = [1.1 * r * cmath.exp(0.7j), xi * p.q**2, 1.3 * r * cmath.exp(-0.5j)]
        path = write_config(
            tmp_path, p, family=family, N=2, xi=[xi, 0.0], points=[[x.real, x.imag] for x in map(complex, points)],
        )
        res = runner.invoke(main, ["verify", "--config", path, "--solution", "g1"])
        assert res.exit_code == 1, res.output
        results = json.loads(res.output)["results"]
        assert [r["root_index"] for r in results] == [0, 1, 2]
        for r in results:
            assert r["status"] == "error: PoleError"
            assert r["error"] == {"message": "denominator factor (1 - (1+0j)) vanishes", "point": [xi * p.q**2, 0.0]}
        res = runner.invoke(main, ["verify", "--config", path, "--solution", "g2"])
        assert res.exit_code == 0, res.output
        assert [r["status"] for r in json.loads(res.output)["results"]] == ["pass"] * 3

    def test_bilateral_forms_with_anchor(self, tmp_path, runner, rng):
        p = random_family2_params(rng, 0)
        path = write_config(
            tmp_path, p, family="family2", N=0, grid_count=4,
            xi=[0.77 * abs(p.t1), 0.0],
        )
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        forms = {r["form"] for r in rep["results"]}
        assert {"g1", "g2"} <= forms


class TestExtremeInputs:
    """Valid but extreme points, anchors and bases end in typed reports:
    a DomainError row or result, or exit 2 from the setup and grid phase."""

    @pytest.fixture
    def draws(self):
        rng = np.random.default_rng(7)
        drawn = [draw(rng, 2) for draw in (random_family1_params, random_family2_params, random_admissible_params)]
        return dict(zip(("family1", "family2", "generic"), drawn))

    @pytest.mark.parametrize(
        "family, solution, x", [("generic", "poly", 1e300), ("family1", "g1", 1e-300), ("family2", "g5", 1e-300)]
    )
    def test_eval_overflow_is_a_domain_error_row(self, tmp_path, runner, draws, family, solution, x):
        p = draws[family]
        path = write_config(
            tmp_path, p, family=family, N=2, solution=solution, xi=[0.8 * abs(p.t1), 0.0], points=[[x, 0.0]],
        )
        res = runner.invoke(main, ["eval", "--config", path])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["rows"] == [{"x": [x, 0.0], "value": None, "status": "DomainError"}]

    def test_form_names_the_point(self, draws):
        family = forms.FAMILIES["family2"]
        st = family.setup(draws["family2"], 2)
        g = family.form("g5").solution(st, st.roots[0], None)
        with pytest.raises(DomainError, match=r"ZeroDivisionError at x = \(1e-300"):
            g(1e-300)

    @pytest.mark.parametrize("xi", [1e300, 1e-300])
    def test_verify_extreme_anchor_fails_typed(self, tmp_path, runner, draws, xi):
        path = write_config(tmp_path, draws["family2"], family="family2", N=2, grid_count=3, xi=[xi, 0.0])
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 1, res.output
        results = json.loads(res.output)["results"]
        errors = [r for r in results if r["status"] == "error: DomainError"]
        assert errors and all("OverflowError at x = " in r["error"]["message"] for r in errors)
        assert all(r["status"] in ("pass", "fail") or r["status"].startswith("error: ") for r in results)

    @pytest.mark.parametrize("q", [1e-80, 1e-100])
    def test_verify_extreme_base_exits_2(self, tmp_path, runner, draws, q):
        path = write_config(tmp_path, draws["generic"], family="generic", N=2, grid_count=3, q=q)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 2, res.output
        assert json.loads(res.output)["error"]["reason"].startswith("DomainError: OverflowError")

    @pytest.mark.parametrize("family, q", [("generic", 1e-80), ("family1", 1e-100), ("family2", 1e-200)])
    def test_setup_overflow_is_a_domain_error(self, draws, family, q):
        with pytest.raises(DomainError, match=rf"^OverflowError in setup at q = {q!r}, N = 2: "):
            forms.FAMILIES[family].setup(replace(draws[family], q=q), 2)

    def run_zero_anchor(self, tmp_path, runner, command):
        # A zero anchor is refused as the config is read, before a grid or
        # a bilateral form would need it.
        rng = np.random.default_rng(3)
        for family, draw in (("family1", random_family1_params), ("family2", random_family2_params)):
            p = draw(rng, 1)
            for solution in (None, "g1"):
                path = write_config(tmp_path, p, family=family, N=1, grid_count=3, xi=[0, 0], solution=solution)
                res = runner.invoke(main, [command, "--config", path])
                assert res.exit_code == 2, res.output
                assert json.loads(res.output)["error"]["reason"] == "precondition: config key 'xi' must be nonzero"

    def test_eval_zero_anchor_exits_2(self, tmp_path, runner):
        self.run_zero_anchor(tmp_path, runner, "eval")

    def test_verify_zero_anchor_exits_2(self, tmp_path, runner):
        self.run_zero_anchor(tmp_path, runner, "verify")

    def run_bad_key(self, tmp_path, runner, key, value, **extra):
        # The family1 N = 1 draw of the zero-anchor checks, with one
        # malformed value, is refused as the config is read.
        p = random_family1_params(np.random.default_rng(3), 1)
        config = {"family": "family1", "N": 1, "grid_count": 3, "xi": [0.8 * abs(p.t1), 0.0], **extra, key: value}
        path = write_config(tmp_path, p, **config)
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 2, res.output
        assert json.loads(res.output)["error"]["reason"].startswith(f"precondition: config key {key!r} ")

    @pytest.mark.parametrize(
        "value, extra",
        [
            ([math.nan, 0.0], {}),
            ([math.nan, 0.0], {"points": [[0.5, 0.0]], "solution": "g1"}),
            ([math.inf, 0.0], {}),
        ],
    )
    def test_verify_non_finite_anchor_exits_2(self, tmp_path, runner, value, extra):
        self.run_bad_key(tmp_path, runner, "xi", value, **extra)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_verify_non_positive_tolerance_exits_2(self, tmp_path, runner, tol):
        self.run_bad_key(tmp_path, runner, "tol", tol)

    def test_verify_negative_seed_exits_2(self, tmp_path, runner):
        self.run_bad_key(tmp_path, runner, "seed", -1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("h1", math.nan),
            ("q", math.nan),
            ("t1", [math.inf, 0.0]),
            ("t2", [0.0, math.nan]),
            ("grid_rmin", math.nan),
            ("grid_rmax", math.inf),
            ("e_offset", math.nan),
            ("e_offset", -math.inf),
            ("points", [[0.5, 0.0], [math.nan, 0.0]]),
        ],
    )
    def test_verify_non_finite_number_exits_2(self, tmp_path, runner, key, value):
        self.run_bad_key(tmp_path, runner, key, value)

    @pytest.mark.parametrize("solution", ["g3", "g5", "g6"])
    def test_verify_non_finite_series_parameter_is_a_domain_error(self, tmp_path, runner, solution):
        # At x = 1e308 (1 + i) the series parameters of the family2 finite
        # sums are not finite; every root reports a DomainError at that point.
        x = [1e308, 1e308]
        p = random_family2_params(np.random.default_rng(3), 1)
        path = write_config(
            tmp_path, p, family="family2", N=1, solution=solution, xi=[0.8 * abs(p.t1), 0.0], points=[x],
        )
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 1, res.output
        results = json.loads(res.output)["results"]
        assert [r["status"] for r in results] == ["error: DomainError"] * 2
        for r in results:
            assert re.fullmatch(r"series parameter .* is not finite", r["error"]["message"])
            assert r["error"]["point"] == x

    def test_verify_nan_residual_fails(self, tmp_path, runner):
        # g2's defect is nan at x = 1e-30 on this draw (its thetas overflow
        # to inf / inf); a NaN residual meets no tolerance.
        p = random_family2_params(np.random.default_rng(11), 1)
        path = write_config(
            tmp_path, p, family="family2", N=1, solution="g2", xi=[0.8 * abs(p.t1), 0.0], points=[[1e-30, 0.0]],
        )
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 1, res.output
        results = json.loads(res.output)["results"]
        assert [r["status"] for r in results] == ["fail", "fail"]
        assert all(r["max_residual"] != r["max_residual"] for r in results)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s1, s2, xi1, xi2: g2_inhomogeneity(s2, 0, 1.0), r"^ZeroDivisionError at x = \(1\+0j\): "),
            (lambda s1, s2, xi1, xi2: g1_inhomogeneity(s2, 0), r"^ZeroDivisionError at x = 0j: "),
            (lambda s1, s2, xi1, xi2: g2_inhomogeneity(s2, 1e-300, 1.0), r"^OverflowError at x = \(1\+0j\): "),
            (
                lambda s1, s2, xi1, xi2: family1_bilateral(s1, "g2", s1.roots[0], xi1, 1e300),
                r"^OverflowError at x = \(1e\+300\+0j\): ",
            ),
            (
                lambda s1, s2, xi1, xi2: family2_bilateral(s2, "g2", s2.roots[0], xi2, 1e300),
                r"^OverflowError at x = \(1e\+300\+0j\): ",
            ),
            *(
                (
                    lambda s1, s2, xi1, xi2, f=family, k=kernel, x=x: transform(
                        *jackson((s1, s2)[f], k, (xi1, xi2)[f]), (s1, s2)[f].roots[0], x
                    ),
                    "^" + re.escape(f"OverflowError at x = {complex(x)!r}: "),
                )
                for family, kernel, x in [
                    (0, "P1", 1e-300), (0, "P2", 1e-300), (1, "P1", 1e-300), (1, "P2", 1e-300), (1, "P2", 1e150),
                    (1, "P2", 1e300),
                ]
            ),
            (
                lambda s1, s2, xi1, xi2: boundary_limits(*jackson(s1, "P1", 1e300)),
                r"^OverflowError at xi = \(1e\+300\+0j\): ",
            ),
            (
                lambda s1, s2, xi1, xi2: boundary_limits(*jackson(s1, "P2", 1e-300)),
                r"^OverflowError at xi = \(1e-300\+0j\): ",
            ),
            (
                lambda s1, s2, xi1, xi2: boundary_terms(jackson(s1, "P1", xi1)[0], 1, 1, 1e-300),
                r"^OverflowError at x = \(1e-300\+0j\): ",
            ),
            (
                lambda s1, s2, xi1, xi2: kernel_value(jackson(s2, "P2", xi2)[0], 1e300, 1.0),
                r"^OverflowError at x = \(1e\+300\+0j\), s = \(1\+0j\): ",
            ),
        ],
        ids=[
            "g2-zero-anchor", "g1-zero-point", "g2-tiny-anchor", "family1-g2-huge-point", "family2-g2-huge-point",
            "family1-P1-transform-tiny-point", "family1-P2-transform-tiny-point", "family2-P1-transform-tiny-point",
            "family2-P2-transform-tiny-point", "family2-P2-transform-large-point", "family2-P2-transform-huge-point",
            "family1-P1-limits-huge-anchor", "family1-P2-limits-tiny-anchor", "family1-P1-boundary-tiny-point",
            "family2-P2-kernel-huge-point",
        ],
    )
    def test_library_overflow_is_a_domain_error(self, call, message):
        rng = np.random.default_rng(11)
        p1, p2 = random_family1_params(rng, 1), random_family2_params(rng, 1)
        s1, s2 = family1_setup(p1, 1), family2_setup(p2, 1)
        with pytest.raises(DomainError, match=message):
            call(s1, s2, 0.8 * abs(p1.t1), 0.8 * abs(p2.t1))

    def test_grid_out_of_float_range_is_typed(self, draws):
        # At q = 1e-40 the g3 band and spirals span 1e-212 .. 1e116, and g5's
        # grid steps a spiral past the float range.
        family = forms.FAMILIES["family1"]
        st = family.setup(replace(draws["family1"], q=1e-40), 2)
        assert len(family.form("g3").grid(st, None, 3, seed=0)) == 3
        with pytest.raises(DomainError, match=r"^OverflowError in the g5 grid at q = 1e-40: "):
            family.form("g5").grid(st, None, 3, seed=0)


def jackson(st, kernel, xi):
    """(spec, h): the kernel transform of st's source system anchored at
    xi, and the seed h that kernel takes, at st's first root."""
    source_params, seed = (family2_source_params, family2_seed) if isinstance(st, Family2Setup) else (
        family1_source_params, family1_seed
    )
    spec = TransformSpec(source=source_params(st), mu0=0.0, xi=xi, kernel=kernel, alpha1=st.params.alpha1)
    return spec, seed(st, {"P1": "h1", "P2": "h2"}[kernel], st.roots[0])


class TestSharedWork:
    """verify evaluates each form's root-independent pieces once per
    stencil point for all N + 1 roots, not once per root, and its
    point-independent pieces once per verify."""

    N = 4
    POINTS = 2

    def run_verify(self, tmp_path, runner, family, draw, solution):
        p = draw(np.random.default_rng(4), self.N)
        path = write_config(
            tmp_path, p, family=family, N=self.N, grid_count=self.POINTS,
            solution=solution, xi=[0.8 * abs(p.t1), 0.0],
        )
        rep = json.loads(runner.invoke(main, ["verify", "--config", path]).output)
        assert [r["status"] for r in rep["results"]] == ["pass"] * (self.N + 1)

    def counting(self, monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
        return calls

    def test_family2_g3_one_series_chain_per_stencil_point(self, tmp_path, runner, monkeypatch):
        # The N + 1 series of a point differ only in z_k.
        chains = self.counting(monkeypatch, _finite_sum, "SeriesChain")
        self.run_verify(tmp_path, runner, "family2", random_family2_params, "g3")
        assert len(chains) == 3 * self.POINTS  # 3 * POINTS * (N + 1) with one series per term

    def test_family1_g3_products_once_per_term(self, tmp_path, runner, monkeypatch):
        # R_k and the series chain of each term do not depend on x.
        products = self.counting(monkeypatch, _finite_sum, "q_pochhammer_ratio")
        chains = self.counting(monkeypatch, _finite_sum, "SeriesChain")
        self.run_verify(tmp_path, runner, "family1", random_family1_params, "g3")
        assert len(products) == self.N + 1  # 3 * POINTS * (N + 1) when formed per point
        assert len(chains) == self.N + 1

    def test_family1_g1_one_walk_per_stencil_point(self, tmp_path, runner, monkeypatch):
        walks = self.counting(monkeypatch, _bilateral, "SpiralTerms")
        self.run_verify(tmp_path, runner, "family1", random_family1_params, "g1")
        assert len(walks) == 3 * self.POINTS  # each walks both sides from its anchor

    @pytest.mark.parametrize("family, draw", [("family1", random_family1_params), ("family2", random_family2_params)])
    def test_g1_forms_each_weighted_sum_once_per_index(self, tmp_path, runner, monkeypatch, family, draw):
        # A root's sum_k w_k r_k**n is the same at every stencil point: the
        # walks of all 3 * POINTS points share one PowerWalk, with one memo
        # per root, and each of its entries is formed once.
        products = self.counting(monkeypatch, _bilateral, "mul")
        calls = self.counting(monkeypatch, _bilateral, "weighted_bilateral")
        self.run_verify(tmp_path, runner, family, draw, "g1")
        assert len(calls) == 3 * self.POINTS  # one per point, for all roots
        (walk,) = {args[2] for args in calls}
        assert len(walk.memos) == self.N + 1
        assert len(products) == (self.N + 1) * sum(len(side) for memo in walk.memos for side in memo)

    def counting_row_solves(self, monkeypatch) -> tuple[list, list]:
        """The calls of np.linalg.eig and of accessory.accessory_rows."""
        return self.counting(monkeypatch, np.linalg, "eig"), self.counting(monkeypatch, accessory, "accessory_rows")

    @pytest.mark.parametrize("family, draw", [("family1", random_family1_params), ("family2", random_family2_params)])
    def test_accessory_forms_no_rows(self, tmp_path, runner, monkeypatch, family, draw):
        # The report reads the polynomial and its roots, never the rows.
        eigs, rows = self.counting_row_solves(monkeypatch)
        path = write_config(tmp_path, draw(np.random.default_rng(4), self.N), family=family, N=self.N)
        res = runner.invoke(main, ["accessory", "--config", path])
        assert res.exit_code == 0
        assert len(json.loads(res.output)["accessory"]["roots"]) == self.N + 1
        assert eigs == [] and rows == []

    @pytest.mark.parametrize("family, draw", [("family1", random_family1_params), ("family2", random_family2_params)])
    def test_verify_forms_the_rows_once_per_setup(self, tmp_path, runner, monkeypatch, family, draw):
        # Every root reads its row from the one solve of the setup.
        eigs, rows = self.counting_row_solves(monkeypatch)
        self.run_verify(tmp_path, runner, family, draw, "g3")
        assert len(eigs) == len(rows) == 1


class TestDeterminism:
    def test_identical_outputs(self, tmp_path, runner, rng):
        p = random_family1_params(rng, 1)
        path = write_config(tmp_path, p, family="family1", N=1, seed=11, grid_count=7)
        a = runner.invoke(main, ["eval", "--config", path, "--solution", "g5"])
        b = runner.invoke(main, ["eval", "--config", path, "--solution", "g5"])
        assert a.output == b.output

    def test_flag_overrides_config(self, tmp_path, runner, rng):
        p = random_family1_params(rng, 1)
        path = write_config(tmp_path, p, family="family1", N=1, grid_count=3)
        res = runner.invoke(main, ["eval", "--config", path, "--solution", "g5", "--grid-count", "9"])
        rep = json.loads(res.output)
        assert len(rep["rows"]) == 9

    def test_out_file(self, tmp_path, runner, rng):
        p = random_admissible_params(rng, 0)
        out = tmp_path / "report.json"
        path = write_config(tmp_path, p, family="generic", N=0, grid_count=3)
        res = runner.invoke(main, ["eval", "--config", path, "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads(out.read_text())
        assert rep["command"] == "eval"


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, code, reason",
        [
            ([], 2, None),
            (["verify", "--config", "job.json", "--bogus", "1"], 2, None),
            (["verify", "--config", "job.json", "--solu", "g3"], 2, None),
            (["verify", "--config", "job.json", "--N", "1.5"], 2, None),
            (["--help"], 0, None),
            # Flag values meet load_config's rules, as the same values in a config file do.
            (
                ["verify", "--config", "missing.json"], 2,
                "FileNotFoundError: [Errno 2] No such file or directory: 'missing.json'",
            ),
            (["verify", "--config", "job.json", "--family", "bogus"], 2, {"family": "bogus"}),
            (["verify", "--config", "job.json", "--format", "xml"], 2, {"format": "xml"}),
        ],
        ids=[
            "no-command", "unknown-flag", "abbreviated-flag", "fractional-N", "help",
            "missing-config", "family", "format",
        ],
    )
    def test_parse(self, tmp_path, runner, rng, monkeypatch, argv, code, reason):
        monkeypatch.chdir(tmp_path)
        p = random_family2_params(rng, 1)
        write_config(tmp_path, p, family="family2", N=1, grid_count=3)
        res = runner.invoke(main, argv)
        assert res.exit_code == code, res.output + res.stderr
        if argv == ["--help"]:
            assert all(name in res.output for name in ("accessory", "eval", "verify", "selftest"))
        elif reason is None:  # a usage message, before any config is read
            assert res.output == "" and res.stderr.lower().startswith("usage: qheun")
        else:
            if isinstance(reason, dict):
                in_file = write_config(tmp_path, p, "file.json", **reason)
                res_file = runner.invoke(main, ["verify", "--config", in_file])
                assert res_file.exit_code == 2
                reason = json.loads(res_file.output)["error"]["reason"]
            assert json.loads(res.output) == {"schema": "qheun/1", "error": {"reason": reason}}

    @pytest.mark.parametrize("command", ["accessory", "eval", "verify"])
    @pytest.mark.parametrize("out, error", [(".", "IsADirectoryError"), ("missing/report.json", "FileNotFoundError")])
    def test_unwritable_out_exits_2(self, tmp_path, runner, rng, monkeypatch, command, out, error):
        monkeypatch.chdir(tmp_path)
        p = random_family2_params(rng, 1)
        path = write_config(tmp_path, p, family="family2", N=1, grid_count=3)
        res = runner.invoke(main, [command, "--config", path, "--out", out])
        assert res.exit_code == 2, res.output
        rep = json.loads(res.output)
        assert rep["schema"] == "qheun/1"
        assert rep["error"]["reason"].startswith(f"{error}: ")

    def test_import_loads_only_numpy_and_not_the_acceptance_suite(self):
        # Packages outside the standard library are numpy and qheun; the
        # acceptance suite is loaded by selftest alone.
        src = str(Path(qheun.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import sys; before = set(sys.modules); import qheun.cli\n"
            "new = set(sys.modules) - before\n"
            "print(sorted({m.partition('.')[0] for m in new} - set(sys.stdlib_module_names)), "
            "'qheun.acceptance' in new)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['numpy', 'qheun'] False"
