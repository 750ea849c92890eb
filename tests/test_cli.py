"""Command-line interface: reports, exit codes, determinism."""

import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qheun import _bilateral, _finite_sum, forms
from qheun.accessory import (
    backward_error, exponent_at_origin, polynomial_at_root, polynomial_solution, require_root, root_certificate,
)
from qheun.cli import main
from qheun.errors import DomainError, NotARoot
from qheun.family_one import family1_domain, family1_setup, family1_unilateral
from qheun.family_two import family2_setup
from qheun.qheun_op import QHeunParams
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


@pytest.fixture
def runner():
    return CliRunner()


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
        grid = forms.FAMILIES["generic"].form("poly").grid(forms.generic_setup(p, 2), None, 4, 0)
        for r in rep["results"]:
            assert r["status"] == "error: NotARoot"
            assert r["error"]["point"] == [grid[0].real, grid[0].imag]
        rep = json.loads(runner.invoke(main, ["eval", "--config", path]).output)
        assert [r["status"] for r in rep["rows"]] == ["NotARoot"] * 4

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

    def test_grid_out_of_float_range_is_typed(self, draws):
        # At q = 1e-40 the g3 band and spirals span 1e-212 .. 1e116, and g5's
        # grid steps a spiral past the float range.
        family = forms.FAMILIES["family1"]
        st = family.setup(replace(draws["family1"], q=1e-40), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert len(family.form("g3").grid(st, None, 3, seed=0)) == 3
            with pytest.raises(DomainError, match=r"^OverflowError in the g5 grid at q = 1e-40: "):
                family.form("g5").grid(st, None, 3, seed=0)


class TestSharedWork:
    """verify evaluates each form's root-independent pieces once per
    stencil point for all N + 1 roots, not once per root."""

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

    def test_family2_g3_series_once_per_term_and_point(self, tmp_path, runner, monkeypatch):
        calls = self.counting(monkeypatch, _finite_sum, "phi_series")
        self.run_verify(tmp_path, runner, "family2", random_family2_params, "g3")
        assert len(calls) == 3 * self.POINTS * (self.N + 1)  # 150 with one pass per root

    def test_family1_g3_products_once_per_term_and_point(self, tmp_path, runner, monkeypatch):
        calls = self.counting(monkeypatch, _finite_sum, "q_pochhammer_ratio")
        self.run_verify(tmp_path, runner, "family1", random_family1_params, "g3")
        assert len(calls) == 3 * self.POINTS * (self.N + 1)

    def test_family1_g1_one_walk_per_stencil_point(self, tmp_path, runner, monkeypatch):
        walks = self.counting(monkeypatch, _bilateral, "SpiralTerms")
        self.run_verify(tmp_path, runner, "family1", random_family1_params, "g1")
        assert len(walks) == 3 * self.POINTS  # each walks both sides from its anchor


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
