"""Operator application, cleared-equation coefficients, residuals, grids."""

import cmath
import itertools
import math

import numpy as np
import pytest

from qheun.accessory import exponent_at_origin, recurrence_coeffs
from qheun.errors import DomainError, PoleError
from qheun.forms import FAMILIES
from qheun.qheun_op import (
    MAX_PHASE,
    QHeunParams,
    _log_radii,
    _uniform_draws,
    grid_points,
    hahn_coefficients,
    hahn_combination,
    residual_report,
    singular_spirals,
    spiral_distance,
    stencil_weights,
)
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


def apply_qheun(p, g, x):
    """Op g(x) from the operator's stencil weights."""
    w_down, w_up, w_mid = stencil_weights(p, x)
    x = complex(x)
    return w_down * g(x / p.q) + w_up * g(p.q * x) + w_mid * g(x)


def random_cubic(rng):
    cs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return lambda x: ((cs[3] * x + cs[2]) * x + cs[1]) * x + cs[0]


class TestParams:
    def test_rejects_zero_scale_point(self):
        with pytest.raises(DomainError):
            QHeunParams(0, 0, 0, 0, 0, 0, 1, t1=0, t2=1, q=0.5)

    def test_rejects_bad_base(self):
        with pytest.raises(DomainError):
            QHeunParams(0, 0, 0, 0, 0, 0, 1, t1=1, t2=1, q=1.5)


class TestApply:
    def test_zero_function(self, rng):
        p = random_generic_params(rng)
        assert apply_qheun(p, lambda x: 0.0, 0.6 + 0.3j) == 0

    def test_rejects_origin(self, rng):
        p = random_generic_params(rng)
        with pytest.raises(DomainError):
            apply_qheun(p, lambda x: x, 0.0)

    def test_linearity(self, rng):
        p = random_generic_params(rng)
        f, g = random_cubic(rng), random_cubic(rng)
        a, b = 1.3 - 0.2j, 0.4 + 2.1j
        for x in (0.7 + 0.1j, 1.4 - 0.9j):
            lhs = apply_qheun(p, lambda v: a * f(v) + b * g(v), x)
            rhs = a * apply_qheun(p, f, x) + b * apply_qheun(p, g, x)
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_monomial_eigenfunction(self, rng):
        # With -lambda1 - alpha1 = 0 the pure power x^lambda1 is an
        # eigenfunction for the matching first recurrence value.
        p = random_admissible_params(rng, 0, which_alpha=1)
        lam = exponent_at_origin(p)
        E = -recurrence_coeffs(p, 1).y
        g = lambda x: x**lam
        for x in (0.8 + 0.4j, 1.7 - 0.2j, 0.35 + 0.0j):
            got = apply_qheun(p, g, x)
            assert abs(got - E * g(x)) < 1e-12 * abs(E * g(x))


class TestHahnForm:
    def test_leading_coefficients(self, rng):
        for _ in range(5):
            p = random_generic_params(rng)
            h = hahn_coefficients(p, 0.3 + 0.1j)
            assert h.a2 == 1
            assert h.c2 == pytest.approx(p.q ** (p.alpha1 + p.alpha2))
            assert h.a0 == pytest.approx(p.q ** (p.h1 + p.h2 + 1) * p.t1 * p.t2)

    def test_matches_operator_on_random_cubics(self, rng, default_grid):
        p = random_generic_params(rng)
        E = 0.8 - 0.6j
        h = hahn_coefficients(p, E)
        g = random_cubic(rng)
        for x in default_grid(p, count=20, seed=1):
            lhs = x * (apply_qheun(p, g, x) - E * g(x))
            rhs = hahn_combination(h, g, x, p.q)
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1e-10)


class TestResiduals:
    def test_zero_function_checks_nothing(self, rng, default_grid):
        # Every term of the equation is 0, so the check would pass any g.
        p = random_generic_params(rng)
        pts = default_grid(p, count=5)
        with pytest.raises(DomainError, match="every term of the equation is zero") as err:
            residual_report(p, 1.0, lambda x: 0.0, pts)
        assert err.value.point == pts[0]

    def test_values_that_underflow_to_zero_are_a_domain_error(self):
        # Far outside their band g3 and g4 underflow to 0 at 1e160, and g6
        # at 1e300, at every stencil point; the in-band point 1.0 checks.
        st = FAMILIES["family2"].setup(random_family2_params(np.random.default_rng([1, 1, 3]), 2), 2)
        for name, x in (("g3", 1e160), ("g4", 1e160), ("g6", 1e300)):
            reports = FAMILIES["family2"].form(name).root_residuals(st, list(st.roots), None, [1.0, x])
            assert len(reports) == 3
            for rep in reports:
                assert isinstance(rep, DomainError) and rep.point == x, (name, rep)
                assert str(rep) == "every term of the equation is zero, so the residual checks nothing"

    def test_non_solution_scores_large(self, rng, default_grid):
        p = random_admissible_params(rng, 0, which_alpha=1)
        lam = exponent_at_origin(p)
        E = -recurrence_coeffs(p, 1).y
        rep = residual_report(p, E, lambda x: x ** (lam + 1.0), default_grid(p))
        assert rep.max_residual > 1e-3

    def test_max_is_max(self, rng, default_grid):
        p = random_generic_params(rng)
        g = random_cubic(rng)
        rep = residual_report(p, 0.5, g, default_grid(p, count=7))
        assert rep.max_residual == max(rep.residuals)

    def test_each_stencil_point_evaluated_once(self, rng, default_grid):
        p = random_generic_params(rng)
        g = random_cubic(rng)
        pts = default_grid(p, count=5)
        calls = []
        residual_report(p, 0.5, lambda x: calls.append(x) or g(x), pts)
        # g(x/q), g(qx), g(x) per point, in that order; g(x) also gives E g(x).
        assert calls == [v for x in map(complex, pts) for v in (x / p.q, p.q * x, x)]

    def test_error_at_the_lower_stencil_point_reports_its_grid_point(self, rng, default_grid):
        p = random_generic_params(rng)
        pts = default_grid(p, count=5)
        bad = complex(pts[2]) / p.q

        def g(x):
            if x == bad:
                raise PoleError("g has a pole here")
            return x

        with pytest.raises(PoleError) as info:
            residual_report(p, 0.5, g, pts)
        assert info.value.point == pts[2]


    def test_no_points_is_a_domain_error(self):
        # A check at no point would pass E0, which is no root.
        st = FAMILIES["family2"].setup(random_family2_params(np.random.default_rng(3), 2), 2)
        E0 = st.roots[0] + 0.5
        with pytest.raises(DomainError, match="at least one point"):
            FAMILIES["family2"].form("g3").root_residuals(st, [E0], None, [])
        with pytest.raises(DomainError, match="at least one point"):
            residual_report(st.params, E0, lambda x: x, [])

    @pytest.mark.parametrize(
        "family, draw, seed, name",
        [("family1", random_family1_params, [1, 0, 3], "g6"), ("family2", random_family2_params, [1, 1, 3], "g5")],
        ids=["family1-g6", "family2-g5"],
    )
    def test_points_beyond_the_square_root_of_the_float_range(self, family, draw, seed, name):
        # |x|**2 and the finite sum's base**-N leave the float range there.
        st = FAMILIES[family].setup(draw(np.random.default_rng(seed), 2), 2)
        pts = [1e160 + 0j, 1e300 + 0j, 1e160 * cmath.exp(0.7j)]
        assert all(cmath.isfinite(w) for x in pts for w in stencil_weights(st.params, x))
        for rep in FAMILIES[family].form(name).root_residuals(st, list(st.roots), None, pts):
            assert math.isfinite(rep.max_residual) and rep.max_residual < 1e-8


class TestGrid:
    def test_count_and_radii(self, rng, default_grid):
        p = random_generic_params(rng)
        pts = default_grid(p, count=20, seed=3)
        m = min(abs(p.t1), abs(p.t2))
        assert len(pts) == 20
        assert all(0.1 * m * 0.999 <= abs(x) <= 10 * m * 1.001 for x in pts)

    def test_avoids_singular_spirals(self, rng, default_grid):
        for seed in range(10):
            p = random_generic_params(rng)
            pts = default_grid(p, count=20, seed=seed)
            bases = singular_spirals(p)
            assert all(spiral_distance(x, bases, p.q) > 1e-6 for x in pts)

    def test_a_zero_base_is_no_spiral(self):
        # family1 g1/g2 and every family2 form add xi to their spirals
        # whenever it is given, so an anchor xi = 0 reached spiral_distance.
        assert spiral_distance(1.1 + 0.2j, [0j, 2.0], 0.5) == spiral_distance(1.1 + 0.2j, [2.0], 0.5)
        rng = np.random.default_rng(3)
        for family, draw in (("family2", random_family2_params), ("family1", random_family1_params)):
            st = FAMILIES[family].setup(draw(rng, 1), 1)
            for form in FAMILIES[family].forms:
                if form.needs_xi:
                    pts = form.grid(st, 0j, 3, seed=1)
                    for rep in form.root_residuals(st, list(st.roots), 0j, pts):
                        assert isinstance(rep, DomainError) and str(rep) == "xi and x must be nonzero"
                elif family == "family2":
                    assert form.grid(st, 0j, 3, seed=1) == form.grid(st, None, 3, seed=1), form.name

    def test_deterministic(self, rng, default_grid):
        p = random_generic_params(rng)
        assert default_grid(p, seed=9) == default_grid(p, seed=9)

    @pytest.mark.parametrize("seed", [0, 1, 9, 2**31 - 1, 2**32, 2**64 + 5, 10**30])
    def test_phases_are_numpys_draws_bit_for_bit(self, seed):
        # Seeds from 2**32 up enter numpy's SeedSequence as several 32-bit words.
        rng = np.random.default_rng(seed)
        want = [rng.uniform(-MAX_PHASE, MAX_PHASE) for _ in range(200)]
        assert list(itertools.islice(_uniform_draws(seed, -MAX_PHASE, MAX_PHASE), 200)) == want

    def test_radii_run_from_rmin_to_rmax(self):
        for rmin, rmax, count in ((0.1, 10.0, 5), (1e-3, 7.0, 20), (0.3, 0.3, 4), (0.5, 2.0, 2)):
            radii = _log_radii(rmin, rmax, count)
            assert radii[0] == rmin and radii[-1] == rmax and len(radii) == count
            want = np.geomspace(rmin, rmax, count)
            assert all(abs(r - w) <= 2**-52 * w for r, w in zip(radii, want))
        assert _log_radii(0.5, 2.0, 1) == [0.5]
        assert [abs(x) for x in grid_points(0.5, [], 1, 0.5, 2.0)] == pytest.approx([0.5], rel=1e-15)

    def test_a_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError, match="non-negative"):
            grid_points(0.5, [], 3, 0.5, 2.0, seed=-1)
