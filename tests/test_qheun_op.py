"""Operator application, cleared-equation coefficients, residuals, grids."""

import numpy as np
import pytest

from qheun.accessory import exponent_at_origin, recurrence_coeffs
from qheun.errors import DomainError, PoleError
from qheun.forms import FAMILIES
from qheun.qheun_op import (
    QHeunParams,
    hahn_coefficients,
    hahn_combination,
    residual_report,
    singular_spirals,
    spiral_distance,
    stencil_weights,
)
from qheun.sampling import random_admissible_params, random_family2_params, random_generic_params


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
    def test_zero_function_scores_zero(self, rng, default_grid):
        p = random_generic_params(rng)
        rep = residual_report(p, 1.0, lambda x: 0.0, default_grid(p, count=5))
        assert rep.max_residual == 0
        assert all(r == 0 for r in rep.residuals)

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

    def test_deterministic(self, rng, default_grid):
        p = random_generic_params(rng)
        assert default_grid(p, seed=9) == default_grid(p, seed=9)
