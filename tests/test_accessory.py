"""Recurrence data, accessory polynomials, roots, local solutions."""

import numpy as np
import pytest

from qheun.accessory import (
    Poly,
    accessory_poly,
    accessory_poly_expanded,
    apparent_singularity_check,
    coefficient_polys,
    exponent_at_origin,
    poly_roots,
    polynomial_solution,
    power_series_solution,
    recurrence_coeffs,
    series_coefficients,
)
from qheun.errors import DegenerateRecurrence, NoConvergence, NotARoot, PreconditionError
from qheun.qheun_op import (
    QHeunParams,
    default_grid,
    hahn_coefficients,
    residual_report,
)
from qheun.sampling import random_admissible_params, random_family2_params, random_generic_params


def params(**kw) -> QHeunParams:
    base = dict(h1=0.0, h2=0.0, l1=0.0, l2=0.0, alpha1=0.0, alpha2=0.0, beta=2.0, t1=1.0, t2=1.0, q=0.5)
    base.update(kw)
    return QHeunParams(**base)


def oracle_triple(p: QHeunParams, n: int):
    """Recurrence data re-derived from the cleared-equation coefficients.

    Substituting x^(lam+k) into the quadratic-coefficient form and
    collecting the x^(lam+n) coefficient gives a three-term relation
    whose weights only involve the nine Hahn coefficients.
    """
    h = hahn_coefficients(p, 0.0)
    lam = exponent_at_origin(p)
    q = p.q
    x_n = h.a0 * q ** (-(lam + n)) + h.c0 * q ** (lam + n) - h.b0
    y_n = -h.a1 * q ** (-(lam + n - 1)) - h.c1 * q ** (lam + n - 1)
    z_n = h.a2 * q ** (-(lam + n - 2)) + h.c2 * q ** (lam + n - 2) - h.b2
    return x_n, y_n, z_n


class TestExponent:
    def test_flat_exponents(self):
        assert exponent_at_origin(params(beta=2.0)) == 0

    def test_direct_arithmetic(self):
        p = params(h1=1, h2=1, l1=0, l2=0, alpha1=0, alpha2=0, beta=1)
        assert exponent_at_origin(p) == pytest.approx(1.5)

    def test_shift_invariance(self, rng):
        p = random_generic_params(rng)
        s = 0.731
        shifted = QHeunParams(
            h1=p.h1 + s, h2=p.h2 + s, l1=p.l1 + s, l2=p.l2 + s,
            alpha1=p.alpha1, alpha2=p.alpha2, beta=p.beta, t1=p.t1, t2=p.t2, q=p.q,
        )
        assert exponent_at_origin(shifted) == pytest.approx(exponent_at_origin(p))


class TestRecurrence:
    def test_leading_factor_vanishes_at_integer_beta(self):
        rc = recurrence_coeffs(params(beta=1.0), 1)
        assert abs(rc.x) < 1e-15

    def test_trailing_factor_vanishes(self, rng):
        # z_2 has the factor 1 - q^(lam + alpha1); force lam + alpha1 = 0.
        p = random_admissible_params(rng, 0, which_alpha=1)
        rc = recurrence_coeffs(p, 2)
        assert abs(rc.z) < 1e-9

    def test_matches_hahn_substitution_oracle(self, rng):
        for _ in range(10):
            p = random_generic_params(rng)
            for n in range(1, 6):
                rc = recurrence_coeffs(p, n)
                x_n, y_n, z_n = oracle_triple(p, n)
                assert abs(rc.x - x_n) < 1e-12 * max(abs(x_n), 1e-10)
                assert abs(rc.y - y_n) < 1e-12 * max(abs(y_n), 1e-10)
                assert abs(rc.z - z_n) < 1e-12 * max(abs(z_n), 1e-10)


class TestCoefficientPolys:
    def test_first_poly(self, rng):
        p = random_generic_params(rng)
        c = coefficient_polys(p, 1)
        r1 = recurrence_coeffs(p, 1)
        assert c[1].coeffs[1] == pytest.approx(1 / r1.x)
        assert c[1].coeffs[0] == pytest.approx(r1.y / r1.x)

    def test_second_poly(self, rng):
        p = random_generic_params(rng)
        c2 = coefficient_polys(p, 2)[2]
        r1, r2 = recurrence_coeffs(p, 1), recurrence_coeffs(p, 2)
        for E in (0.3 + 0.1j, -1.2 + 0.8j):
            want = (E + r1.y) * (E + r2.y) / (r1.x * r2.x) - r2.z / r2.x
            assert c2(E) == pytest.approx(want)

    def test_degrees(self, rng):
        p = random_generic_params(rng)
        polys = coefficient_polys(p, 5)
        assert [c.degree for c in polys] == list(range(6))

    def test_degenerate_recurrence_detected(self):
        with pytest.raises(DegenerateRecurrence):
            coefficient_polys(params(beta=1.0), 2)


class TestAccessoryPoly:
    def test_linear_case(self, rng):
        p = random_generic_params(rng)
        c = accessory_poly(p, 0)
        r1 = recurrence_coeffs(p, 1)
        assert c.degree == 1
        assert c.coeffs[0] == pytest.approx(r1.y)
        assert c.coeffs[1] == pytest.approx(1.0)

    def test_quadratic_case(self, rng):
        p = random_generic_params(rng)
        c = accessory_poly(p, 1)
        r1, r2 = recurrence_coeffs(p, 1), recurrence_coeffs(p, 2)
        for E in (0.5, -0.4 + 0.9j):
            want = (E + r1.y) * (E + r2.y) - r1.x * r2.z
            assert c(E) == pytest.approx(want)

    def test_quartic_display(self, rng):
        # Four linear factors minus three single crossings plus the
        # double-crossing product.
        p = random_generic_params(rng)
        c = accessory_poly(p, 3)
        r = {n: recurrence_coeffs(p, n) for n in range(1, 5)}
        for E in (0.7 - 0.3j, -1.1 + 0.2j):
            want = (
                (E + r[1].y) * (E + r[2].y) * (E + r[3].y) * (E + r[4].y)
                - r[1].x * r[2].z * (E + r[3].y) * (E + r[4].y)
                - r[2].x * r[3].z * (E + r[1].y) * (E + r[4].y)
                - r[3].x * r[4].z * (E + r[1].y) * (E + r[2].y)
                + r[1].x * r[2].z * r[3].x * r[4].z
            )
            assert c(E) == pytest.approx(want)

    def test_expansion_small_cases(self, rng):
        p = random_generic_params(rng)
        e0 = accessory_poly_expanded(p, 0)
        r1 = recurrence_coeffs(p, 1)
        assert e0.coeffs[0] == pytest.approx(r1.y)
        e2 = accessory_poly_expanded(p, 2)
        r = {n: recurrence_coeffs(p, n) for n in range(1, 4)}
        for E in (0.2 + 0.6j,):
            want = (
                (E + r[1].y) * (E + r[2].y) * (E + r[3].y)
                - r[1].x * r[2].z * (E + r[3].y)
                - r[2].x * r[3].z * (E + r[1].y)
            )
            assert e2(E) == pytest.approx(want)

    def test_expansion_matches_recursion(self, rng):
        for _ in range(10):
            p = random_generic_params(rng)
            if any(abs(p.beta - m) < 0.05 for m in range(1, 7)):
                continue
            for N in range(7):
                a = accessory_poly(p, N)
                b = accessory_poly_expanded(p, N)
                scale = max(abs(v) for v in a.coeffs)
                assert all(
                    abs(x - y) < 1e-10 * scale for x, y in zip(a.coeffs, b.coeffs)
                )
                assert abs(a.lead - 1.0) < 1e-10


class TestPolyRoots:
    def test_linear(self):
        roots = poly_roots(Poly.of([0.7 - 0.2j, 1.0]))
        assert roots[0] == pytest.approx(-0.7 + 0.2j)

    def test_quadratic_formula(self, rng):
        p = random_generic_params(rng)
        c = accessory_poly(p, 1)
        b, a = c.coeffs[1], c.coeffs[2]
        disc = (b / a) ** 2 - 4 * c.coeffs[0] / a
        explicit = {(-b / a + disc**0.5) / 2, (-b / a - disc**0.5) / 2}
        got = poly_roots(c)
        for r in got:
            assert min(abs(r - e) for e in explicit) < 1e-10 * max(1, abs(r))

    def test_constructed_cubic(self):
        poly = Poly.of([1.0]).times_linear(-1.0).times_linear(-2.0).times_linear(-3.0)
        got = sorted(poly_roots(poly), key=lambda z: z.real)
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert got[1] == pytest.approx(2.0, abs=1e-12)
        assert got[2] == pytest.approx(3.0, abs=1e-12)

    def test_certificate_of_huge_roots_does_not_overflow(self):
        # A generic N = 12 draw: coefficients span 1 .. 2e25 and roots
        # reach modulus ~1.7e25, so max(1, |r|)**13 overflows a float.
        p = random_generic_params(np.random.default_rng(2))
        poly = accessory_poly(p, 12)
        deg = poly.degree
        roots = poly_roots(poly)
        assert len(roots) == deg
        assert max(abs(r) for r in roots) > 1e25
        scale = max(abs(c) for c in poly.coeffs)
        for r in roots:  # the certificate p(r) / max(1, |r|)**deg, term by term
            m = max(1.0, abs(r))
            value = sum(c * (r / m) ** k * m ** (k - deg) for k, c in enumerate(poly.coeffs))
            assert abs(value) / scale <= 1e-10

    @pytest.mark.parametrize("coeffs", [[1e300, 0.0, 1e-300], [-1e150, 0.0, 0.0, 1e-200]])
    def test_non_finite_roots_fail_the_certificate(self, coeffs):
        # The monic coefficients overflow, the iteration turns NaN, and a
        # NaN certificate must not pass.
        with pytest.raises(NoConvergence, match="certificate"):
            poly_roots(Poly.of(coeffs))


class TestPowerSeries:
    def test_first_coefficient(self, rng):
        p = random_generic_params(rng)
        E = 0.4 - 0.7j
        sol = power_series_solution(p, E, 4)
        r1 = recurrence_coeffs(p, 1)
        assert sol.coeffs[0] == 1
        assert sol.coeffs[1] == pytest.approx((E + r1.y) / r1.x)

    def test_root_kills_next_coefficient(self, rng):
        p = random_admissible_params(rng, 3)
        E0 = poly_roots(accessory_poly(p, 3))[0]
        coeffs = series_coefficients(p, E0, 6)
        scale = max(abs(c) for c in coeffs[:4])
        assert abs(coeffs[4]) < 1e-9 * scale

    def test_truncated_series_solves_near_origin(self, rng):
        p = random_generic_params(rng)
        E = 0.9 + 0.2j
        sol = power_series_solution(p, E, 40)
        m = min(abs(p.t1), abs(p.t2))
        pts = [0.04 * m, 0.03 * m * 1j, 0.02 * m * (0.6 + 0.8j)]
        rep = residual_report(p, E, sol, pts)
        assert rep.max_residual < 1e-8

    def test_free_coefficient_extension_still_solves(self, rng):
        # With beta = N + 1 and E a root, the coefficient after the gap
        # is free; any choice must satisfy the full recurrence.
        p = random_family2_params(rng, 2)
        E0 = poly_roots(accessory_poly(p, 2))[0]
        h = hahn_coefficients(p, E0)
        lam = exponent_at_origin(p)
        q = p.q
        for free in (0.0, 1.0):
            coeffs = series_coefficients(p, E0, 8, free_coeff=free)
            full = [0.0, 0.0] + coeffs  # c_{-2}, c_{-1} sentinels
            for n in range(1, 9):
                val = (
                    full[n + 2] * (h.a0 * q ** (-(lam + n)) + h.c0 * q ** (lam + n) - h.b0)
                    - full[n + 1] * (E0 + (-h.a1 * q ** (-(lam + n - 1)) - h.c1 * q ** (lam + n - 1)))
                    + full[n] * (h.a2 * q ** (-(lam + n - 2)) + h.c2 * q ** (lam + n - 2) - h.b2)
                )
                scale = max(abs(full[n + 1] * E0), abs(full[n + 2]), 1.0)
                assert abs(val) < 1e-9 * scale

    def test_degenerate_without_choice(self, rng):
        p = random_family2_params(rng, 2)
        E0 = poly_roots(accessory_poly(p, 2))[0]
        with pytest.raises(DegenerateRecurrence):
            series_coefficients(p, E0, 8)


class TestPolynomialSolution:
    def test_degree_zero_is_pure_power(self, rng):
        p = random_admissible_params(rng, 0)
        E0 = -recurrence_coeffs(p, 1).y
        sol = polynomial_solution(p, E0, 0)
        assert sol.coeffs == (1,)
        assert sol.exponent == pytest.approx(exponent_at_origin(p))

    @pytest.mark.parametrize("N", [1, 4])
    def test_every_root_solves(self, rng, N):
        p = random_admissible_params(rng, N)
        grid = default_grid(p, count=20, seed=2)
        for E0 in poly_roots(accessory_poly(p, N)):
            sol = polynomial_solution(p, E0, N)
            rep = residual_report(p, E0, sol, grid)
            assert rep.max_residual < 1e-9

    def test_integer_condition_enforced(self, rng):
        p = random_generic_params(rng)  # generically no integer relation
        with pytest.raises(PreconditionError):
            polynomial_solution(p, 0.0, 2)

    def test_not_a_root_rejected(self, rng):
        p = random_admissible_params(rng, 1)
        E0 = poly_roots(accessory_poly(p, 1))[0]
        with pytest.raises(NotARoot):
            polynomial_solution(p, E0 + 1.0, 1)


class TestApparentSingularity:
    def test_roots_pass_and_perturbations_fail(self, rng):
        for N in (0, 1, 3):
            p = random_family2_params(rng, N)
            for E0 in poly_roots(accessory_poly(p, N)):
                assert apparent_singularity_check(p, E0, N)
                assert not apparent_singularity_check(p, E0 + 1.0, N)

    def test_beta_mismatch_rejected(self, rng):
        p = random_family2_params(rng, 1)
        with pytest.raises(PreconditionError):
            apparent_singularity_check(p, 0.0, 3)

    def test_agrees_with_small_root_value(self, rng):
        for _ in range(10):
            N = int(rng.integers(0, 4))
            p = random_family2_params(rng, N)
            c = accessory_poly(p, N)
            scale = max(abs(v) for v in c.coeffs)
            for _ in range(10):
                E = complex(rng.standard_normal(), rng.standard_normal()) * 2.0
                predicate = abs(c(E)) < 1e-9 * scale * max(1.0, abs(E)) ** c.degree
                assert apparent_singularity_check(p, E, N) == predicate
