"""Recurrence data, accessory polynomials, roots, local solutions."""

import cmath

import numpy as np
import pytest

from qheun.accessory import (
    Poly,
    SeriesSolution,
    accessory_poly,
    accessory_poly_expanded,
    apparent_singularity_check,
    coeff_values,
    exponent_at_origin,
    poly_roots,
    polynomial_solution,
    recurrence_coeffs,
    root_certificate,
    run_poly_recursion,
    series_coefficients,
)
from qheun.errors import DegenerateRecurrence, NoConvergence, NotARoot, PreconditionError
from qheun.family_one import family1_setup
from qheun.family_two import family2_setup
from qheun.qheun_op import QHeunParams, hahn_coefficients, residual_report
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


EPS = 2.0**-52


def assert_roots_match(mp, poly: Poly, roots, rel: float, conditioned: bool = False) -> None:
    """Every exact root of poly (mpmath at 60 digits) has one of roots within
    rel |r|, times the root's condition number sum |c_k r^k| / |r p'(r)|
    when conditioned."""
    assert len(roots) == poly.degree
    with mp.workdps(60):
        exact = mp.polyroots([mp.mpc(c) for c in reversed(poly.coeffs)], maxsteps=500, extraprec=200)
        for w in exact:
            kappa = 1.0
            if conditioned:
                dp = mp.polyval([k * mp.mpc(c) for k, c in reversed(list(enumerate(poly.coeffs)))][:-1], w)
                kappa = float(sum(abs(c) * abs(w) ** k for k, c in enumerate(poly.coeffs)) / abs(w * dp))
            w = complex(w)
            assert min(abs(r - w) for r in roots) <= rel * kappa * abs(w)


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


def coefficient_polys(p, N):
    """Eigenvalue polynomials c_0(E)..c_N(E) of the local series coefficients."""
    return run_poly_recursion(lambda n: recurrence_coeffs(p, n), N, abs(p.t1 * p.t2))[0]


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

    def test_roots_come_back_sorted(self):
        poly = Poly.of([1.0])
        for r in (2.0 - 1j, -0.9 + 3j, 2.1 + 1j, 0.5, -1.0 - 3j):
            poly = poly.times_linear(-r)
        got = poly_roots(poly)
        want = [-1.0 - 3j, -0.9 + 3j, 0.5, 2.0 - 1j, 2.1 + 1j]
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    def test_certificate_of_huge_roots_does_not_overflow(self):
        # A generic N = 12 draw whose coefficients span 1 .. 2e25.  Its
        # roots have moduli 3.3 .. 6.2e3; at |r| = 1.729e25 the power
        # max(1, |r|)**13 overflows a float, and the certificate is formed
        # term by term instead.
        mp = pytest.importorskip("mpmath")
        p = random_generic_params(np.random.default_rng(2))
        poly = accessory_poly(p, 12)
        assert_roots_match(mp, poly, poly_roots(poly), rel=1e-10)
        r = 1.729e25 * cmath.exp(0.4j)
        deg = poly.degree
        scale = max(abs(c) for c in poly.coeffs)
        value = sum(c * (r / abs(r)) ** k * abs(r) ** (k - deg) for k, c in enumerate(poly.coeffs))
        assert root_certificate(poly.coeffs, r) == pytest.approx(abs(value) / scale, rel=1e-12)

    @pytest.mark.parametrize("N", [4, 8, 12])
    @pytest.mark.parametrize("family", ["generic", "family1", "family2"])
    def test_roots_match_mpmath(self, family, N):
        # Each root within 16 eps times its condition number of the exact
        # roots of the same float polynomial, as a backward-stable solver
        # guarantees.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        for _ in range(3):
            if family == "generic":
                poly = accessory_poly(random_generic_params(rng), N)
                roots = poly_roots(poly)
            elif family == "family1":
                st = family1_setup(random_family1_params(rng, N), N)
                poly, roots = st.accessory, st.roots
            else:
                st = family2_setup(random_family2_params(rng, N), N)
                poly, roots = st.accessory, st.roots
            assert_roots_match(mp, poly, roots, rel=16 * EPS, conditioned=True)

    @pytest.mark.parametrize("coeffs", [[1e300, 0.0, 1e-300], [-1e150, 0.0, 0.0, 1e-200]])
    def test_non_finite_roots_fail_the_certificate(self, coeffs):
        # The monic coefficients overflow, so no root can be certified.
        with pytest.raises(NoConvergence, match="certificate"):
            poly_roots(Poly.of(coeffs))


class TestRootCoefficients:
    @pytest.mark.parametrize("family, N", [("family2", 8), ("family1", 12)])
    def test_eigenvectors_match_mpmath(self, family, N):
        # The coefficients at each root against a 60-digit eigenvector of
        # the same float recurrence matrix.  The coefficient polynomials
        # at the root missed it by up to 1.4e-5 on the family2 draws; the
        # family1 eigenvectors are graded, and scaling a computed one by
        # its tiny c_0 missed by up to 2.7.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for _ in range(3):
            if family == "family1":
                st = family1_setup(random_family1_params(rng, N), N)
            else:
                st = family2_setup(random_family2_params(rng, N), N)
            n = len(st.recurrence)
            with mp.workdps(60):
                M = mp.matrix(n, n)
                for i, rc in enumerate(st.recurrence):
                    M[i, i] = -mp.mpc(rc.y)
                    if i > 0:
                        M[i, i - 1] = mp.mpc(rc.z)
                    if i < n - 1:
                        M[i, i + 1] = mp.mpc(rc.x)
                values, vectors = mp.eig(M)
                for root in st.roots:
                    j = min(range(n), key=lambda k: abs(values[k] - root))
                    want = [complex(vectors[i, j] / vectors[0, j]) for i in range(n)]
                    got = coeff_values(st.root_coeffs, root)
                    scale = max(abs(w) for w in want)
                    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10 * scale

    def test_small_n_matches_coefficient_polys(self, rng):
        for N in (0, 1, 2):
            st = family2_setup(random_family2_params(rng, N), N)
            polys, _ = run_poly_recursion(lambda n: st.recurrence[n - 1], N, abs(st.params.t1 * st.params.t2))
            for root in st.roots:
                got = coeff_values(st.root_coeffs, root)
                want = [c(root) for c in polys]
                scale = max(abs(w) for w in want)
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-11 * scale


class TestPowerSeries:
    def test_first_coefficient(self, rng):
        p = random_generic_params(rng)
        E = 0.4 - 0.7j
        coeffs = series_coefficients(p, E, 4)
        r1 = recurrence_coeffs(p, 1)
        assert coeffs[0] == 1
        assert coeffs[1] == pytest.approx((E + r1.y) / r1.x)

    def test_root_kills_next_coefficient(self, rng):
        p = random_admissible_params(rng, 3)
        E0 = poly_roots(accessory_poly(p, 3))[0]
        coeffs = series_coefficients(p, E0, 6)
        scale = max(abs(c) for c in coeffs[:4])
        assert abs(coeffs[4]) < 1e-9 * scale

    def test_truncated_series_solves_near_origin(self, rng):
        p = random_generic_params(rng)
        E = 0.9 + 0.2j
        sol = SeriesSolution(exponent_at_origin(p), tuple(series_coefficients(p, E, 40)))
        m = min(abs(p.t1), abs(p.t2))
        pts = [0.04 * m, 0.03 * m * 1j, 0.02 * m * (0.6 + 0.8j)]
        rep = residual_report(p, E, sol, pts)
        assert rep.max_residual < 1e-8

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
    def test_every_root_solves(self, rng, default_grid, N):
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
