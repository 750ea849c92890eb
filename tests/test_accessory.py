"""Recurrence data, accessory polynomials, roots, local solutions."""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from qheun import accessory
from qheun.accessory import (
    Poly,
    RecurrenceCoeffs,
    _forward_rows,
    accessory_poly,
    accessory_poly_expanded,
    accessory_rows,
    apparent_singularity_check,
    coeff_gap,
    coeff_row,
    coeff_values,
    exponent_at_origin,
    horner,
    poly_roots,
    recurrence_coeffs,
    root_certificate,
    run_poly_recursion,
    series_coefficients,
)
from qheun.errors import DegenerateRecurrence, DomainError, NoConvergence, NotARoot, PreconditionError
from qheun.family_one import family1_setup
from qheun.family_two import family2_setup
from qheun.forms import FAMILIES
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


def roots_of(recurrence) -> list[complex]:
    """poly_roots of the continuant of recurrence, a list of triples."""
    return list(poly_roots(run_poly_recursion(recurrence), recurrence))


def origin_roots(p: QHeunParams, N: int) -> tuple[Poly, list[complex]]:
    """The accessory polynomial of p at N and its roots, from the triples at the origin."""
    recurrence = [recurrence_coeffs(p, n) for n in range(1, N + 2)]
    return run_poly_recursion(recurrence), roots_of(recurrence)


def exact_eigenvalues(mp, recurrence) -> list[complex]:
    """Eigenvalues of the tridiagonal of the float triples recurrence, in 50-digit arithmetic."""
    n = len(recurrence)
    with mp.workdps(50):
        M = mp.matrix(n, n)
        for i, rc in enumerate(recurrence):
            M[i, i] = -mp.mpc(rc.y)
            if i > 0:
                M[i, i - 1] = mp.mpc(rc.z)
            if i < n - 1:
                M[i, i + 1] = mp.mpc(rc.x)
        return [complex(v) for v in mp.eig(M, left=False, right=False)]


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
            for N in range(7):
                a = accessory_poly(p, N)
                b = accessory_poly_expanded(p, N)
                scale = max(abs(v) for v in a.coeffs)
                assert all(
                    abs(x - y) < 1e-10 * scale for x, y in zip(a.coeffs, b.coeffs)
                )
                assert abs(a.lead - 1.0) < 1e-10

    def test_all_triples_are_formed_before_the_recursion(self):
        # beta = 1 makes x_1 vanish, and at q = 0.02 the triple of index
        # 201 overflows.  accessory_poly forms every triple first, as
        # family_setup does, so the overflow, typed, comes first; below it
        # the continuant divides by no x_n and meets the expansion.  The
        # local series checks each triple before it forms the next.
        p = params(beta=1.0, q=0.02)
        with pytest.raises(DomainError, match=r"^OverflowError in the accessory polynomial at q = 0.02, N = 200: "):
            accessory_poly(p, 200)
        assert coeff_gap(accessory_poly(p, 2), accessory_poly_expanded(p, 2)) <= 1e-14
        with pytest.raises(DegenerateRecurrence, match="x_1 vanishes: c_1 is undetermined"):
            series_coefficients(p, 0.3, 200)

    def test_a_vanishing_x_leaves_the_polynomial_defined(self):
        # beta = 1 makes x_1 exactly 0: the polynomial is the expansion's,
        # while the local series, which divides by x_1, still refuses.
        p = replace(random_generic_params(np.random.default_rng(1)), beta=1.0)
        assert recurrence_coeffs(p, 1).x == 0
        for N in range(1, 7):
            assert coeff_gap(accessory_poly(p, N), accessory_poly_expanded(p, N)) <= 1e-14, N
            with pytest.raises(DegenerateRecurrence, match="x_1 vanishes"):
                series_coefficients(p, 0.3, N)


def toeplitz(n: int, y: complex, x: complex, z: complex) -> list[RecurrenceCoeffs]:
    """n equal triples: a tridiagonal whose eigenvalues are -y + 2 sqrt(x z) cos(k pi / (n + 1)), k = 1..n."""
    return [RecurrenceCoeffs(x, y, z)] * n


class TestPolyRoots:
    def test_linear(self):
        roots = roots_of([RecurrenceCoeffs(1.0, 0.7 - 0.2j, 1.0)])
        assert roots[0] == pytest.approx(-0.7 + 0.2j)

    def test_quadratic_formula(self, rng):
        p = random_generic_params(rng)
        c, got = origin_roots(p, 1)
        b, a = c.coeffs[1], c.coeffs[2]
        disc = (b / a) ** 2 - 4 * c.coeffs[0] / a
        explicit = {(-b / a + disc**0.5) / 2, (-b / a - disc**0.5) / 2}
        for r in got:
            assert min(abs(r - e) for e in explicit) < 1e-10 * max(1, abs(r))

    def test_constructed_cubic(self):
        # diagonal 2, off-diagonal products 1/2: eigenvalues 2 + sqrt(2) cos(k pi / 4) = 3, 2, 1.
        got = roots_of(toeplitz(3, -2.0, 0.5, 1.0))
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert got[1] == pytest.approx(2.0, abs=1e-12)
        assert got[2] == pytest.approx(3.0, abs=1e-12)

    def test_roots_come_back_sorted(self):
        # A coupled 3 x 3 block with eigenvalues 2 + 0.5i + (1, 0, -1) and, decoupled
        # by z_4 = 0, a 2 x 2 block with eigenvalues 0.5 +- (0.1 + i).
        xz = (0.1 + 1j) ** 2
        block = toeplitz(3, -2.0 - 0.5j, 0.5, 1.0) + [RecurrenceCoeffs(xz, -0.5, 0j), RecurrenceCoeffs(1.0, -0.5, 1.0)]
        got = roots_of(block)
        want = [0.4 - 1j, 0.6 + 1j, 1 + 0.5j, 2 + 0.5j, 3 + 0.5j]
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got

    def test_certificate_of_huge_roots_does_not_overflow(self):
        # A generic N = 12 draw whose coefficients span 1 .. 2e25.  Its
        # roots have moduli 3.3 .. 6.2e3; at |r| = 1.729e25 the power
        # max(1, |r|)**13 overflows a float, and the certificate is formed
        # term by term instead.
        mp = pytest.importorskip("mpmath")
        p = random_generic_params(np.random.default_rng(2))
        poly, roots = origin_roots(p, 12)
        assert_roots_match(mp, poly, roots, rel=1e-10)
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
                poly, roots = origin_roots(random_generic_params(rng), N)
            elif family == "family1":
                st = family1_setup(random_family1_params(rng, N), N)
                poly, roots = st.accessory, st.roots
            else:
                st = family2_setup(random_family2_params(rng, N), N)
                poly, roots = st.accessory, st.roots
            assert_roots_match(mp, poly, roots, rel=16 * EPS, conditioned=True)

    @pytest.mark.parametrize("coeffs", [[(1e300, 0.0, 1e300)] * 2, [(1.0, 1e200, 1.0), (1.0, -1e200, 1.0)]])
    def test_non_finite_roots_fail_the_certificate(self, coeffs):
        # x_1 z_2 = 1e600 leaves the tridiagonal infinite; y_1 y_2 = -1e400
        # leaves the polynomial's constant coefficient infinite, so its
        # finite eigenvalues cannot be certified.
        with pytest.raises(NoConvergence, match="not finite|certificate failed"):
            roots_of([RecurrenceCoeffs(*t) for t in coeffs])

    @pytest.mark.parametrize("family, N, q", [("family1", 8, 0.9), ("family2", 8, 0.95)])
    def test_roots_near_q_one_match_the_tridiagonal(self, family, N, q):
        # The first two draws of scripts/envelope.py's cell, against a 50-digit
        # eig of the same float triples.  Companion eigenvalues of the monomial
        # coefficients, Newton-refined, missed them by up to 2.2e-3 (family1)
        # and 2.2e-2 (family2) relative; QL roots by at most 1.1e-16.
        mp = pytest.importorskip("mpmath")
        sampler = {"family1": random_family1_params, "family2": random_family2_params}[family]
        rng = np.random.default_rng([2026, N, len(family)])
        for index in range(2):
            st = FAMILIES[family].setup(replace(sampler(rng, N), q=q), N)
            for w in exact_eigenvalues(mp, st.recurrence):
                assert min(abs(r - w) for r in st.roots) <= 1e-12 * max(1.0, abs(w)), (index, w)

    def test_a_rotation_that_breaks_down_is_no_convergence(self):
        # d = (1, -1) and off-diagonal i: the nilpotent complex symmetric
        # [[1, i], [i, -1]], whose accessory polynomial is E**2.  Its first
        # rotation meets f**2 + g**2 = i**2 + 1 = 0.
        with pytest.raises(NoConvergence, match="rotation breaks down"):
            roots_of([RecurrenceCoeffs(1.0, -1.0, 1.0), RecurrenceCoeffs(1.0, 1.0, -1.0)])

    def test_a_triple_count_unlike_the_degree_is_refused(self):
        triples = toeplitz(3, -2.0, 0.5, 1.0)
        with pytest.raises(DomainError, match="no continuant of 2 triples"):
            poly_roots(run_poly_recursion(triples), triples[:2])


class TestRootCoefficients:
    @pytest.mark.parametrize("family, N", [("family2", 8), ("family1", 12), ("family2", 12)])
    def test_eigenvectors_match_mpmath(self, family, N):
        # The coefficients at each root against a 60-digit eigenvector of
        # the same float recurrence matrix.  The coefficient polynomials
        # at the root missed it by up to 1.4e-5 on the family2 draws; the
        # family1 eigenvectors are graded, and scaling a computed one by
        # its tiny c_0 missed by up to 2.7.  A float eigenvector of M,
        # completed by the forward recurrence up to its peak, missed the
        # family2 N = 12 rows by 4.7e-9; the twisted rows at the refined
        # roots keep them to about 2e-13.
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
        # The coefficients c_n(E) at a root are the forward sweep from
        # c_0 = 1 over the setup's own triples.
        for N in (0, 1, 2):
            st = family2_setup(random_family2_params(rng, N), N)
            for root in st.roots:
                got = coeff_values(st.root_coeffs, root)
                want = _forward_rows(root, st.recurrence[:N])
                scale = max(abs(w) for w in want)
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-11 * scale

    @pytest.mark.parametrize("family, draws", [("family2", 1), ("family1", 9)])
    def test_every_form_passes_near_q_one(self, family, draws):
        # N = 4, q = 0.9: the first draws of scripts/envelope.py's cell.  Rows
        # from eig(M) at its own eigenvalue, not the root, failed all 50
        # checks of the family2 draw and 18 of the 270 family1 checks.
        sampler = {"family1": random_family1_params, "family2": random_family2_params}[family]
        rng = np.random.default_rng([2026, 4, len(family)])
        for index in range(draws):
            st = FAMILIES[family].setup(replace(sampler(rng, 4), q=0.9), 4)
            xi = 0.8 * abs(st.params.t1) * cmath.exp(0.3j)
            for form in FAMILIES[family].forms:
                for rep in form.root_residuals(st, st.roots, xi, form.grid(st, xi, 4, index)):
                    assert rep.max_residual < 1e-8, (form.name, index)

    def test_every_row_meets_every_equation(self, rng):
        # The twisted row at a root meets the equation it was joined at as
        # well as the ones its sweeps run, relative to the terms' size.
        for N in (3, 8):
            st = family2_setup(random_family2_params(rng, N), N)
            for root in st.roots:
                c = [0j, *st.root_coeffs[root], 0j]  # c_{-1}..c_{N+1}
                assert c[1] == 1
                for k, rc in enumerate(st.recurrence, 1):
                    terms = (rc.x * c[k + 1], (root + rc.y) * c[k], rc.z * c[k - 1])
                    defect = terms[0] - terms[1] + terms[2]
                    assert abs(defect) <= 1e-12 * max(abs(t) for t in terms), (N, k)

    def test_a_zero_sweep_divisor_is_typed(self):
        # x_1 divides the forward sweep, z_2 the backward one.
        one = 1.0 + 0j
        with pytest.raises(DegenerateRecurrence, match=r"x_1 vanishes"):
            accessory_rows([RecurrenceCoeffs(0j, one, one), RecurrenceCoeffs(one, one, one)], [0j])
        with pytest.raises(DegenerateRecurrence, match=r"z_2 vanishes"):
            accessory_rows([RecurrenceCoeffs(one, one, one), RecurrenceCoeffs(one, one, 0j)], [0j])


class TestRootRefinement:
    def test_certificates_are_kept_with_the_refined_roots(self, rng):
        for N in (2, 8):
            st = FAMILIES["family1"].setup(random_family1_params(rng, N), N)
            assert st.certificates == tuple(root_certificate(st.accessory.coeffs, r) for r in st.roots)
            assert list(st.roots) == sorted(st.roots, key=lambda r: (r.real, r.imag))
            assert max(st.certificates) <= 1e-10

    def test_refinement_moves_roots_toward_mpmath(self):
        # One Newton step on the continuant: the refined roots of these
        # family2 N = 12 draws are no farther from 50-digit eigenvalues of
        # the same float triples than the QL eigenvalues, and closer in the
        # worst case (3.4e-15 -> 5.0e-16).
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        raw_worst = refined_worst = 0.0
        for _ in range(2):
            st = family2_setup(random_family2_params(rng, 12), 12)
            d = [-rc.y for rc in st.recurrence]
            e = [cmath.sqrt(a.x * b.z) for a, b in zip(st.recurrence, st.recurrence[1:])]
            raw = accessory._ql_eigenvalues(d, e)
            for w in exact_eigenvalues(mp, st.recurrence):
                raw_worst = max(raw_worst, min(abs(w - r) for r in raw) / abs(w))
                refined_worst = max(refined_worst, min(abs(w - r) for r in st.roots) / abs(w))
        assert refined_worst < raw_worst

    def test_coinciding_roots_raise(self, rng, monkeypatch):
        monkeypatch.setattr(accessory, "_newton_step", lambda recurrence, E: 1.0 + 0j)
        with pytest.raises(NoConvergence, match="coincide"):
            FAMILIES["family2"].setup(random_family2_params(rng, 2), 2)


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
        E0 = origin_roots(p, 3)[1][0]
        coeffs = series_coefficients(p, E0, 6)
        scale = max(abs(c) for c in coeffs[:4])
        assert abs(coeffs[4]) < 1e-9 * scale

    def test_truncated_series_solves_near_origin(self, rng):
        p = random_generic_params(rng)
        E = 0.9 + 0.2j
        coeffs = series_coefficients(p, E, 40)
        sol = lambda x: complex(x) ** exponent_at_origin(p) * horner(coeffs, x)
        m = min(abs(p.t1), abs(p.t2))
        pts = [0.04 * m, 0.03 * m * 1j, 0.02 * m * (0.6 + 0.8j)]
        rep = residual_report(p, E, sol, pts)
        assert rep.max_residual < 1e-8

    def test_degenerate_without_choice(self, rng):
        p = random_family2_params(rng, 2)
        E0 = origin_roots(p, 2)[1][0]
        with pytest.raises(DegenerateRecurrence):
            series_coefficients(p, E0, 8)


class TestPolynomialSolution:
    """The generic family's poly form: x^lambda times the polynomial of a root's row."""

    family = FAMILIES["generic"]

    def solution(self, p, N, E0=None):
        st = self.family.setup(p, N)
        return st, self.family.form("poly").solution(st, st.roots[0] if E0 is None else E0, None)

    def test_degree_zero_is_pure_power(self, rng):
        p = random_admissible_params(rng, 0)
        E0 = -recurrence_coeffs(p, 1).y
        st, sol = self.solution(p, 0, E0)
        assert coeff_row(st, E0) == (1,)
        assert st.lambda1 == exponent_at_origin(p)
        x = 0.7 - 0.2j
        assert sol(x) == x**st.lambda1

    @pytest.mark.parametrize("N", [1, 4])
    def test_every_root_solves(self, rng, default_grid, N):
        p = random_admissible_params(rng, N)
        grid = default_grid(p, count=20, seed=2)
        st = self.family.setup(p, N)
        for E0 in st.roots:
            rep = residual_report(p, E0, self.solution(p, N, E0)[1], grid)
            assert rep.max_residual < 1e-9

    def test_integer_condition_enforced(self, rng):
        p = random_generic_params(rng)  # generically no integer relation
        _, sol = self.solution(p, 2)
        with pytest.raises(PreconditionError, match="is not the integer 2"):
            sol(1.0)

    def test_not_a_root_rejected(self, rng):
        p = random_admissible_params(rng, 1)
        E0 = self.family.setup(p, 1).roots[0]
        _, sol = self.solution(p, 1, E0 + 1.0)
        with pytest.raises(NotARoot):
            sol(1.0)


class TestApparentSingularity:
    def test_roots_pass_and_perturbations_fail(self, rng):
        for N in (0, 1, 3):
            p = random_family2_params(rng, N)
            for E0 in origin_roots(p, N)[1]:
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
