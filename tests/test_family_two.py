"""The solution family under the relation beta = N + 1."""

from dataclasses import replace

import pytest

from qheun.accessory import Poly, one_root, recurrence_coeffs
from qheun.errors import PreconditionError
from qheun.family_two import (
    apparent_equivalence,
    family2_bilateral,
    family2_homogeneous,
    family2_inhomogeneous_triple,
    family2_recurrence,
    family2_setup,
    g2_inhomogeneity,
    polys_match,
)
from qheun.forms import FAMILIES
from qheun.qcore import phi_series, q_pochhammer_ratio
from qheun.qheun_op import residual_report
from qheun.sampling import random_family2_params

FAMILY2 = FAMILIES["family2"]


def form_grid(st, count=6, seed=0, xi=None):
    """The grid every family-2 form checks its residual on."""
    return FAMILY2.form("g3").grid(st, xi, count, seed)


class TestSetup:
    def test_beta_relation_enforced(self, rng):
        p = random_family2_params(rng, 1)
        with pytest.raises(PreconditionError, match="beta != N"):
            family2_setup(p, 3)

    def test_degree_zero_value(self, rng):
        p = random_family2_params(rng, 0)
        st = family2_setup(p, 0)
        q, lam = p.q, st.lambda1
        y1 = q ** (0.5 - lam) * (q**p.h1 * p.t1 + q**p.h2 * p.t2) + q ** (
            -0.5 + lam + p.alpha1 + p.alpha2
        ) * (q**p.l1 * p.t1 + q**p.l2 * p.t2)
        assert st.accessory.coeffs[0] == pytest.approx(y1)
        assert st.d_poly.coeffs[0] == pytest.approx(y1)

    @pytest.mark.parametrize("N", [0, 2, 5])
    def test_both_accessory_routes_agree(self, rng, N):
        for _ in range(5):
            p = random_family2_params(rng, N)
            st = family2_setup(p, N)
            assert polys_match(st.accessory, st.d_poly)

    def test_reversed_index_identities(self, rng):
        # The family triple is the index-reversed mirror of the generic
        # one: y*_{N+2-n} = y_n and x*_{N+1-n} z*_{N+2-n} = x_n z_{n+1}.
        N = 3
        p = random_family2_params(rng, N)
        for n in range(1, N + 2):
            fam = family2_recurrence(p, N, n)
            gen = recurrence_coeffs(p, N + 2 - n)
            assert fam.y == pytest.approx(gen.y)
        for n in range(1, N + 1):
            lhs = recurrence_coeffs(p, N + 1 - n).x * recurrence_coeffs(p, N + 2 - n).z
            rhs = family2_recurrence(p, N, n).x * family2_recurrence(p, N, n + 1).z
            assert lhs == pytest.approx(rhs)


class TestApparentEquivalence:
    def test_admissible_setups_pass(self, rng):
        for N in (0, 1, 4):
            st = family2_setup(random_family2_params(rng, N), N)
            assert apparent_equivalence(st)

    def test_perturbed_polynomial_fails(self, rng):
        st = family2_setup(random_family2_params(rng, 1), 1)
        bumped = list(st.d_poly.coeffs)
        bumped[0] += 1e-3 * max(abs(c) for c in bumped)
        broken = replace(st, d_poly=Poly.of(bumped))
        assert not apparent_equivalence(broken)


class TestHomogeneousForms:
    @pytest.mark.parametrize("form", ["g3", "g4", "g5"])
    def test_solves_equation_at_every_root(self, rng, form):
        for N in (0, 1, 2):
            st = family2_setup(random_family2_params(rng, N), N)
            pts = form_grid(st, seed=N)
            for E0 in st.roots:
                assert one_root(FAMILY2.form(form).root_residuals(st, [E0], None, pts)).max_residual < 1e-8

    def test_degree_zero_matches_variant_solutions(self, rng):
        # At N = 0 the three forms are exactly the degree-two variant
        # solutions; check g3 against a direct transcription.
        p = random_family2_params(rng, 0)
        st = family2_setup(p, 0)
        E0 = st.roots[0]
        q, lam = p.q, st.lambda1
        for x in form_grid(st, count=3, seed=5):
            want = (
                x**lam
                * q_pochhammer_ratio(
                    [q ** (lam - p.h1 + p.alpha1 + 0.5) * x / p.t1],
                    [q ** (-p.h1 + 0.5) * x / p.t1],
                    q,
                )
                * phi_series(
                    [
                        q ** (lam - p.h1 + p.l1 + p.alpha1),
                        q ** (lam - p.h1 + p.l2 + p.alpha1) * p.t2 / p.t1,
                        q ** (-p.h1 + 0.5) * x / p.t1,
                    ],
                    [
                        q ** (-p.h1 + p.h2 + 1.0) * p.t2 / p.t1,
                        q ** (lam - p.h1 + p.alpha1 + 0.5) * x / p.t1,
                    ],
                    q,
                    q ** (lam + p.alpha2),
                )
            )
            got = family2_homogeneous(st, "g3", E0, x)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_degree_zero_eigenvalue_matches_variant(self, rng):
        p = random_family2_params(rng, 0)
        st = family2_setup(p, 0)
        scale = p.q ** ((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2)
        want = -scale * (
            (p.q**-p.h2 + p.q**-p.l2) * p.t1 + (p.q**-p.h1 + p.q**-p.l1) * p.t2
        )
        assert abs(st.roots[0] - want) < 1e-12 * abs(want)

    def test_apparent_singularity_yields_nonzero_finite_solution(self, rng):
        # Whenever the equivalence holds, at least one finite form is a
        # genuinely nonzero solution (here all three are).
        for N in (0, 1, 3):
            p = random_family2_params(rng, N)
            st = family2_setup(p, N)
            assert apparent_equivalence(st)
            pts = form_grid(st, count=4, seed=N + 40)
            for E0 in st.roots:
                values = [family2_homogeneous(st, "g3", E0, x) for x in pts]
                assert max(abs(v) for v in values) > 1e-12
                rep = residual_report(
                    p, E0, lambda x: family2_homogeneous(st, "g3", E0, x), pts
                )
                assert rep.max_residual < 1e-8


class TestInhomogeneousTriple:
    def test_each_member_solves_inhomogeneous_equation(self, rng):
        for N in (0, 2):
            p = random_family2_params(rng, N)
            st = family2_setup(p, N)
            E0 = st.roots[0]
            pts = form_grid(st, seed=N + 3)
            for form in ("g6", "g7", "g8"):
                assert one_root(FAMILY2.form(form).root_residuals(st, [E0], None, pts)).max_residual < 1e-8

    def test_differences_are_homogeneous_solutions(self, rng):
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[1]
        pts = form_grid(st, seed=9)
        for a, b in (("g6", "g7"), ("g7", "g8"), ("g6", "g8")):
            diff = lambda x: family2_inhomogeneous_triple(
                st, a, E0, x
            ) - family2_inhomogeneous_triple(st, b, E0, x)
            rep = residual_report(p, E0, diff, pts)
            assert rep.max_residual < 1e-8

    def test_telescoping(self, rng):
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        x = form_grid(st, count=1, seed=2)[0]
        g6 = family2_inhomogeneous_triple(st, "g6", E0, x)
        g7 = family2_inhomogeneous_triple(st, "g7", E0, x)
        g8 = family2_inhomogeneous_triple(st, "g8", E0, x)
        assert (g6 - g7) + (g7 - g8) - (g6 - g8) == pytest.approx(0.0, abs=1e-12 * abs(g6))


class TestBilateral:
    def test_g1_inhomogeneous_identity(self, rng):
        for N in (0, 1):
            p = random_family2_params(rng, N)
            st = family2_setup(p, N)
            E0 = st.roots[-1]
            xi = 0.77 * abs(p.t1)
            pts = form_grid(st, seed=N, xi=xi)
            assert one_root(FAMILY2.form("g1").root_residuals(st, [E0], xi, pts)).max_residual < 1e-8

    def test_g2_theta_inhomogeneous_identity(self, rng):
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        xi = 0.69 * abs(p.t2)
        pts = form_grid(st, seed=4, xi=xi)
        assert one_root(FAMILY2.form("g2").root_residuals(st, [E0], xi, pts)).max_residual < 1e-8

    def test_g2_at_theta_zero_anchor_is_homogeneous(self, rng):
        # Anchoring on the lattice zero of the leading theta factor kills
        # the inhomogeneity, leaving a plain solution.
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        xi = p.q ** (-st.lambda1 + p.h1 - p.alpha1 + 0.5) * p.t1
        assert abs(g2_inhomogeneity(st, xi, 1.3 * abs(p.t1))) < 1e-20
        pts = form_grid(st, seed=6, xi=xi)
        rep = residual_report(
            p, E0, lambda x: family2_bilateral(st, "g2", E0, xi, x), pts
        )
        assert rep.max_residual < 1e-8

    def test_hypothesis_enforced(self, rng):
        p = random_family2_params(rng, 0)
        bad = replace(p, alpha2=p.alpha2 - 3.0)
        st = family2_setup(bad, 0)
        with pytest.raises(PreconditionError):
            family2_bilateral(st, "g1", st.roots[0], 0.5, 1.0)
