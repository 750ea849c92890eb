"""The solution family under the relation h2 = l2 - 1 - N."""

import cmath
from dataclasses import replace

import pytest

from qheun.accessory import accessory_poly, one_root, recurrence_coeffs
from qheun.errors import (
    ConvergenceError,
    ConvergenceHypothesisWarning,
    NotARoot,
    PreconditionError,
)
from qheun.family_one import (
    _unilateral_base,
    family1_bilateral,
    family1_domain,
    family1_recurrence,
    family1_residual_band,
    family1_setup,
    family1_source_params,
    family1_unilateral,
)
from qheun.forms import FAMILIES
from qheun.qheun_op import grid_points, residual_report, singular_spirals
from qheun.qtransform import source_chi
from qheun.sampling import random_family1_params

FAMILY1 = FAMILIES["family1"]


class TestSetup:
    def test_integer_relation_enforced(self, rng):
        p = random_family1_params(rng, 1)
        with pytest.raises(PreconditionError):
            family1_setup(p, 2)

    def test_degree_zero_value(self, rng):
        p = random_family1_params(rng, 0)
        st = family1_setup(p, 0)
        q, lam = p.q, st.lambda1
        y1 = (q**-p.beta + 1) * q ** (-lam + p.h1 + 0.5) * p.t1 + (
            q**p.alpha1 + q**p.alpha2
        ) * q ** (p.l2 - 0.5) * p.t2
        assert st.accessory.coeffs[0] == pytest.approx(y1)
        assert st.roots[0] == pytest.approx(-y1)

    def test_quadratic_roots(self, rng):
        p = random_family1_params(rng, 1)
        st = family1_setup(p, 1)
        r1, r2 = st.recurrence[0], st.recurrence[1]
        b = r1.y + r2.y
        c0 = r1.y * r2.y - r1.x * r2.z
        disc = (b * b - 4 * c0) ** 0.5
        explicit = {(-b + disc) / 2, (-b - disc) / 2}
        for r in st.roots:
            assert min(abs(r - e) for e in explicit) < 1e-9

    def test_triple_matches_generic_recurrence(self, rng):
        # The family data is the generic origin recurrence of the
        # double-swapped source system.
        for N in (0, 2):
            p = random_family1_params(rng, N)
            st = family1_setup(p, N)
            src = family1_source_params(st)
            gen = replace(src, h1=src.l1, l1=src.h1)
            for n in range(1, N + 2):
                ours = family1_recurrence(p, N, n)
                theirs = recurrence_coeffs(gen, n)
                assert ours.x == pytest.approx(theirs.x)
                assert ours.y == pytest.approx(theirs.y)
                assert ours.z == pytest.approx(theirs.z)

    def test_accessory_matches_generic(self, rng):
        for N in (1, 3):
            p = random_family1_params(rng, N)
            st = family1_setup(p, N)
            src = family1_source_params(st)
            gen = replace(src, h1=src.l1, l1=src.h1)
            generic = accessory_poly(gen, N)
            scale = max(abs(v) for v in generic.coeffs)
            assert all(
                abs(a - b) < 1e-10 * scale
                for a, b in zip(st.accessory.coeffs, generic.coeffs)
            )


class TestUnilateral:
    @pytest.mark.parametrize("form", ["g3", "g4", "g5", "g6"])
    def test_solves_equation_at_every_root(self, rng, form):
        for N in (0, 1, 2, 3):
            st = family1_setup(random_family1_params(rng, N), N)
            pts = FAMILY1.form(form).grid(st, None, 10, seed=N)
            for E0 in st.roots:
                assert one_root(FAMILY1.form(form).root_residuals(st, [E0], None, pts)).max_residual < 1e-8

    def test_degree_zero_single_term(self, rng):
        p = random_family1_params(rng, 0)
        st = family1_setup(p, 0)
        E0 = st.roots[0]
        lo, hi = family1_domain(st, "g3")
        x = 0.5 * hi
        got = family1_unilateral(st, "g3", E0, x)
        # One k-term: the bare prefactor times a single Gauss-type sum.
        from qheun.qcore import phi_series, q_pochhammer_ratio

        q, lam = p.q, st.lambda1
        want = (
            x**lam
            * q_pochhammer_ratio(
                [q ** (-p.beta + 1.0)], [q ** (lam + p.alpha2)], q
            )
            * phi_series(
                [q ** (lam + p.alpha1), q ** (lam + p.alpha2)],
                [q ** (-p.beta + 1.0)],
                q,
                q ** (-p.h1 + 0.5) * x / p.t1,
            )
        )
        assert got == pytest.approx(want)

    def test_domain_enforced(self, rng):
        p = random_family1_params(rng, 0)
        st = family1_setup(p, 0)
        E0 = st.roots[0]
        _, hi = family1_domain(st, "g3")
        with pytest.raises(ConvergenceError):
            family1_unilateral(st, "g3", E0, 2.0 * hi)
        lo, _ = family1_domain(st, "g5")
        with pytest.raises(ConvergenceError):
            family1_unilateral(st, "g5", E0, 0.5 * lo)

    def test_rejects_non_root(self, rng):
        p = random_family1_params(rng, 1)
        st = family1_setup(p, 1)
        with pytest.raises(NotARoot):
            family1_unilateral(st, "g3", st.roots[0] + 2.0, 0.01 * abs(p.t1))

    def test_warns_outside_bilateral_hypotheses(self, rng):
        # Outside the two-sided-convergence inequalities the finite sums
        # still evaluate, but flag the unproven regime.
        p = random_family1_params(rng, 0)
        weak = replace(p, alpha2=p.alpha2 - 2.0, h1=p.h1 - 2.0)  # keeps lambda1 fixed
        st = family1_setup(weak, 0)
        E0 = st.roots[0]
        lo, hi = family1_residual_band(st, "g3")
        with pytest.warns(ConvergenceHypothesisWarning) as record:
            family1_unilateral(st, "g3", E0, (lo * hi) ** 0.5)
        # The warning points at the caller, not into qheun.
        assert record[0].filename == __file__

    def test_roots_give_independent_solutions(self, rng):
        p = random_family1_params(rng, 1)
        st = family1_setup(p, 1)
        xs = FAMILY1.form("g5").grid(st, None, 5, seed=7)
        vals = [
            [family1_unilateral(st, "g5", E0, x) for x in xs] for E0 in st.roots
        ]
        ratios = [a / b for a, b in zip(vals[0], vals[1])]
        spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
        assert spread > 1e-3  # not proportional


class TestBilateral:
    def test_hypotheses_enforced(self, rng):
        p = random_family1_params(rng, 0)
        bad = replace(p, alpha2=p.alpha2 - 3.0)  # breaks lambda1 + alpha2 > 1
        st = family1_setup(bad, 0)
        with pytest.raises(PreconditionError):
            family1_bilateral(st, "g1", st.roots[0], 0.5, 1.0)

    @pytest.mark.parametrize("form", ["g1", "g2"])
    def test_solves_equation(self, rng, form):
        for N in (0, 2):
            p = random_family1_params(rng, N)
            st = family1_setup(p, N)
            E0 = st.roots[-1]
            xi = 0.83 * abs(p.t1)
            pts = grid_points(
                p.q, singular_spirals(p) + [xi], 5,
                0.7 * abs(p.t1), 2.1 * abs(p.t1), seed=N, min_rel_dist=1e-4,
            )
            rep = residual_report(
                p, E0, lambda x: family1_bilateral(st, form, E0, xi, x), pts
            )
            assert rep.max_residual < 1e-8

    @pytest.mark.parametrize(
        "bilateral,form",
        [("g1", "g5"), ("g1", "g4"), ("g2", "g3"), ("g2", "g6")],
    )
    def test_special_anchor_collapses(self, rng, bilateral, form):
        # At its special anchor, the scalar base of the finite form, the
        # two-sided series drops one tail and reproduces the finite form
        # up to an x-independent constant.
        N = 1
        p = random_family1_params(rng, N)
        st = family1_setup(p, N)
        E0 = st.roots[0]
        lo, hi = family1_residual_band(st, form)
        r = (lo * hi) ** 0.5
        xs = [r * cmath.exp(1j * ph) for ph in (0.4, -0.9, 1.7, 0.1, -2.0)]
        ratios = []
        for x in xs:
            anchor = _unilateral_base(st, form, x)
            ratios.append(
                family1_bilateral(st, bilateral, E0, anchor, x)
                / family1_unilateral(st, form, E0, x)
            )
        mean = sum(ratios) / len(ratios)
        spread = (sum(abs(v - mean) ** 2 for v in ratios) / len(ratios)) ** 0.5
        assert spread / abs(mean) < 1e-8


class TestSeedSystems:
    def test_source_hypotheses(self, rng):
        # The inverse-mapped system satisfies the sufficient conditions
        # for both boundary limits to vanish.
        for N in (0, 1, 2):
            p = random_family1_params(rng, N)
            st = family1_setup(p, N)
            src = family1_source_params(st)
            assert src.beta < 0
            assert src.alpha1 < src.alpha2
            assert source_chi(src) == pytest.approx(st.lambda1 + p.alpha1 - 1.0)
