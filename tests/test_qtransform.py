"""Parameter maps, kernels, Jackson transforms, boundary data, gauges."""

import cmath
from dataclasses import replace

import pytest

from qheun.accessory import accessory_poly, coeff_values, poly_roots, polynomial_solution
from qheun.errors import NoLimit, PoleError
from qheun.family_one import (
    family1_bilateral,
    family1_seed,
    family1_setup,
    family1_source_params,
)
from qheun.family_two import (
    family2_bilateral,
    family2_pole_spirals,
    family2_seed,
    family2_setup,
    family2_source_params,
    g2_inhomogeneity,
)
from qheun.qcore import jackson_integral, q_pochhammer_ratio, theta
from qheun.qheun_op import QHeunParams, grid_points, residual_report, singular_spirals
from qheun.qtransform import (
    Seed,
    TransformSpec,
    boundary_limits,
    boundary_terms,
    kernel_value,
    param_map,
    seed_weight_exponent,
    source_chi,
    source_system,
    transform,
)
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


class TestParamMap:
    def test_round_trip(self, rng):
        for mu0 in (0.0, 0.4):
            target = random_generic_params(rng)
            src = source_system(target, mu0=mu0, alpha1_source=0.3)
            spec = TransformSpec(source=src, mu0=mu0, xi=1.0, alpha1=target.alpha1)
            back = param_map(spec, 1.0)
            for f in ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta"):
                assert getattr(back.target, f) == pytest.approx(getattr(target, f))

    def test_eigenvalue_factor(self, rng):
        target = random_generic_params(rng)
        src = source_system(target, mu0=0.25, alpha1_source=0.1)
        spec = TransformSpec(source=src, mu0=0.25, xi=1.0, alpha1=target.alpha1)
        res = param_map(spec, 2.0 - 1.0j)
        factor = target.q ** (0.25 + target.alpha1 - 0.1)
        assert res.E_target == pytest.approx(factor * (2.0 - 1.0j))

    def test_zero_shift_fixes_exponents(self, rng):
        src = random_generic_params(rng)
        # Force chi = 0 through beta'.
        src = replace(src, beta=src.l1 + src.l2 - src.h1 - src.h2 - src.alpha1 + src.alpha2)
        assert source_chi(src) == pytest.approx(0.0)
        spec = TransformSpec(source=src, mu0=0.0, xi=1.0, alpha1=0.7)
        res = param_map(spec, 1.0)
        assert res.target.l1 == pytest.approx(src.l1)
        assert res.target.h1 == pytest.approx(src.h1)
        assert res.target.beta == pytest.approx(-src.beta)

    def test_family1_relation_appears(self, rng):
        N = 2
        p = random_family1_params(rng, N)
        st = family1_setup(p, N)
        src = family1_source_params(st)
        spec = TransformSpec(source=src, mu0=0.0, xi=1.0, alpha1=p.alpha1)
        res = param_map(spec, 1.0)
        assert res.target.h2 == pytest.approx(res.target.l2 - 1 - N)
        assert res.target.l1 == pytest.approx(src.l1)
        assert res.target.l2 == pytest.approx(src.l2)


class TestKernel:
    def test_identity_when_shift_vanishes(self, rng):
        src = random_generic_params(rng)
        # mu = mu0 requires chi = -1.
        src = replace(
            src, beta=src.l1 + src.l2 - src.h1 - src.h2 - src.alpha1 + src.alpha2 + 2.0
        )
        assert source_chi(src) == pytest.approx(-1.0)
        for kernel in ("P1", "P2"):
            spec = TransformSpec(source=src, mu0=0.3, xi=1.0, kernel=kernel)
            assert kernel_value(spec, 1.3 + 0.2j, 0.7 - 0.4j) == pytest.approx(1.0)

    def test_single_factor_case(self, rng):
        # chi = 0 gives mu = mu0 + 1 and a one-factor telescoped kernel.
        src = random_generic_params(rng)
        src = replace(src, beta=src.l1 + src.l2 - src.h1 - src.h2 - src.alpha1 + src.alpha2)
        mu0 = 0.2
        spec = TransformSpec(source=src, mu0=mu0, xi=1.0, kernel="P1")
        x, s = 1.4 + 0.3j, 0.6 - 0.2j
        got = kernel_value(spec, x, s)
        assert got == pytest.approx(1.0 / (1.0 - src.q**mu0 * s / x))

    def test_spiral_step_telescopes(self, rng):
        src = random_generic_params(rng)
        q = src.q
        mu0 = 0.15
        mu = mu0 + 1.0 + source_chi(src)
        spec = TransformSpec(source=src, mu0=mu0, xi=1.0, kernel="P1")
        for x, s in ((1.2 + 0.4j, 0.8 - 0.3j), (0.9 - 0.1j, 1.1 + 0.6j)):
            lhs = kernel_value(spec, x, q * s) / kernel_value(spec, x, s)
            rhs = (1.0 - q**mu0 * s / x) / (1.0 - q**mu * s / x)
            assert lhs == pytest.approx(rhs)


class TestTransform:
    def test_zero_seed(self, rng):
        src = random_generic_params(rng)
        spec = TransformSpec(source=src, mu0=0.0, xi=0.8, alpha1=0.2)
        assert transform(spec, lambda s: 0.0, 1.0, 1.3) == 0

    def test_family1_seed_matches_bilateral(self, rng):
        N = 1
        p = random_family1_params(rng, N)
        st = family1_setup(p, N)
        E0 = st.roots[0]
        src = family1_source_params(st)
        xi = 0.9 * abs(p.t1)
        seed = family1_seed(st, "h1", E0)
        spec = TransformSpec(source=src, mu0=0.0, xi=xi, kernel="P1", alpha1=p.alpha1)
        for x in (1.17 * abs(p.t1), 2.31 * abs(p.t1)):
            got = transform(spec, seed, E0, x)
            want = family1_bilateral(st, "g1", E0, xi, x)
            assert abs(got - want) < 1e-10 * abs(want)

    def test_family2_seed_matches_bilateral(self, rng):
        N = 1
        p = random_family2_params(rng, N)
        st = family2_setup(p, N)
        E0 = st.roots[0]
        src = family2_source_params(st)
        xi = 0.9 * abs(p.t1)
        seed = family2_seed(st, "h2", E0)
        spec = TransformSpec(source=src, mu0=0.0, xi=xi, kernel="P2", alpha1=p.alpha1)
        for x in (1.13 * abs(p.t1), 1.97 * abs(p.t1)):
            got = transform(spec, seed, E0, x)
            want = family2_bilateral(st, "g2", E0, xi, x)
            assert abs(got - want) < 1e-10 * abs(want)


FAMILIES = {
    "family1": (random_family1_params, family1_setup, family1_source_params, family1_seed),
    "family2": (random_family2_params, family2_setup, family2_source_params, family2_seed),
}


def pointwise_transform(spec, h, x):
    """transform from its definition: the integrand evaluated point by point."""
    sigma = seed_weight_exponent(spec.source)
    integrand = lambda s: s ** (-sigma) * h(s) * kernel_value(spec, x, s)
    return x ** (-spec.alpha1) * jackson_integral(integrand, spec.xi, spec.source.q)


class TestSteppedTransform:
    @pytest.mark.parametrize("family", ["family1", "family2"])
    @pytest.mark.parametrize("which, kernel", [("h1", "P1"), ("h2", "P2")])
    @pytest.mark.parametrize("proportional", [False, True])
    def test_matches_pointwise_integrand(self, rng, family, which, kernel, proportional):
        # proportional: the anchor moves with the point, xi = 0.6 x.
        draw, setup, source, seed_of = FAMILIES[family]
        for N in (1, 2):
            p = draw(rng, N)
            st = setup(p, N)
            E0 = st.roots[-1]
            seed = seed_of(st, which, E0)
            assert isinstance(seed, Seed)
            for x in (1.23 * abs(p.t1), 2.07 * abs(p.t1) * cmath.exp(0.3j)):
                xi = 0.6 * x if proportional else 0.9 * abs(p.t1)
                spec = TransformSpec(source=source(st), mu0=0.0, xi=xi, kernel=kernel, alpha1=p.alpha1)
                want = pointwise_transform(spec, seed, x)
                assert abs(transform(spec, seed, E0, x) - want) <= 1e-11 * abs(want)
                # An opaque callable is evaluated per point, the kernel stepped.
                opaque = transform(spec, lambda s: seed(s), E0, x)
                assert abs(opaque - want) <= 1e-11 * abs(want)
                # A record on another base is not stepped with the kernel.
                other = replace(seed, q=0.97 * seed.q)
                want = pointwise_transform(spec, other, x)
                assert abs(transform(spec, other, E0, x) - want) <= 1e-11 * abs(want)

    def test_seed_record_fields(self, rng):
        p = random_family2_params(rng, 2)
        st = family2_setup(p, 2)
        E0 = st.roots[0]
        h1, h2 = family2_seed(st, "h1", E0), family2_seed(st, "h2", E0)
        assert h1.coeffs == h2.coeffs == coeff_values(st.root_coeffs, E0)
        assert len(h1.num) == len(h1.den) == 2 and not h1.inv_num and not h1.inv_den
        assert len(h2.inv_num) == len(h2.inv_den) == 2 and not h2.num and not h2.den
        assert h2.exponent == pytest.approx(-family2_source_params(st).alpha2 - 2)


class TestBoundaryData:
    def test_family1_limits_vanish(self, rng):
        p = random_family1_params(rng, 1)
        st = family1_setup(p, 1)
        E0 = st.roots[0]
        src = family1_source_params(st)
        assert src.beta < 0  # the sufficient condition for the inward limit
        assert src.alpha1 < src.alpha2  # and for the outward one
        spec = TransformSpec(source=src, mu0=0.0, xi=0.8 * abs(p.t1), alpha1=p.alpha1)
        c1, c2 = boundary_limits(spec, family1_seed(st, "h1", E0))
        assert c1 == 0
        assert c2 == 0

    def test_family2_inward_limit_is_one(self, rng):
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        src = family2_source_params(st)
        spec = TransformSpec(source=src, mu0=0.0, xi=0.8 * abs(p.t1), alpha1=p.alpha1)
        c1, c2 = boundary_limits(spec, family2_seed(st, "h1", E0))
        assert c1 == pytest.approx(1.0, abs=1e-10)
        assert c2 == 0

    def test_family2_theta_ratio_limit(self, rng):
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        src = family2_source_params(st)
        xi = 0.8 * abs(p.t1)
        spec = TransformSpec(source=src, mu0=0.0, xi=xi, kernel="P2", alpha1=p.alpha1)
        c1, c2 = boundary_limits(spec, family2_seed(st, "h2", E0))
        q, chi = p.q, source_chi(src)
        want = xi ** (-p.h1 - p.h2 + p.l1 + p.l2 + 2 * chi) * (
            theta(q ** (p.h1 - chi + 0.5) * p.t1 / xi, q)
            * theta(q ** (p.h2 - chi + 0.5) * p.t2 / xi, q)
            / (
                theta(q ** (p.l1 + 0.5) * p.t1 / xi, q)
                * theta(q ** (p.l2 + 0.5) * p.t2 / xi, q)
            )
        )
        assert abs(c1 - want) < 1e-9 * abs(want)
        assert c2 == 0

    @staticmethod
    def assert_g2_limits(p, N, xi):
        """At every root the P2 seed's limits give the explicit g2 inhomogeneity."""
        st = family2_setup(p, N)
        spec = TransformSpec(source=family2_source_params(st), mu0=0.0, xi=xi, kernel="P2", alpha1=p.alpha1)
        x = xi * p.q**-1.37
        for E0 in st.roots:
            C1, C2 = boundary_limits(spec, family2_seed(st, "h2", E0))
            k1, k2 = boundary_terms(spec, C1, C2, x)
            want = g2_inhomogeneity(st, xi, x)
            assert abs((1 - p.q) * (k2 - k1) - want) <= 1e-8 * abs(want)

    def test_family2_limits_past_the_old_overflow(self):
        # A draw on which the pointwise limit walk ran on, jittering near
        # 1e-13, until s**exponent overflowed; stepped, both roots' limits
        # settle and reproduce the explicit g2 inhomogeneity.
        p = QHeunParams(
            h1=1.5473530004167375, h2=1.5507670025605893,
            l1=-0.7935263419142183, l2=0.40223246490960585,
            alpha1=1.3163654396576951, alpha2=0.13756200439114852, beta=2.0,
            t1=-0.5920997064142569 - 0.7801890279788551j,
            t2=0.5761408482219612 + 0.5132088646410496j,
            q=0.35864324430709676,
        )
        self.assert_g2_limits(p, 1, 0.8830787325222794)

    def test_family2_limit_settles_below_rounding_drift(self):
        # Asked to settle to REL_TOL = 1e-15, the inward walk of this draw's
        # second root never did: its values drift by ~1.5e-15 per step
        # from rounding, and the walk ran on to s ~ 3e-309, where 1/s overflows.
        p = QHeunParams(
            h1=2.513061754284353, h2=3.8240164689288347,
            l1=0.10988975727447015, l2=-0.11778762416727906,
            alpha1=1.258476052875353, alpha2=0.3944066412998506, beta=5.0,
            t1=0.6252626300539108 - 0.2607749030787815j,
            t2=0.5243178365710499 - 0.639071281415125j,
            q=0.3801598243473255,
        )
        self.assert_g2_limits(p, 4, 0.5775731054601115)

    def test_overflow_is_a_typed_no_limit(self, rng):
        src = random_generic_params(rng)
        spec = TransformSpec(source=src, mu0=0.0, xi=0.9, alpha1=0.3)
        with pytest.raises(NoLimit, match=r"overflows at k = \d+, s = "):
            boundary_limits(spec, lambda s: complex(s) ** 400)
        with pytest.raises(NoLimit, match=r"not finite at k = \d+, s = "):
            boundary_limits(spec, lambda s: complex("nan"))

    def test_zero_limits_give_zero_terms(self, rng):
        src = random_generic_params(rng)
        for kernel in ("P1", "P2"):
            spec = TransformSpec(source=src, mu0=0.1, xi=0.9, kernel=kernel, alpha1=0.3)
            assert boundary_terms(spec, 0.0, 0.0, 1.2 + 0.1j) == (0, 0)

    def test_vanishing_factors(self, rng):
        src = replace(random_generic_params(rng), beta=0.0)
        spec = TransformSpec(source=src, mu0=0.1, xi=0.9, alpha1=0.3)
        k1, _ = boundary_terms(spec, 2.0, 3.0, 1.2 + 0.1j)
        assert k1 == 0
        src2 = random_generic_params(rng)
        src2 = replace(src2, alpha2=src2.alpha1)
        spec2 = TransformSpec(source=src2, mu0=0.1, xi=0.9, alpha1=0.3)
        _, k2 = boundary_terms(spec2, 2.0, 3.0, 1.2 + 0.1j)
        assert k2 == 0

    def test_nonhomogeneous_transform_identity(self, rng):
        # A seed with a surviving inward limit: the transformed function
        # satisfies the target equation up to (1-q)(k2 - k1).
        p = random_family2_params(rng, 1)
        st = family2_setup(p, 1)
        E0 = st.roots[0]
        src = family2_source_params(st)
        xi = 0.8 * abs(p.t1)
        seed = family2_seed(st, "h1", E0)
        spec = TransformSpec(source=src, mu0=0.0, xi=xi, kernel="P1", alpha1=p.alpha1)
        res = param_map(spec, E0)
        C1, C2 = boundary_limits(spec, seed)
        assert C1 == pytest.approx(1.0, abs=1e-10)
        g = lambda x: family2_bilateral(st, "g1", E0, xi, x)

        def inhom(x):
            k1, k2 = boundary_terms(spec, C1, C2, x)
            return (1 - p.q) * (k2 - k1)

        pts = grid_points(
            p.q, family2_pole_spirals(st) + [xi], 5, 0.6 * abs(p.t1), 2.0 * abs(p.t1),
            seed=3, min_rel_dist=1e-3,
        )
        rep = residual_report(p, res.E_target, g, pts, inhomogeneity=inhom)
        assert rep.max_residual < 1e-8


def swapped_params(p, index):
    """The system solved by gauge seeds: h_i and l_i interchanged."""
    if index == 1:
        return replace(p, h1=p.l1, l1=p.h1)
    return replace(p, h2=p.l2, l2=p.h2)


def gauge_transform(p, f, which, index):
    """Prefactor map from solutions f of swapped_params(p, index) to
    solutions of p; the two variants differ by a quasi-constant factor."""
    q = p.q
    t, h, l = (p.t1, p.h1, p.l1) if index == 1 else (p.t2, p.h2, p.l2)
    if which == "g1":
        return lambda x: q_pochhammer_ratio([q ** (h + 0.5) * t / x], [q ** (l + 0.5) * t / x], q) * f(x)
    return lambda x: x ** (h - l) * q_pochhammer_ratio([x / (q ** (l - 0.5) * t)], [x / (q ** (h - 0.5) * t)], q) * f(x)


class TestGauge:
    def test_identity_when_exponents_match(self, rng):
        p = random_generic_params(rng)
        p = replace(p, l1=p.h1)
        f = lambda x: x**2 + 1.0
        for which in ("g1", "g2"):
            g = gauge_transform(p, f, which, index=1)
            x = 1.1 + 0.4j
            assert g(x) == pytest.approx(f(x))

    @pytest.mark.parametrize("index", [1, 2])
    def test_polynomial_seed_maps_to_solution(self, rng, index):
        N = 2
        ps = random_admissible_params(rng, N)
        p = swapped_params(ps, index=index)
        E0 = poly_roots(accessory_poly(ps, N))[0]
        f = polynomial_solution(ps, E0, N)
        pts = grid_points(
            p.q, singular_spirals(p) + singular_spirals(ps), 8,
            0.3 * abs(p.t1), 3.0 * abs(p.t1), seed=4, min_rel_dist=1e-4,
        )
        for which in ("g1", "g2"):
            g = gauge_transform(p, f, which, index=index)
            rep = residual_report(p, E0, g, pts)
            assert rep.max_residual < 1e-9

    def test_variant_ratio_is_q_periodic(self, rng):
        # The power prefactor of the second variant exactly cancels the
        # quasi-periodicity multiplier, so the ratio is q-periodic.
        ps = random_admissible_params(rng, 1)
        p = swapped_params(ps, index=1)
        E0 = poly_roots(accessory_poly(ps, 1))[0]
        f = polynomial_solution(ps, E0, 1)
        g1 = gauge_transform(p, f, "g1", 1)
        g2 = gauge_transform(p, f, "g2", 1)
        for x in (1.2 * abs(p.t1) * cmath.exp(0.5j), 0.8 * abs(p.t1) * cmath.exp(-1.1j)):
            ratio = (g1(p.q * x) / g2(p.q * x)) / (g1(x) / g2(x))
            assert ratio == pytest.approx(1.0)

    def test_pole_on_denominator_spiral(self, rng):
        p = random_generic_params(rng)
        g = gauge_transform(p, lambda x: 1.0, "g1", index=1)
        x_pole = p.q ** (p.l1 + 0.5) * p.t1  # lattice zero of the denominator
        with pytest.raises(PoleError):
            g(x_pole)
