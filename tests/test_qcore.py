"""Primitives: shifted factorials, theta, series, bilateral sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qheun.errors import ConvergenceError, DomainError, PoleError
from qheun.qcore import (
    DIVERGENCE_WINDOW,
    REL_TOL,
    SeriesChain,
    _one_sided_sum,
    bilateral_sum,
    jackson_integral,
    phi_series,
    q_pochhammer,
    q_pochhammer_ratio,
    theta,
)

QS = st.floats(min_value=0.25, max_value=0.8)


def complexes(lo=0.2, hi=1.8):
    return st.builds(
        lambda m, ph: m * cmath.exp(1j * ph),
        st.floats(min_value=lo, max_value=hi),
        st.floats(min_value=-3.0, max_value=3.0),
    )


def _off_lattice(v: complex, q: float, margin: float = 0.05) -> bool:
    return all(abs(v - q**-m) > margin for m in range(12))


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.3 + 0j, 0.5, 0) == 1

    def test_two_factors(self):
        assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_negative_index_branch(self):
        assert q_pochhammer(0.3, 0.5, -1) == pytest.approx(1 / (1 - 0.6))

    def test_negative_index_pole(self):
        # a = q makes (a q^-1; q)_1 vanish exactly.
        with pytest.raises(PoleError):
            q_pochhammer(0.5, 0.5, -1)
        # A factor at rounding level is a pole too, as in the product kernel.
        with pytest.raises(PoleError):
            q_pochhammer(0.5 * (1 + 1e-15), 0.5, -1)
        with pytest.raises(PoleError):
            q_pochhammer_ratio([], [0.5 * (1 + 1e-15) / 0.5], 0.5)

    @pytest.mark.parametrize("n", range(-3, 4))
    def test_infinite_product_consistency(self, n):
        a, q = 0.37 + 0.21j, 0.55
        lhs = q_pochhammer(a, q, n)
        rhs = q_pochhammer(a, q, math.inf) / q_pochhammer(a * q**n, q, math.inf)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    @settings(max_examples=40, deadline=None)
    @given(a=complexes(), q=QS, m=st.integers(-3, 3), n=st.integers(-3, 3))
    def test_index_splitting(self, a, q, m, n):
        def split(a):
            return q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)

        try:
            lhs = q_pochhammer(a, q, m + n)
        except PoleError:
            # A pole of the left side is a pole of the split too.  The split
            # rounds the vanishing factor its own way: it raises as well, or
            # divides by a factor of rounding size and dwarfs its value at a
            # point 1e-6 off the pole.
            try:
                at_pole = split(a)
            except PoleError:
                return
            assert abs(at_pole) >= 1e6 * abs(split(a * (1 + 1e-6)))
            return
        # Both sides form each factor 1 - a q^k, k in ks, with different
        # roundings, so a factor near zero costs ~eps / |1 - a q^k| of
        # relative accuracy.  Only factors at rounding level are left out.
        ks = range(min(0, m, m + n), max(0, m, m + n))
        cond = min((abs(1 - a * q**k) for k in ks), default=1.0)
        assume(cond > 1e-9)
        rhs = split(a)
        tol = max(1e-12, 1e-14 / cond)
        assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), 1e-30)

    @pytest.mark.parametrize("q", [0.5, 0.25])
    @pytest.mark.parametrize("j", range(-2, 4))
    def test_index_splitting_on_lattice(self, q, j):
        # a = q^j with dyadic q: every factor 1 - a q^k is exact, so poles
        # (j >= 1, negative index) and zeros (j <= 0) are hit exactly.
        a = q**j

        def pole(e: int, n: int) -> bool:  # does (q^e; q)_n divide by zero?
            return n < 0 and 1 <= e <= -n

        for m in range(-3, 4):
            for n in range(-3, 4):
                if pole(j, m + n):
                    # A pole of the left side is a pole of the split too.
                    with pytest.raises(PoleError):
                        q_pochhammer(a, q, m + n)
                    with pytest.raises(PoleError):
                        q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
                    continue
                lhs = q_pochhammer(a, q, m + n)
                if pole(j, m) or pole(j + m, n):
                    # The split passes through a pole (times a zero) although
                    # the left side is finite.
                    with pytest.raises(PoleError):
                        q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
                    continue
                rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)

    def test_q_out_of_range(self):
        with pytest.raises(DomainError):
            q_pochhammer(0.3, 1.2, 2)

    def test_an_overflow_is_a_domain_error(self):
        # |1 - a q**-1| overflows in the pole check.
        with pytest.raises(DomainError, match=r"^OverflowError in \(a; q\)_n at a = .*, n = -1: "):
            q_pochhammer(1.5e308 + 1.5e308j, 0.9, -1)

    def test_an_argument_out_of_the_float_range_is_named_as_given(self):
        with pytest.raises(DomainError, match=r"^OverflowError in \(a; q\)_n at a = 10{400}, n = 2: int too large"):
            q_pochhammer(10**400, 0.5, 2)


class TestQPochhammerRatio:
    def test_matches_high_precision_products_near_q_one(self):
        # Balanced pairs c s, d s with |s| up to 1e40 need ~400 levels at
        # q = 0.8; each level's arguments must not accumulate rounding.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        q = 0.8
        for _ in range(12):
            s = 10 ** rng.uniform(0, 40) * cmath.exp(1j * rng.uniform(-3, 3))
            args = [rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(-3, 3)) * s for _ in range(4)]
            got = q_pochhammer_ratio(args[:2], args[2:], q)
            with mp.workdps(40):
                qp = [mp.qp(mp.mpc(a), mp.mpf(q)) for a in args]
                want = qp[0] * qp[1] / (qp[2] * qp[3])
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_a_product_out_of_the_float_range_raises(self):
        # The factors 1 - 3e5 * 0.9**k overflow to inf long before they
        # settle, and inf * 0 then leaves a NaN product.
        with pytest.raises(OverflowError, match=r"^infinite product is not finite: \(nan\+nanj\)$"):
            q_pochhammer_ratio([3e5], [], 0.9)


def theta_factors(t: complex, q: float) -> list[complex]:
    """The arguments x of the factors 1 - x of theta(t) that can vanish,
    rounded as the product kernel rounds them."""
    xs = []
    for a in (complex(t), q / complex(t)):
        k = 0
        while abs(a * q**k) >= 1e-17:
            xs.append(a * q**k)
            k += 1
    return xs


def assert_theta_identity(lhs, rhs, sides, q, tol):
    """lhs == rhs, each side a power factor times thetas: sides lists
    (factor, theta arguments...) per side.

    Away from zeros of theta the identity holds to tol.  Near a zero a
    factor 1 - x of size c costs ~eps / c of relative accuracy, as in
    test_index_splitting.  Where a factor is exactly 0 (an argument on
    the lattice) both sides vanish, up to the rounding of the lattice
    point: eps times the largest value the products could take.
    """
    xs = [x for _, *args in sides for v in args for x in theta_factors(v, q)]
    cond = min(abs(1 - x) for x in xs)
    if cond == 0:
        bound = max(
            abs(c) * math.prod(math.prod(1 + abs(x) for x in theta_factors(v, q)) for v in args)
            for c, *args in sides
        )
        assert abs(lhs) <= 1e-14 * bound and abs(rhs) <= 1e-14 * bound
        return
    if cond < 0.01:
        tol = max(tol, 1e-14 / cond)
    assert abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs))


class TestTheta:
    def test_lattice_zero(self):
        assert theta(1.0, 0.5) == 0

    def test_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            theta(0.0, 0.5)

    def test_a_tiny_argument_overflows(self):
        # (q/t; q)_inf with q/t = 5e199 leaves the float range.
        with pytest.raises(OverflowError, match="not finite"):
            theta(1e-200, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(t=complexes(), q=QS)
    @example(t=0.99999, q=0.765625)  # theta ~ 1e-11: 1 ulp in t moves it by 1e-11
    def test_inversion_symmetry(self, t, q):
        # q/(q/t) round-trips to t only up to rounding.
        assert_theta_identity(theta(t, q), theta(q / t, q), [(1, t), (1, q / t)], q, 1e-13)

    @settings(max_examples=40, deadline=None)
    @given(t=complexes(), s=complexes(), q=QS, K=st.integers(-3, 3))
    @example(t=1.0, s=0.5 + 0.5j, q=0.5, K=0)  # theta(t) = 0
    @example(t=0.5 + 0.5j, s=1.0, q=0.5, K=1)  # theta(s) = 0
    def test_quasi_periodicity(self, t, s, q, K):
        # theta(q^K t) / theta(q^K s) = (s/t)^K theta(t) / theta(s), cross-multiplied.
        lhs = t**K * theta(q**K * t, q) * theta(s, q)
        rhs = s**K * theta(q**K * s, q) * theta(t, q)
        assert_theta_identity(lhs, rhs, [(t**K, q**K * t, s), (s**K, q**K * s, t)], q, 1e-12)


class TestPhiSeries:
    def test_zero_argument(self):
        assert phi_series([0.3, 0.7], [0.2], 0.5, 0.0) == 1

    def test_terminating_two_terms(self):
        q, b, c, z = 0.5, 0.3 + 0.1j, 0.7, 0.4 + 0.2j
        got = phi_series([q**-1, b], [c], q, z)
        want = 1 + (1 - q**-1) * (1 - b) / ((1 - q) * (1 - c)) * z
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_termination_returns_exact_partial_sum(self, m):
        q, b, c, z = 0.45, 0.8 + 0.3j, 1.3 - 0.2j, 1.2 + 0.4j  # |z| > 1 is fine when terminating
        got = phi_series([q**-m, b], [c], q, z)
        want = sum(
            q_pochhammer(q**-m, q, n)
            * q_pochhammer(b, q, n)
            / (q_pochhammer(q, q, n) * q_pochhammer(c, q, n))
            * z**n
            for n in range(m + 1)
        )
        assert got == pytest.approx(want, rel=1e-13)
        # No tail beyond the m+1 terms is summed: with |z| > 1 a
        # non-terminating series would raise instead.

    def test_nonterminating_with_large_argument(self):
        with pytest.raises(ConvergenceError):
            phi_series([0.3, 0.7], [0.2], 0.5, 1.1)

    def test_lower_parameter_pole(self):
        q = 0.5
        with pytest.raises(PoleError):
            phi_series([0.3, 0.7], [q**-2], q, 0.5)

    @pytest.mark.parametrize(
        "upper, lower",
        [([math.nan], []), ([math.inf], []), ([0.3, complex(0.7, math.nan)], [0.2]), ([0.3, 0.7], [-math.inf])],
    )
    def test_non_finite_parameter_is_a_domain_error(self, upper, lower):
        # Its termination index would round a NaN or an infinity.
        with pytest.raises(DomainError, match=r"^series parameter .* is not finite$"):
            phi_series(upper, lower, 0.5, 0.3)

    @pytest.mark.parametrize(
        "upper, lower, z",
        [
            ([0.5], [], 1.5e308 + 1.5e308j),
            ([0.1, 0.2], [1.5e308 + 1.5e308j], 0.5),
            ([1.5e308 + 1.5e308j, 0.2], [0.3], 0.0),
            ([0.1, 0.2], [1.5e308 + 1.5e308j], 2.0),
        ],
        ids=["argument", "lower", "upper-at-zero", "lower-outside-the-disc"],
    )
    def test_an_overflow_is_a_domain_error(self, upper, lower, z):
        # |z| or |b| overflows: "absolute value too large".  A chain forms
        # every parameter modulus before any sum, so that error comes
        # before the value 1 at z = 0 and the |z| >= 1 check.
        with pytest.raises(DomainError, match=r"^OverflowError in phi_series at z = .*: absolute value too large$"):
            phi_series(upper, lower, 0.5, z)

    @settings(max_examples=50, deadline=None)
    @given(
        a=complexes(),
        b=complexes(0.05, 0.75),
        c=complexes(0.3, 1.6),
        z=complexes(0.05, 0.75),
        # Above q ~ 0.7 the infinite products need enough levels that the
        # accumulated rounding crowds the 1e-12 check; the fixed-draw
        # acceptance suite covers the full q range at the same tolerance.
        q=st.floats(min_value=0.25, max_value=0.65),
    )
    @example(a=1.0, b=0.5, c=0.5 + 5e-13j, z=0.5, q=0.5)  # c/b near q**0
    def test_heine_transformation(self, a, b, c, z, q):
        # Both sides pole on the lattice {q^-m}; keep a safety margin.
        assume(all(_off_lattice(v, q) for v in (b, c, z, a * z)))
        lhs = phi_series([a, b], [c], q, z)
        rhs = q_pochhammer_ratio([b, a * z], [c, z], q) * phi_series(
            [c / b, z], [a * z], q, b
        )
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_near_terminating_parameter_is_summed(self):
        # c/b = 1 + 1e-12j is q**0 only to 1e-12: the series tail beyond
        # the first term is of that size and must not be dropped.
        a, b, c, z, q = 1.0, 0.5, 0.5 + 5e-13j, 0.5, 0.5
        lhs = phi_series([a, b], [c], q, z)
        rhs = q_pochhammer_ratio([b, a * z], [c, z], q) * phi_series([c / b, z], [a * z], q, b)
        assert abs(lhs - rhs) <= 1e-15 * abs(lhs)


def _phi_draw(rng: np.random.Generator):
    """A 2phi1 or 3phi2 with parameters of modulus 0.01-30 and |z| up to 0.97."""
    def par(lo, hi):  # log-uniform modulus, uniform phase
        return 10 ** rng.uniform(math.log10(lo), math.log10(hi)) * cmath.exp(1j * rng.uniform(-3.1, 3.1))

    r = int(rng.integers(2, 4))
    ups = [par(0.01, 30) for _ in range(r)]
    los = [par(0.01, 30) for _ in range(r - 1)]
    return ups, los, float(rng.uniform(0.2, 0.9)), par(0.01, 0.97)


def _phi_terms(mp, ups, los, q, z) -> list:
    """The terms of the series, until they fall below 1e-20 of the partial
    sum (enough for the conditioning, which needs only a few digits)."""
    ups, los, q, z = [mp.mpmathify(a) for a in ups], [mp.mpmathify(b) for b in los], mp.mpf(q), mp.mpmathify(z)
    terms, t, qn, partial = [], mp.mpf(1), mp.mpf(1), mp.mpf(0)
    while len(terms) < 50 or abs(t) > 1e-20 * abs(partial):
        terms.append(t)
        partial += t
        t *= z * mp.fprod(1 - a * qn for a in ups) / ((1 - q * qn) * mp.fprod(1 - b * qn for b in los))
        qn *= q
    return terms


def _rho(ups, los, q, z, y) -> float:
    """The tail-ratio bound at y = q**(n+1); inf where a lower factor bound fails."""
    if any(abs(b) * y >= 1 for b in los):
        return math.inf
    den = (1 - q * y) * math.prod(1 - abs(b) * y for b in los)
    return abs(z) * math.prod(1 + abs(a) * y for a in ups) / den


def _assert_matches_qhyper(mp, ups, los, q, z) -> float:
    """phi_series against mpmath.qhyper at 40 digits, to 1e-14 times the
    conditioning sum |t_n| / |sum t_n|; returns the first negligible
    term's ratio bound."""
    got = phi_series(ups, los, q, z)
    with mp.workdps(40):
        want = complex(mp.qhyper(ups, los, q, z))
        terms = _phi_terms(mp, ups, los, q, z)
        total = mp.fsum(terms)
        cond = float(mp.fsum(abs(t) for t in terms) / abs(total))
        partial = mp.mpf(0)
        first = None
        for n, t in enumerate(terms):
            partial += t
            if first is None and n > 0 and abs(t) <= 1e-15 * abs(partial):
                first = n
    assert abs(got - want) <= 1e-14 * cond * abs(want)
    return _rho(ups, los, q, z, q**first)


class TestPhiSeriesOracle:
    def test_matches_qhyper_on_seeded_draws(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(515)
        rhos = [_assert_matches_qhyper(mp, *_phi_draw(rng)) for _ in range(60)]
        # Some draws have parameters large enough that the first negligible
        # term does not yet certify the tail, so the sum must go on past it.
        assert sum(rho >= 1 for rho in rhos) >= 3

    @pytest.mark.parametrize("ups, los, q", [([0.3, 0.5], [0.2], 0.5), ([0.3, 0.5, 0.1], [0.2, 0.6], 0.7)])
    def test_slowly_decaying_tail_is_summed(self, ups, los, q):
        # Every term is positive at z = 0.97, so nothing cancels, and the tail
        # beyond the first term below 1e-15 of the sum is ~30 times that term.
        mp = pytest.importorskip("mpmath")
        _assert_matches_qhyper(mp, ups, los, q, 0.97)

    def test_sum_passes_a_dip_below_the_tolerance(self):
        # 1 - a q**3 = -5e-15: the term after n = 3 collapses by that much and
        # is the first below 1e-15 of the sum, where the ratio bound is 1.33.
        mp = pytest.importorskip("mpmath")
        q = z = 0.5
        a = q**-3 * (1 + 5e-15)
        rho = _assert_matches_qhyper(mp, [a, 10.0], [0.9j], q, z)
        assert rho >= 1

    @pytest.mark.parametrize("z", [1.0, -1.0, 1j, 0.6 + 0.8j])
    def test_argument_on_the_unit_circle_diverges(self, z):
        with pytest.raises(ConvergenceError):
            phi_series([0.3, 0.7j], [0.2], 0.5, z)

    def test_growing_at_the_term_budget_diverges(self):
        # Terms grow while |a| q**n > 1 until they overflow, and the first
        # term that is not finite ends the sum.
        with pytest.raises(DomainError, match=r"^OverflowError in phi_series at z = 0.5: series term at n = \d+ is not finite"):
            phi_series([1e6, 1e6], [0.5], 0.9, 0.5)

    def test_a_term_out_of_the_float_range_stops_the_sum(self):
        # The term ratio tends to 5 z, and its product z (1 - 1e300 q**n) ...
        # overflows long before the series could settle at n ~ 1000.
        chain = SeriesChain([0.5, 1e300], [2e299], 0.5)
        with pytest.raises(OverflowError, match=r"^series term at n = \d+ is not finite"):
            chain.sum(0.9)
        assert len(chain.dens) < 100

    def test_tail_not_certified_within_the_term_budget(self):
        # At |z| = 0.9995 the terms fall by at most that ratio, so no stop
        # within the default 10000 terms can bound the tail.
        with pytest.raises(ConvergenceError):
            phi_series([0.3, 0.7], [0.2], 0.5, 0.9995)


class TestBilateralSum:
    def test_one_sided_geometric(self):
        q = 0.5
        got = bilateral_sum(lambda n: q**n if n >= 0 else 0.0, None)
        assert got == pytest.approx(1 / (1 - q))

    def test_gaussian_decay_matches_direct_sum(self):
        q = 0.5
        got = bilateral_sum(lambda n: q ** (n * n), None)
        want = math.fsum(q ** (n * n) for n in range(-200, 201))
        assert got == pytest.approx(want, rel=1e-14)

    def test_constant_terms_diverge(self):
        with pytest.raises(ConvergenceError):
            bilateral_sum(lambda n: 1.0, None)

    def test_a_callable_without_a_tail_bound_stops_by_the_window(self):
        # Each side ends 49 terms after its first negligible one.
        q = 0.5
        calls = []
        bilateral_sum(lambda n: calls.append(n) or q ** abs(n), None)

        def first_negligible(side):
            total = 0.0
            for n in side:
                total += q ** abs(n)
                if q ** abs(n) <= REL_TOL * total:
                    return n

        window = DIVERGENCE_WINDOW
        plus, minus = first_negligible(range(200)), first_negligible(range(-1, -200, -1))
        assert calls == list(range(plus + window)) + list(range(-1, minus - window, -1))


def scripted_side(terms, bound=None):
    """_one_sided_sum over terms[n], n = 0, 1, ...: (its total, the indices it read)."""
    read = []
    total = _one_sided_sum(lambda n: read.append(n) or terms[n], bound, 0, 1)
    return total, read


class TestTailSum:
    """The stop rule of one side of a two-sided sum, on scripted terms."""

    def test_bound_is_asked_once_a_term_is_negligible(self):
        asked = []
        total, read = scripted_side([1.0, 1e-3, 1e-16, 1.0], lambda n: asked.append(n) or 0.0)
        assert read == [0, 1, 2]
        assert asked == [2]
        assert total == 1.0 + 1e-3 + 1e-16

    def test_a_bound_not_below_rel_tol_leaves_the_window(self):
        window = DIVERGENCE_WINDOW
        terms = [1.0] + [0.0] * window + [1.0]
        total, read = scripted_side(terms, lambda n: REL_TOL if n < window else math.inf)
        assert read == list(range(window + 1))
        assert total == 1.0

    def test_an_all_zero_start_never_certifies(self):
        # A zero bound is not below rel_tol times a zero total.
        window = DIVERGENCE_WINDOW
        total, read = scripted_side([0.0] * window + [1.0], lambda n: 0.0)
        assert read == list(range(window))  # ended by the window
        assert total == 0

    def test_nan_never_certifies(self):
        # A NaN term ends the sum with an error, however small the bound.
        with pytest.raises(OverflowError, match="term at n = 1 is not a number"):
            scripted_side([1.0, math.nan, 0.0, 0.0], lambda n: 0.0)
        # A NaN bound certifies nothing; the window ends the sum.
        window = DIVERGENCE_WINDOW
        total, read = scripted_side([1.0] + [1e-17] * window + [1.0], lambda n: math.nan)
        assert read == list(range(window + 1))
        assert total == 1.0  # each 1e-17 rounds away


class TestJacksonIntegral:
    def test_truncated_identity_integrand(self):
        q, xi = 0.5, 1.0
        f = lambda s: s if abs(s) <= xi else 0.0
        assert jackson_integral(f, xi, q) == pytest.approx(xi**2 / (1 + q))

    def test_constant_diverges(self):
        with pytest.raises(ConvergenceError):
            jackson_integral(lambda s: 1.0, 1.0, 0.5)

    def test_pure_power_diverges(self):
        with pytest.raises(ConvergenceError):
            jackson_integral(lambda s: s**1.3, 1.0, 0.5)

    def test_zero_anchor_rejected(self):
        with pytest.raises(DomainError):
            jackson_integral(lambda s: s, 0.0, 0.5)

    @pytest.mark.parametrize(
        "f, message",
        [
            (lambda s: cmath.exp(1 / s), "OverflowError at xi = 1.0: math range error"),
            (lambda s: math.nan, "OverflowError at xi = 1.0: term at n = 0 is not a number"),
        ],
        ids=["overflow", "nan"],
    )
    def test_an_out_of_range_term_is_a_domain_error(self, f, message):
        with pytest.raises(DomainError) as err:
            jackson_integral(f, 1.0, 0.5)
        assert str(err.value) == message

    def test_linearity(self):
        q, xi = 0.45, 0.8
        f = lambda s: s / (1 + abs(s)) ** 4
        g = lambda s: s**2 * cmath.exp(-abs(s))
        lhs = jackson_integral(lambda s: 2.0 * f(s) + 3.0j * g(s), xi, q)
        rhs = 2.0 * jackson_integral(f, xi, q) + 3.0j * jackson_integral(g, xi, q)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
