"""The spiral-stepping primitive: stepped values against direct products."""

import pytest

from qheun._bilateral import SpiralTerms, weighted_bilateral
from qheun.errors import PoleError
from qheun.qcore import q_pochhammer, q_pochhammer_ratio


def direct(num, den, inv_num, inv_den, q, s):
    """The product V(s) of SpiralTerms, formed from scratch at s."""
    return q_pochhammer_ratio(
        [c * s for c in num] + [c / s for c in inv_num],
        [d * s for d in den] + [d / s for d in inv_den],
        q,
    )


def stepped(num, den, inv_num, inv_den, q, xi):
    return SpiralTerms(num, den, [1.0], [1.0], q, xi, inv_num, inv_den)


def direct_or_pole(factors, q, s):
    try:
        return direct(*factors, q, s)
    except PoleError:
        return PoleError


def stepped_or_pole(terms, n):
    try:
        return terms(n)
    except PoleError:
        return PoleError


# Complex factors keep every step factor away from zero.
GENERIC = ([0.7 + 0.5j, 1.3 - 0.4j], [0.4 - 0.6j, 0.9 + 0.3j], [0.6 + 0.6j], [1.1 - 0.5j])
GENERIC_XI = 0.9 + 0.2j


class TestSpiralTerms:
    def test_matches_direct_products_both_ways(self):
        terms = stepped(*GENERIC, 0.5, GENERIC_XI)
        for n in list(range(0, 501, 7)) + list(range(0, -501, -7)) + [500, -500]:
            want = direct(*GENERIC, 0.5, terms.point(n))
            assert abs(terms(n) - want) <= 1e-13 * abs(want), n

    def test_matches_high_precision_products_near_q_one(self):
        # 500 steps at q = 0.8 against mpmath at 40 digits, a reference
        # that shares no code with the stepped or the direct products.
        mp = pytest.importorskip("mpmath")
        q = 0.8
        num, den, inv_num, inv_den = GENERIC
        terms = stepped(*GENERIC, q, GENERIC_XI)
        with mp.workdps(40):
            qq = mp.mpf(q)
            for n in (1, 50, 137, 300, 500, -1, -50, -137, -300, -500):
                s = mp.mpc(terms.point(n))
                want = mp.mpc(1)
                for c in num:
                    want *= mp.qp(mp.mpc(c) * s, qq)
                for c in den:
                    want /= mp.qp(mp.mpc(c) * s, qq)
                for c in inv_num:
                    want *= mp.qp(mp.mpc(c) / s, qq)
                for c in inv_den:
                    want /= mp.qp(mp.mpc(c) / s, qq)
                assert abs(terms(n) - want) <= 1e-13 * abs(want), n

    def test_point_follows_the_spiral(self):
        q, xi = 0.6, 0.7 - 0.3j
        terms = SpiralTerms([], [], [1.0], [1.0], q, xi)
        for n in (0, 5, 40, -3, -40):
            assert terms.point(n) == pytest.approx(q**n * xi, rel=1e-13)

    def test_weighted_powers(self):
        q, xi = 0.55, 1.2
        weights, rates = [2.0, -0.5j], [q**0.3, q**1.7]
        terms = SpiralTerms([0.4j], [0.3], weights, rates, q, xi)
        for n in (0, 9, -9, 60, -60):
            want = direct([0.4j], [0.3], [], [], q, terms.point(n)) * sum(
                w * r**n for w, r in zip(weights, rates)
            )
            assert abs(terms(n) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "factors, nonzero",
        [
            # (32 s; q)_inf vanishes for n <= 5, (s^-1 / 1024; q)_inf for n >= 10.
            (([32.0, 0.3 + 0.4j], [0.2 - 0.5j], [2.0**-10], [0.6j]), range(6, 10)),
            # (16 / s; q)_inf vanishes for n >= -4, (s / 1024; q)_inf for n <= -10.
            (([2.0**-10, 0.3 + 0.4j], [0.2 - 0.5j], [16.0], [0.6j]), range(-9, -4)),
        ],
    )
    def test_exact_zero_crossings(self, factors, nonzero):
        # With q = 1/2 and xi = 1 every product is exact.  The anchor is
        # zero; stepping out of the zero region would divide 0 by 0, and
        # stepping into the next one multiplies by an exact 0.
        q = 0.5
        terms = stepped(*factors, q, 1.0)
        for n in range(-20, 21):
            got, want = terms(n), direct(*factors, q, 0.5**n)
            if n in nonzero:
                assert want != 0
                assert abs(got - want) <= 1e-13 * abs(want), n
            else:
                assert got == 0 and want == 0, n

    def test_near_zero_crossing_keeps_digits(self):
        # c s_n passes within 1e-9 of 1: stepping would cancel ~9 digits.
        q, xi = 0.45, 0.8
        c = (1.0 + 1e-9) / (q**7 * xi)
        factors = ([c, 0.5 - 0.5j], [0.3 + 0.7j, 0.2], [], [])
        terms = stepped(*factors, q, xi)
        # Up to n = 7 the value carries the ill-conditioned factor itself.
        for n in range(8, 40):
            want = direct(*factors, q, terms.point(n))
            assert abs(terms(n) - want) <= 1e-13 * abs(want), n

    @pytest.mark.parametrize(
        "factors",
        [
            ([0.3j], [0.125], [], []),  # (s/8; q)_inf: poles for n <= -3
            ([], [], [0.7], [0.125]),  # (1/(8 s); q)_inf: poles for n >= 3
        ],
    )
    def test_pole_at_the_direct_products_index(self, factors):
        q = 0.5
        terms = stepped(*factors, q, 1.0)
        for sign in (1, -1):
            for k in range(12):
                n = sign * k
                expect = direct_or_pole(factors, q, 0.5**n)
                got = stepped_or_pole(terms, n)
                if expect is PoleError or got is PoleError:
                    assert expect is got is PoleError, n
                    break
                assert abs(got - expect) <= 1e-13 * abs(expect)

    def test_revisiting_an_index_restarts_from_the_anchor(self):
        q, xi = 0.6, 0.9
        terms = SpiralTerms([0.5j], [0.7], [1.0], [q**0.5], q, xi)
        first = [terms(n) for n in range(20)]
        assert [terms(n) for n in (3, 11, 19)] == [first[3], first[11], first[19]]


class TestCoefficientRatios:
    """Stepped from xi = 1, V(q**n) is V(1) times (u; q)_n / (v; q)_n."""

    def test_ratio_coefficients(self):
        q = 0.6
        u, v = [0.3 + 0.2j, 0.7], [0.5j, 1.4 - 0.3j]
        terms = SpiralTerms(v, u, [1.0], [1.0], q)
        for n in range(-12, 13):
            want = terms(0) * q_pochhammer(u[0], q, n) * q_pochhammer(u[1], q, n) / (
                q_pochhammer(v[0], q, n) * q_pochhammer(v[1], q, n)
            )
            assert abs(terms(n) - want) <= 1e-13 * abs(want)

    @staticmethod
    def direct_sum(num, den, weights, rates, q, ns):
        return sum(
            q_pochhammer_ratio([d * q**n for d in den], [c * q**n for c in num], q)
            * sum(w * r**n for w, r in zip(weights, rates))
            for n in ns
        )

    def test_weighted_bilateral_matches_direct_products(self):
        q = 0.5
        # Terms decay like r**n upward and like (0.17 / r)**|n| downward.
        num, den = [1.3 + 0.4j, 0.9 - 0.6j], [0.5j, 0.4 - 0.3j]
        weights, rates = [1.0, 0.5 - 0.25j], [0.6, 0.6 * q]
        (got,) = weighted_bilateral(num, den, [weights], rates, q)
        want = self.direct_sum(num, den, weights, rates, q, range(-80, 80))
        assert got == pytest.approx(want, rel=1e-13)

    def test_truncating_denominator(self):
        # den = q: (q^(n+1); q)_inf vanishes for n <= -1, so the sum is
        # one-sided, as at the special anchors of the bilateral forms.
        q = 0.5
        num, den = [0.3 + 0.2j], [q, 1.4 - 0.3j]
        (got,) = weighted_bilateral(num, den, [[1.0]], [0.4], q)
        want = self.direct_sum(num, den, [1.0], [0.4], q, range(80))
        assert self.direct_sum(num, den, [1.0], [0.4], q, range(-10, 0)) == 0
        assert got == pytest.approx(want, rel=1e-13)

    def test_terminating_numerator_poles_at_the_anchor(self):
        # (q^-3 q^n; q)_inf vanishes for n <= 3: its reciprocal poles at n = 0.
        q = 0.5
        (got,) = weighted_bilateral([q**-3], [0.25j], [[1.0]], [0.3], q)
        assert isinstance(got, PoleError)
