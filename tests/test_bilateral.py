"""The spiral-stepping primitive: stepped values against direct products,
and where its walks stop."""

import math

import numpy as np
import pytest

from qheun import _bilateral, qtransform
from qheun._bilateral import PowerWalk, SpiralTerms, weighted_bilateral
from qheun.errors import ConvergenceError, PoleError
from qheun.family_one import family1_seed, family1_source_params
from qheun.family_two import family2_seed, family2_source_params
from qheun.forms import FAMILIES
from qheun.qcore import DIVERGENCE_WINDOW, REL_TOL, _one_sided_sum, bilateral_sum, q_pochhammer, q_pochhammer_ratio
from qheun.qtransform import TransformSpec, transform
from qheun.sampling import random_family1_params, random_family2_params


def direct(num, den, inv_num, inv_den, q, s):
    """The product V(s) of SpiralTerms, formed from scratch at s."""
    return q_pochhammer_ratio(
        [c * s for c in num] + [c / s for c in inv_num],
        [d * s for d in den] + [d / s for d in inv_den],
        q,
    )


def lone(num, den, weights, rates, q, xi=1.0, inv_num=(), inv_den=()):
    """(SpiralTerms, term, bound) of the one weight row weights on a walk of its own."""
    terms = SpiralTerms(num, den, PowerWalk(rates, [weights]), q, xi, inv_num, inv_den)
    return terms, *terms.row(0)


def stepped(num, den, inv_num, inv_den, q, xi):
    """(SpiralTerms, term) of V(s) alone."""
    terms, term, _ = lone(num, den, [1.0], [1.0], q, xi, inv_num, inv_den)
    return terms, term


def one_row(num, den, row, rates, q):
    """weighted_bilateral of the one weight row row, on a walk of its own."""
    return weighted_bilateral(num, den, PowerWalk(rates, [row]), [0], q)


def recorded_walk(monkeypatch, *args):
    """one_row(*args), and the last index its walk reached on the side
    n >= 0 and on the side n <= -1."""
    walks = []

    class Recorded(SpiralTerms):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            walks.append(self)

    with monkeypatch.context() as m:
        m.setattr(_bilateral, "SpiralTerms", Recorded)
        got = one_row(*args)
    (walk,) = walks
    return got, len(walk.sides[1]) - 1, 1 - len(walk.sides[0])


def first_negligible(terms, start, step):
    """The first index of a side whose term is below REL_TOL times the partial sum."""
    total, n = 0j, start
    while True:
        t = terms(n)
        total += t
        if abs(t) <= REL_TOL * abs(total):
            return n
        n += step


DRAWS = {"family1": random_family1_params, "family2": random_family2_params}


def family_walk(monkeypatch, family, N, name):
    """(num, den, rows, rates, q) of the walk form name makes at the first
    root of a seeded draw, from its weighted_bilateral arguments."""
    st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(100 + N), N), N)
    xi = 0.8 * abs(st.params.t1) + 0j
    form = FAMILIES[family].form(name)
    calls = []
    with monkeypatch.context() as m:
        m.setattr(_bilateral, "weighted_bilateral", lambda *a: calls.append(a) or weighted_bilateral(*a))
        form.solution(st, st.roots[0], xi)(form.grid(st, xi, 1, seed=N)[0])
    ((num, den, walk, _, q),) = calls
    return num, den, walk.rows, walk.rates, q


def direct_or_pole(factors, q, s):
    try:
        return direct(*factors, q, s)
    except PoleError:
        return PoleError


def stepped_or_pole(term, n):
    try:
        return term(n)
    except PoleError:
        return PoleError


# Complex factors keep every step factor away from zero.
GENERIC = ([0.7 + 0.5j, 1.3 - 0.4j], [0.4 - 0.6j, 0.9 + 0.3j], [0.6 + 0.6j], [1.1 - 0.5j])
GENERIC_XI = 0.9 + 0.2j


class TestSpiralTerms:
    def test_matches_direct_products_both_ways(self):
        terms, term = stepped(*GENERIC, 0.5, GENERIC_XI)
        for n in list(range(0, 501, 7)) + list(range(0, -501, -7)) + [500, -500]:
            want = direct(*GENERIC, 0.5, terms.point(n))
            assert abs(term(n) - want) <= 1e-13 * abs(want), n

    def test_matches_high_precision_products_near_q_one(self):
        # 500 steps at q = 0.8 against mpmath at 40 digits, a reference
        # that shares no code with the stepped or the direct products.
        mp = pytest.importorskip("mpmath")
        q = 0.8
        num, den, inv_num, inv_den = GENERIC
        terms, term = stepped(*GENERIC, q, GENERIC_XI)
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
                assert abs(term(n) - want) <= 1e-13 * abs(want), n

    def test_point_follows_the_spiral(self):
        q, xi = 0.6, 0.7 - 0.3j
        terms, _ = stepped([], [], [], [], q, xi)
        for n in (0, 5, 40, -3, -40):
            assert terms.point(n) == pytest.approx(q**n * xi, rel=1e-13)

    def test_weighted_powers(self):
        q, xi = 0.55, 1.2
        weights, rates = [2.0, -0.5j], [q**0.3, q**1.7]
        terms, term, _ = lone([0.4j], [0.3], weights, rates, q, xi)
        for n in (0, 9, -9, 60, -60):
            want = direct([0.4j], [0.3], [], [], q, terms.point(n)) * sum(
                w * r**n for w, r in zip(weights, rates)
            )
            assert abs(term(n) - want) <= 1e-13 * abs(want)

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
        _, term = stepped(*factors, q, 1.0)
        for n in range(-20, 21):
            got, want = term(n), direct(*factors, q, 0.5**n)
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
        terms, term = stepped(*factors, q, xi)
        # Up to n = 7 the value carries the ill-conditioned factor itself.
        for n in range(8, 40):
            want = direct(*factors, q, terms.point(n))
            assert abs(term(n) - want) <= 1e-13 * abs(want), n

    @pytest.mark.parametrize(
        "factors",
        [
            ([0.3j], [0.125], [], []),  # (s/8; q)_inf: poles for n <= -3
            ([], [], [0.7], [0.125]),  # (1/(8 s); q)_inf: poles for n >= 3
        ],
    )
    def test_pole_at_the_direct_products_index(self, factors):
        q = 0.5
        _, term = stepped(*factors, q, 1.0)
        for sign in (1, -1):
            for k in range(12):
                n = sign * k
                expect = direct_or_pole(factors, q, 0.5**n)
                got = stepped_or_pole(term, n)
                if expect is PoleError or got is PoleError:
                    assert expect is got is PoleError, n
                    break
                assert abs(got - expect) <= 1e-13 * abs(expect)

    def test_revisiting_an_index_reads_its_entry(self):
        q, xi = 0.6, 0.9
        terms, term, _ = lone([0.5j], [0.7], [1.0], [q**0.5], q, xi)
        first = [term(n) for n in range(20)]
        assert [term(n) for n in (3, 11, 19)] == [first[3], first[11], first[19]]
        assert len(terms.sides[1]) == 20  # no index stepped twice

    def test_walks_sharing_a_power_walk_match_lone_walks(self):
        # Rates whose powers leave [1e-150, 1e150] within the walk, so
        # the shared entries carry rescale steps too.
        q, xi = 0.6, 0.9 - 0.2j
        weights, rates = [1.0, 0.5j], [1e-20, 1e20]
        walk = PowerWalk(rates, [weights])
        factors = ([0.4j], [0.3], [0.05], [0.07])
        shared = [SpiralTerms(*factors[:2], walk, q, x, *factors[2:]).row(0)[0] for x in (xi, 2 * xi)]
        alone = [lone(*factors[:2], weights, rates, q, x, *factors[2:])[1] for x in (xi, 2 * xi)]
        # Out of index order, so that each memo is filled past an unread index.
        order = [7, -7, 3, 12, -12, 0, 5]
        for n in order:
            assert [t(n) for t in shared] == [t(n) for t in reversed(alone)][::-1]
        # One entry per index walked on each side, however many walks.
        assert [len(side) for side in walk.sides] == [12, 12]
        assert [len(side) for side in walk.memos[0]] == [12, 13]


class TestCoefficientRatios:
    """Stepped from xi = 1, V(q**n) is V(1) times (u; q)_n / (v; q)_n."""

    def test_ratio_coefficients(self):
        q = 0.6
        u, v = [0.3 + 0.2j, 0.7], [0.5j, 1.4 - 0.3j]
        _, term, _ = lone(v, u, [1.0], [1.0], q)
        for n in range(-12, 13):
            want = term(0) * q_pochhammer(u[0], q, n) * q_pochhammer(u[1], q, n) / (
                q_pochhammer(v[0], q, n) * q_pochhammer(v[1], q, n)
            )
            assert abs(term(n) - want) <= 1e-13 * abs(want)

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
        (got,) = one_row(num, den, weights, rates, q)
        want = self.direct_sum(num, den, weights, rates, q, range(-80, 80))
        assert got == pytest.approx(want, rel=1e-13)

    def test_truncating_denominator(self, monkeypatch):
        # den = q: (q^(n+1); q)_inf vanishes for n <= -1, so the sum is
        # one-sided, as at the special anchors of the bilateral forms.
        q = 0.5
        num, den = [0.3 + 0.2j], [q, 1.4 - 0.3j]
        (got,), top, bottom = recorded_walk(monkeypatch, num, den, [1.0], [0.4], q)
        want = self.direct_sum(num, den, [1.0], [0.4], q, range(80))
        assert self.direct_sum(num, den, [1.0], [0.4], q, range(-10, 0)) == 0
        assert got == pytest.approx(want, rel=1e-13)
        # The zero side certifies nothing and ends by the window.
        assert bottom == -DIVERGENCE_WINDOW
        assert top < DIVERGENCE_WINDOW

    def test_terminating_numerator_poles_at_the_anchor(self, monkeypatch):
        # (q^-3 q^n; q)_inf vanishes for n <= 3: its reciprocal poles at n = 0.
        q = 0.5
        (got,) = one_row([q**-3], [0.25j], [1.0], [0.3], q)
        assert isinstance(got, PoleError)
        # As a numerator it zeroes the terms n <= 3: the side n >= 0
        # starts with four exact zeros and must not stop on them.
        (got,), top, _ = recorded_walk(monkeypatch, [0.25j], [q**-3], [1.0], [0.3], q)
        want = self.direct_sum([0.25j], [q**-3], [1.0], [0.3], q, range(4, 80))
        assert self.direct_sum([0.25j], [q**-3], [1.0], [0.3], q, range(-10, 4)) == 0
        assert got == pytest.approx(want, rel=1e-13)
        assert 4 < top < DIVERGENCE_WINDOW


class TestTailBound:
    def test_sides_stop_within_three_terms_of_their_first_negligible_one(self, monkeypatch):
        # The window alone would run 49 negligible terms past it.
        num, den, rows, rates, q = family_walk(monkeypatch, "family1", 4, "g1")
        for row in rows:
            _, top, bottom = recorded_walk(monkeypatch, num, den, row, rates, q)
            _, term, _ = lone(den, num, row, rates, q)
            assert 0 <= top - first_negligible(term, 0, 1) <= 3
            assert 0 <= first_negligible(term, -1, -1) - bottom <= 3

    def test_a_walk_past_the_spiral_underflow_certifies(self):
        # The rate 0.995 needs ~5900 terms; q**n underflows to 0 near n = 1075.
        terms, term, bound = lone([], [], [1.0], [0.995], 0.5)
        total = _one_sided_sum(term, bound, 0, 1)
        assert terms.point(len(terms.sides[1]) - 1) == 0
        assert total == pytest.approx(1 / (1 - 0.995), rel=1e-12)

    def test_a_walk_with_inverse_factors_past_the_underflow_raises_typed(self):
        # 1/s factors are undefined once s_n underflows to 0, past n = 1074;
        # before that 1/s_n overflows to inf at n = 1024, and the term there is NaN.
        def walk():
            return lone([], [], [1.0], [0.995], 0.5, 1.0, [0.2], [0.2 * (1 + 1e-9)])

        with pytest.raises(OverflowError, match="n = 1024 is not a number"):
            _one_sided_sum(*walk()[1:], 0, 1)
        with pytest.raises(ConvergenceError, match="underflows"):
            walk()[0].point(1075)
        # At the last nonzero point the next one underflows: no bound is certified.
        assert walk()[0].tail_bound(0, 1074) == math.inf

    @staticmethod
    def exact_side(mp, terms, start, step, stop):
        """The side's sum of the walk's first row through index stop, the sum
        of |term| over it and the sum of |term| beyond stop, each stepped
        exactly from the anchor's products."""
        q, s = mp.mpf(terms.q), mp.mpc(terms.point(0))
        num, den, inv_num, inv_den = (
            [mp.mpc(c) for c in f] for f in (terms.num, terms.den, terms.inv_num, terms.inv_den)
        )
        weights, rates = [mp.mpc(w) for w in terms.walk.rows[0]], [mp.mpc(r) for r in terms.walk.rates]
        value = mp.mpc(1)
        for c in num:
            value *= mp.qp(c * s, q)
        for c in den:
            value /= mp.qp(c * s, q)
        for c in inv_num:
            value *= mp.qp(c / s, q)
        for c in inv_den:
            value /= mp.qp(c / s, q)

        def advance(value, s):
            # (c q s; q)_inf = (c s; q)_inf / (1 - c s) and its inverse.
            if step > 0:
                t = s * q
                ratio = mp.fprod(1 - d * s for d in den) / mp.fprod(1 - c * s for c in num)
                ratio *= mp.fprod(1 - c / t for c in inv_num) / mp.fprod(1 - d / t for d in inv_den)
            else:
                t = s / q
                ratio = mp.fprod(1 - c * t for c in num) / mp.fprod(1 - d * t for d in den)
                ratio *= mp.fprod(1 - d / s for d in inv_den) / mp.fprod(1 - c / s for c in inv_num)
            return value * ratio, t

        n = 0
        if start != 0:
            value, s = advance(value, s)
            n = start
        side, side_abs, beyond, quiet = mp.mpc(0), mp.mpf(0), mp.mpf(0), 0
        while quiet < 10:
            t = value * mp.fsum(w * r**n for w, r in zip(weights, rates))
            if (n - stop) * step <= 0:
                side += t
                side_abs += abs(t)
            else:
                beyond += abs(t)
                quiet = quiet + 1 if abs(t) <= mp.mpf(10) ** -30 * side_abs else 0
            value, s = advance(value, s)
            n += step
        return side, side_abs, beyond

    def check_sides(self, mp, terms, term, bound):
        """Each side of the walk's first row, summed by term and bound, stops
        by its certificate, which bounds the exact tail."""
        for start, step in ((0, 1), (-1, -1)):
            # The side as bilateral_sum sums it.
            asked = []
            total = _one_sided_sum(lambda n: asked.append(n) or term(n), bound, start, step)
            n = asked[-1]
            assert bound(n) < REL_TOL * abs(total)  # it stopped by the certificate
            with mp.workdps(50):
                side, side_abs, beyond = self.exact_side(mp, terms, start, step, n)
                assert beyond <= bound(n)
                # The omitted tail, plus the rounding of the float terms.
                assert abs(total - side) <= REL_TOL * abs(side) + 1e-14 * side_abs

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("family", ["family1", "family2"])
    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_bilateral_tails_are_below_their_bounds(self, monkeypatch, family, N, name):
        mp = pytest.importorskip("mpmath")
        num, den, rows, rates, q = family_walk(monkeypatch, family, N, name)
        terms = SpiralTerms(den, num, PowerWalk(rates, rows[:1]), q)
        self.check_sides(mp, terms, *terms.row(0))

    @pytest.mark.parametrize(
        "family, source_params, seed, which, kernel",
        [
            ("family1", family1_source_params, family1_seed, "h1", "P1"),
            ("family2", family2_source_params, family2_seed, "h2", "P2"),
        ],
        ids=["P1", "P2"],
    )
    def test_transform_tails_are_below_their_bounds(self, monkeypatch, family, source_params, seed, which, kernel):
        mp = pytest.importorskip("mpmath")
        N = 4
        st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(100 + N), N), N)
        p = st.params
        spec = TransformSpec(source=source_params(st), mu0=0.0, xi=0.9 * abs(p.t1), kernel=kernel, alpha1=p.alpha1)
        walks, sums = [], []

        class Recorded(SpiralTerms):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                walks.append(self)

        with monkeypatch.context() as m:
            m.setattr(qtransform, "SpiralTerms", Recorded)
            m.setattr(qtransform, "bilateral_sum", lambda *a: sums.append(a) or bilateral_sum(*a))
            transform(spec, seed(st, which, st.roots[0]), st.roots[0], 1.37 * abs(p.t1))
        (terms,), ((term, bound),) = walks, sums
        assert bound is not None  # the Seed is stepped, with its tail bound
        self.check_sides(mp, terms, term, bound)

    def test_a_wrapped_row_term_sums_as_the_row(self, monkeypatch):
        # A tracer hands bilateral_sum its own closure around the term: it
        # must be asked for the same indices and give the same sum.
        num, den, rows, rates, q = family_walk(monkeypatch, "family1", 4, "g1")
        plain, wrapped = (SpiralTerms(den, num, PowerWalk(rates, rows[:1]), q) for _ in range(2))
        term, bound = wrapped.row(0)
        asked = []
        assert bilateral_sum(lambda n: asked.append(n) or term(n), bound) == bilateral_sum(*plain.row(0))
        top, bottom = len(plain.walk.memos[0][1]) - 1, -len(plain.walk.memos[0][0])
        assert asked == list(range(top + 1)) + list(range(-1, bottom - 1, -1))

    def test_a_nan_term_ends_the_sum_where_it_appears(self):
        # |term| is 1e60 at n = -20 and overflows to NaN at n = -48; the
        # side stops there instead of walking MAX_TERMS indices.
        walk = PowerWalk([0.6, 0.3, 1.7], [[0.0, 2.0, 0.0]])
        with pytest.raises(OverflowError, match="n = -48 is not a number"):
            weighted_bilateral([1.3 + 0.4j], [0.5j, 0.4 - 0.3j], walk, [0], 0.5)
        assert len(walk.memos[0][0]) == 48
