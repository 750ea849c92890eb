"""The multi-root path: every root in one pass, bit-for-bit the single-root calls."""

import numpy as np
import pytest

from qheun import accessory, forms
from qheun._bilateral import SpiralTerms, weighted_bilateral
from qheun.accessory import accessory_poly, one_root, polynomial_at_root, require_root
from qheun.errors import ConvergenceError, NotARoot, PoleError, QHeunError
from qheun.forms import FAMILIES
from qheun.qcore import bilateral_sum
from qheun.sampling import random_admissible_params, random_family1_params, random_family2_params

DRAWS = {"generic": random_admissible_params, "family1": random_family1_params, "family2": random_family2_params}


def single(fn, *args):
    """fn(*args), or the QHeunError it raises."""
    try:
        return fn(*args)
    except QHeunError as exc:
        return exc


def same(a, b) -> bool:
    """Equal values, or errors of one class, message and point."""
    if isinstance(a, QHeunError) or isinstance(b, QHeunError):
        return (
            type(a) is type(b)
            and str(a) == str(b)
            and getattr(a, "point", None) == getattr(b, "point", None)
        )
    return a == b


def setup_and_anchor(family: str, N: int):
    st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(100 + N), N), N)
    return st, 0.8 * abs(st.params.t1) + 0j


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("family", ["generic", "family1", "family2"])
def test_every_form_matches_single_root_calls(family, N, monkeypatch):
    st, xi = setup_and_anchor(family, N)
    # A point off every root shows the per-root NotARoot beside good values.
    E0s = list(st.roots) + [st.roots[0] + 0.1]
    for form in FAMILIES[family].forms:
        pts = form.grid(st, xi, 3, seed=N)
        for x in pts:
            shared = form.evaluate(st, E0s, xi)(x, list(range(len(E0s))))
            assert len(shared) == len(E0s)
            for E0, value in zip(E0s, shared):
                assert same(value, single(lambda: form.solution(st, E0, xi)(x))), (form.name, E0, x)
            assert isinstance(shared[-1], NotARoot)
        # The residual reports, T(x) of g1/g2/g6..g8 included.  Each E0
        # is checked against the accessory polynomial once per pass, not
        # once per stencil point, and the poly form builds each root's
        # polynomial once, the failing off-root build included.
        builds, checks = [], []
        with monkeypatch.context() as m:
            m.setattr(forms, "polynomial_at_root", lambda p, c, E0, N: builds.append(E0) or polynomial_at_root(p, c, E0, N))
            m.setattr(accessory, "require_root", lambda poly, E0: checks.append(E0) or require_root(poly, E0))
            reports = form.root_residuals(st, E0s, xi, pts)
        assert builds == (E0s if family == "generic" else [])
        assert checks == E0s, form.name
        for E0, rep in zip(E0s, reports):
            assert same(rep, single(lambda: one_root(form.root_residuals(st, [E0], xi, pts)))), (form.name, E0)
        assert all(not isinstance(rep, QHeunError) for rep in reports[:-1]), form.name


def test_generic_pass_builds_the_accessory_polynomial_once(monkeypatch):
    # The setup builds it, and every root of the pass is checked against
    # that build, not against one of its own.
    calls = []
    counted = lambda p, N: calls.append(N) or accessory_poly(p, N)
    monkeypatch.setattr(accessory, "accessory_poly", counted)
    monkeypatch.setattr(forms, "accessory_poly", counted)
    family = FAMILIES["generic"]
    st = family.setup(random_admissible_params(np.random.default_rng(106), 6), 6)
    form = family.form("poly")
    reports = form.root_residuals(st, st.roots, None, form.grid(st, None, 4, seed=6))
    assert len(st.roots) == 7 and calls == [6]
    assert all(not isinstance(rep, QHeunError) for rep in reports)


def test_errors_reach_only_the_roots_that_meet_them():
    # Outside g3's domain every root fails at the first point, with the
    # same message and point as its own call; inside it all succeed.
    st, xi = setup_and_anchor("family1", 4)
    form = FAMILIES["family1"].form("g3")
    lo, hi = form.band(st)
    pts = [0.5 * (lo + hi) + 0j, 10.0 * hi + 0j]
    reports = form.root_residuals(st, st.roots, xi, pts)
    for E0, rep in zip(st.roots, reports):
        assert isinstance(rep, ConvergenceError) and rep.point == pts[1]
        assert same(rep, single(lambda: one_root(form.root_residuals(st, [E0], xi, pts))))


class TestSharedWalk:
    q = 0.5
    # Terms decay like r**n upward and like (0.17 / r)**|n| downward.
    num, den = [1.3 + 0.4j, 0.9 - 0.6j], [0.5j, 0.4 - 0.3j]
    rates = [0.6, 0.6 * q, 1.7]

    @staticmethod
    def alone(num, den, row, rates, q):
        """The row summed by itself, through the generic two-sided driver."""
        return single(lambda: bilateral_sum(SpiralTerms(den, num, row, rates, q)))

    def test_one_row_diverges_and_the_others_finish(self):
        # The rate 1.7 grows upward, so only the row that weights it fails.
        rows = [[1.0, 0.5 - 0.25j, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1e-3], [0.3j, 1.0, 0.0]]
        got = weighted_bilateral(self.num, self.den, rows, self.rates, self.q)
        for row, value in zip(rows, got):
            assert same(value, self.alone(self.num, self.den, row, self.rates, self.q))
        assert isinstance(got[2], ConvergenceError)
        assert all(isinstance(v, complex) for v in got[:2] + got[3:])

    def test_a_pole_at_the_anchor_reaches_every_row(self):
        # (q^-3 q^n; q)_inf vanishes for n <= 3: its reciprocal poles at n = 0.
        rows = [[1.0], [2.0]]
        got = weighted_bilateral([self.q**-3], [0.25j], rows, [0.3], self.q)
        assert all(isinstance(v, PoleError) for v in got)
        for row, value in zip(rows, got):
            assert same(value, self.alone([self.q**-3], [0.25j], row, [0.3], self.q))
