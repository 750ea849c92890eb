"""What one evaluator forms once serves every point bit for bit.

An evaluator (one Form.evaluate call) forms the point-independent work
of its form once: R_k and the series chains of family 1's finite sums,
the per-k values of both families' finite sums and the power walk of
the bilateral forms, with each root's weighted sums of its powers.
Its values may therefore not depend on which points it served before,
and an error met in that work is raised afresh at every point,
carrying its own point.
"""

from dataclasses import replace

import numpy as np
import pytest

from qheun.errors import ConvergenceHypothesisWarning, PoleError, QHeunError
from qheun.forms import FAMILIES
from qheun.sampling import random_family1_params, random_family2_params

N = 4
DRAWS = {"family1": random_family1_params, "family2": random_family2_params}


def setup_and_anchor(family: str):
    st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(21), N), N)
    return st, 0.8 * abs(st.params.t1) + 0j


def values(g, x, roots) -> list:
    """repr of each root's value at x, or of its error class and message."""
    out = []
    for v in g(x, list(range(len(roots)))):
        out.append(f"{type(v).__name__}: {v}" if isinstance(v, QHeunError) else repr(v))
    return out


@pytest.mark.parametrize(
    "family, name", [("family1", "g3"), ("family1", "g1"), ("family2", "g3"), ("family2", "g1")]
)
def test_point_order_does_not_change_a_value(family, name):
    st, xi = setup_and_anchor(family)
    form = FAMILIES[family].form(name)
    roots = list(st.roots)
    pts = [y for x in form.grid(st, xi, 4, seed=3) for y in (x / st.params.q, st.params.q * x, x)]
    forward = form.evaluate(st, roots, xi)
    in_order = [values(forward, x, roots) for x in pts]
    backward = form.evaluate(st, roots, xi)
    in_reverse = [values(backward, x, roots) for x in reversed(pts)][::-1]
    one_at_a_time = [values(form.evaluate(st, roots, xi), x, roots) for x in pts]
    assert in_order == in_reverse == one_at_a_time
    assert not any(": " in v for vs in in_order for v in vs)  # every value formed


def family_forms():
    for family in DRAWS:
        for form in FAMILIES[family].forms:
            yield pytest.param(family, form.name, id=f"{family}-{form.name}")


@pytest.mark.filterwarnings("ignore", category=ConvergenceHypothesisWarning)
@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("family, name", family_forms())
def test_one_evaluator_serves_a_stencil_as_fresh_ones_would(family, name, n):
    # The stencil of a 4-point grid, then x = 0, where every form fails,
    # and points where some forms' products or powers leave the float range.
    st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(21), n), n)
    xi = 0.8 * abs(st.params.t1) + 0j
    form = FAMILIES[family].form(name)
    # The first root once more, whose row is the same object, and no root.
    roots = list(st.roots) + [st.roots[0], st.roots[0] + 0.1]
    q = st.params.q
    pts = [y for x in form.grid(st, xi, 4, seed=3) for y in (x / q, q * x, x)] + [0j, 1e-300 + 0j, 1e300 + 0j]
    g = form.evaluate(st, roots, xi)
    shared = [values(g, x, roots) for x in pts]
    fresh = [values(form.evaluate(st, roots, xi), x, roots) for x in pts]
    assert shared == fresh
    assert all(": " not in v for vs in shared[:12] for v in vs[:-1])  # every root's value formed
    assert all(vs[-1].startswith("NotARoot: ") for vs in shared)
    assert all(v.startswith(("DomainError: ", "NotARoot: ")) for v in shared[12])


@pytest.mark.filterwarnings("ignore", category=ConvergenceHypothesisWarning)
def test_a_pole_of_a_shared_chain_is_raised_at_each_point():
    # With beta = 3 the lower parameter q**(1 - beta - k) of g3's term
    # k = 0 meets a pole at index 2 of its series, whatever x is.
    family = FAMILIES["family1"]
    p = random_family1_params(np.random.default_rng(4), N)
    st = family.setup(replace(p, beta=3.0), N)
    form = family.form("g3")
    pts = form.grid(st, None, 3, seed=0)
    g = form.evaluate(st, list(st.roots), None)
    first, second = g(pts[0], [0]), g(pts[1], [0])
    assert isinstance(first[0], PoleError) and isinstance(second[0], PoleError)
    assert first[0] is not second[0] and str(first[0]) == str(second[0])
    for rep in form.root_residuals(st, list(st.roots), None, pts[1:]):
        assert isinstance(rep, PoleError) and rep.point == pts[1]
