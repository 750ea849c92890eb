"""Property-based acceptance criteria, runnable as a suite.

Each criterion returns (passed, detail); run_one times one criterion
and run_all runs them all.  The CLI `selftest` subcommand and
tests/test_acceptance.py both drive this module, so the shipped
package can re-verify itself.  Criteria 4, 5 and 7 take their forms
and residual grids from the registry in qheun.forms.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accessory import accessory_poly, accessory_poly_expanded, coeff_gap, one_root
from .family_one import family1_bilateral, family1_seed, family1_source_params
from .family_two import (
    apparent_equivalence,
    family2_bilateral,
    family2_homogeneous,
    family2_pole_spirals,
    family2_seed,
    family2_setup,
    family2_source_params,
)
from .forms import FAMILIES
from .qcore import phi_series, q_pochhammer, q_pochhammer_ratio, theta
from .qheun_op import QHeunParams, grid_points, spiral_distance
from .qtransform import TransformSpec, boundary_limits, source_chi, transform
from .sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} ({self.seconds:.2f}s) {self.detail}"


def accessory_equivalence() -> tuple[bool, str]:
    """Recursive and expanded accessory polynomials agree; both monic."""
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_monic = 0.0
    for _ in range(50):
        p = random_generic_params(rng)
        while any(abs(p.beta - m) < 0.05 for m in range(1, 7)):
            p = random_generic_params(rng)
        for N in range(7):
            c = accessory_poly(p, N)
            e = accessory_poly_expanded(p, N)
            worst = max(worst, coeff_gap(c, e))
            worst_monic = max(worst_monic, abs(c.lead - 1.0))
    ok = worst < 1e-10 and worst_monic < 1e-10
    return ok, f"max coeff diff {worst:.2e}, max monic defect {worst_monic:.2e}"


def polynomial_solutions() -> tuple[bool, str]:
    """Every accessory root yields a polynomial-type solution."""
    rng = np.random.default_rng(202)
    family = FAMILIES["generic"]
    form = family.form("poly")
    worst = 0.0
    for i in range(20):
        N = int(rng.integers(0, 5))
        st = family.setup(random_admissible_params(rng, N), N)
        pts = form.grid(st, None, 20, seed=i)
        for rep in form.root_residuals(st, st.roots, None, pts):
            worst = max(worst, one_root([rep]).max_residual)
    return worst < 1e-9, f"worst residual {worst:.2e}"


def family2_apparent() -> tuple[bool, str]:
    """Both accessory routes agree for the beta = N + 1 family and every
    root passes the direct closing-relation check."""
    rng = np.random.default_rng(303)
    worst = 0.0
    checks = True
    for _ in range(50):
        N = int(rng.integers(0, 6))
        st = family2_setup(random_family2_params(rng, N), N)
        worst = max(worst, coeff_gap(st.accessory, st.d_poly))
        checks = apparent_equivalence(st) and checks
    return checks and worst < 1e-10, f"max coeff diff {worst:.2e}"


def family1_finite_sums() -> tuple[bool, str]:
    """All four finite-sum forms solve the equation at every root."""
    rng = np.random.default_rng(404)
    family = FAMILIES["family1"]
    worst = 0.0
    for N in (0, 1, 2):
        st = family.setup(random_family1_params(rng, N), N)
        for name in ("g3", "g4", "g5", "g6"):
            form = family.form(name)
            pts = form.grid(st, None, 10, seed=N + 17)
            for rep in form.root_residuals(st, st.roots, None, pts):
                worst = max(worst, one_root([rep]).max_residual)
    return worst < 1e-8, f"worst residual {worst:.2e}"


def family2_solutions() -> tuple[bool, str]:
    """Homogeneous forms, pairwise differences of the triple, and the
    explicit inhomogeneous identities for g1 and g6."""
    rng = np.random.default_rng(505)
    family = FAMILIES["family2"]
    forms = [family.form(name) for name in ("g3", "g4", "g5", "g6-g7", "g7-g8", "g1", "g6")]
    worst_h = 0.0
    worst_n = 0.0
    for N in (0, 1, 2):
        p = random_family2_params(rng, N)
        st = family.setup(p, N)
        xi = 0.77 * abs(p.t1) + 0j
        pts = forms[0].grid(st, xi, 10, seed=N + 29)  # every family-2 form shares this grid
        for form in forms:
            for rep in form.root_residuals(st, st.roots, xi, pts):
                res = one_root([rep]).max_residual
                if form.inhomogeneity is None:
                    worst_h = max(worst_h, res)
                else:
                    worst_n = max(worst_n, res)
    ok = worst_h < 1e-8 and worst_n < 1e-8
    return ok, f"worst homogeneous {worst_h:.2e}, worst inhomogeneous {worst_n:.2e}"


def _variant_solutions(p: QHeunParams, which: str, x: complex) -> complex:
    """Independent transcription of the three degree-two variant solutions."""
    q = p.q
    lam = (p.h1 + p.h2 - p.l1 - p.l2 - p.alpha1 - p.alpha2 - p.beta + 2.0) / 2.0
    z = q ** (lam + p.alpha2)
    x = complex(x)
    if which in ("h1", "h2"):
        h, t = (p.h1, p.t1) if which == "h1" else (p.h2, p.t2)
        ho, to = (p.h2, p.t2) if which == "h1" else (p.h1, p.t1)
        pref = x ** lam * q_pochhammer_ratio(
            [q ** (lam - h + p.alpha1 + 0.5) * x / t], [q ** (-h + 0.5) * x / t], q
        )
        return pref * phi_series(
            [
                q ** (lam - h + p.l1 + p.alpha1) * (p.t1 / t),
                q ** (lam - h + p.l2 + p.alpha1) * (p.t2 / t),
                q ** (-h + 0.5) * x / t,
            ],
            [q ** (-h + ho + 1.0) * to / t, q ** (lam - h + p.alpha1 + 0.5) * x / t],
            q,
            z,
        )
    pref = x ** (-p.alpha2) * q_pochhammer_ratio(
        [
            q ** (-lam + p.h1 - p.alpha1 + 1.5) * p.t1 / x,
            q ** (-lam + p.h2 - p.alpha1 + 1.5) * p.t2 / x,
        ],
        [q ** (p.l1 + 0.5) * p.t1 / x, q ** (p.l2 + 0.5) * p.t2 / x],
        q,
    )
    return pref * phi_series(
        [
            q ** (p.l1 + 0.5) * p.t1 / x,
            q ** (p.l2 + 0.5) * p.t2 / x,
            q ** (-lam - p.alpha1 + 1.0),
        ],
        [
            q ** (-lam + p.h1 - p.alpha1 + 1.5) * p.t1 / x,
            q ** (-lam + p.h2 - p.alpha1 + 1.5) * p.t2 / x,
        ],
        q,
        z,
    )


def variant_regression() -> tuple[bool, str]:
    """beta = 1 reduction: the three finite forms match the degree-two
    variant solutions pointwise and the root matches its eigenvalue."""
    rng = np.random.default_rng(606)
    worst_val = 0.0
    worst_e = 0.0
    for i in range(10):
        p = random_family2_params(rng, 0)
        st = family2_setup(p, 0)
        E0 = st.roots[0]
        scale = p.q ** ((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2.0)
        e_variant = -scale * (
            (p.q ** -p.h2 + p.q ** -p.l2) * p.t1 + (p.q ** -p.h1 + p.q ** -p.l1) * p.t2
        )
        worst_e = max(worst_e, abs(E0 - e_variant) / abs(e_variant))
        m = min(abs(p.t1), abs(p.t2))
        pts = grid_points(
            p.q, family2_pole_spirals(st), 4, 0.5 * m, 2.0 * m, seed=i, min_rel_dist=1e-3
        )
        for form, variant in (("g3", "h1"), ("g4", "h2"), ("g5", "h3")):
            for x in pts:
                got = family2_homogeneous(st, form, E0, x)
                want = _variant_solutions(p, variant, x)
                worst_val = max(worst_val, abs(got - want) / max(abs(want), 1e-300))
    ok = worst_val < 1e-10 and worst_e < 1e-12
    return ok, f"worst value diff {worst_val:.2e}, worst eigenvalue diff {worst_e:.2e}"


def _off_spiral_reals(xi: float, q: float, bases, count: int = 5) -> list[float]:
    pts = []
    k = 0
    while len(pts) < count:
        x = xi * q ** (-(0.53 + 0.61 * k))
        k += 1
        if spiral_distance(x, bases, q) > 1e-3:
            pts.append(x)
    return pts


def transform_consistency() -> tuple[bool, str]:
    """Numeric Jackson transforms match the explicit bilateral formulas;
    the boundary detector reproduces the known limits."""
    rng = np.random.default_rng(707)
    worst = 0.0
    drawn = {}
    for family, draw, source_params, seed, bilateral in (
        ("family1", random_family1_params, family1_source_params, family1_seed, family1_bilateral),
        ("family2", random_family2_params, family2_source_params, family2_seed, family2_bilateral),
    ):
        p = draw(rng, 1)
        st = FAMILIES[family].setup(p, 1)
        E = st.roots[0]
        xi = 0.9 * abs(p.t1)
        xs = _off_spiral_reals(xi, p.q, FAMILIES[family].form("g1").spirals(st, xi + 0j))
        # h1 with kernel P1 gives g1, h2 with P2 gives g2.
        for which, kernel, form in (("h1", "P1", "g1"), ("h2", "P2", "g2")):
            spec = TransformSpec(source=source_params(st), mu0=0.0, xi=xi, kernel=kernel, alpha1=p.alpha1)
            h = seed(st, which, E)
            drawn[family, which] = st, spec, h
            for x in xs:
                want = bilateral(st, form, E, xi, x)
                worst = max(worst, abs(transform(spec, h, E, x) - want) / abs(want))
    # beta' < 0 and alpha1' < alpha2' hold for family 1's source system,
    # so both limits of its P1 seed must vanish.
    _, spec, h = drawn["family1", "h1"]
    c1, c2 = boundary_limits(spec, h)
    worst_c = max(abs(c1), abs(c2))
    # The family-2 P2 seed has the explicit theta-quotient inward limit.
    st2, spec, h = drawn["family2", "h2"]
    c1, c2 = boundary_limits(spec, h)
    p2, xi2 = st2.params, spec.xi
    q = p2.q
    chi = source_chi(spec.source)
    expected = xi2 ** (-p2.h1 - p2.h2 + p2.l1 + p2.l2 + 2.0 * chi) * (
        theta(q ** (p2.h1 - chi + 0.5) * p2.t1 / xi2, q)
        * theta(q ** (p2.h2 - chi + 0.5) * p2.t2 / xi2, q)
        / (
            theta(q ** (p2.l1 + 0.5) * p2.t1 / xi2, q)
            * theta(q ** (p2.l2 + 0.5) * p2.t2 / xi2, q)
        )
    )
    worst_c = max(worst_c, abs(c1 - expected) / abs(expected), abs(c2))
    ok = worst < 1e-8 and worst_c < 1e-8
    return ok, f"worst transform diff {worst:.2e}, worst limit diff {worst_c:.2e}"


def identity_suites() -> tuple[bool, str]:
    """Heine transform, theta quasi-periodicity, shifted-factorial laws."""
    rng = np.random.default_rng(808)
    worst = 0.0

    def cplx(lo: float, hi: float) -> complex:
        return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-3.0, 3.0))

    for _ in range(100):
        q = rng.uniform(0.3, 0.7)
        a, c = cplx(0.2, 1.5), cplx(0.3, 1.8)
        b, z = cplx(0.05, 0.78), cplx(0.05, 0.78)
        lhs = phi_series([a, b], [c], q, z)
        rhs = q_pochhammer_ratio([b, a * z], [c, z], q) * phi_series([c / b, z], [a * z], q, b)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    for _ in range(100):
        q = rng.uniform(0.3, 0.7)
        t, s = cplx(0.3, 2.0), cplx(0.3, 2.0)
        K = int(rng.integers(-3, 4))
        lhs = theta(q ** K * t, q) / theta(q ** K * s, q)
        rhs = (s / t) ** K * theta(t, q) / theta(s, q)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    for _ in range(100):
        q = rng.uniform(0.3, 0.7)
        a = cplx(0.3, 1.7)
        m = int(rng.integers(-3, 4))
        n = int(rng.integers(-3, 4))
        lhs = q_pochhammer(a, q, m + n)
        rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q ** m, q, n)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        lhs = q_pochhammer(a, q, n)
        rhs = q_pochhammer(a, q, math.inf) / q_pochhammer(a * q ** n, q, math.inf)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst < 1e-12, f"worst identity defect {worst:.2e}"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]], float | None]] = [
    ("accessory recursion vs expansion", accessory_equivalence, 5.0),
    ("polynomial-type solutions at every root", polynomial_solutions, 10.0),
    ("apparent-singularity equivalence (beta = N+1)", family2_apparent, None),
    ("finite-sum forms, family h2 = l2-1-N", family1_finite_sums, None),
    ("finite-sum forms, family beta = N+1", family2_solutions, None),
    ("degree-two variant regression at N = 0", variant_regression, None),
    ("transform vs explicit bilateral formulas", transform_consistency, None),
    ("core identity suites", identity_suites, None),
]


def run_one(index: int) -> CriterionResult:
    """Run criterion `index` (1-based), timed; its time budget counts toward pass/fail."""
    name, fn, budget = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # surfaced, not raised: selftest reports all
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        passed = False
        detail += f" [exceeded {budget:.0f}s budget]"
    return CriterionResult(index=index, name=name, passed=passed, detail=detail, seconds=dt)


def run_all() -> list[CriterionResult]:
    """Run criteria 1..8 in order."""
    return [run_one(i) for i in range(1, len(CRITERIA) + 1)]
