"""Registry of the special solution forms: the one place a form is defined.

Each family pairs its setup (integer relation, accessory polynomial,
roots) with its forms in report order.  A form gives its solution at
an accessory root as a function of x, may carry the inhomogeneity T of
Op g = E g + T, may need the bilateral anchor xi, and names the grid of
its residual check: a default |x| band, the q-spirals to avoid and the
relative distance to keep from them.  The CLI and the acceptance
criteria both read forms from here.

Family functions are looked up by name when a form runs, never stored
at import, so a patched module binding (a tracer's wrapper) is honoured.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .accessory import Poly, accessory_poly, poly_roots, polynomial_solution
from .errors import PreconditionError
from .family_one import family1_bilateral, family1_residual_band, family1_setup, family1_unilateral
from .family_two import (
    family2_bilateral,
    family2_homogeneous,
    family2_inhomogeneous_triple,
    family2_pole_spirals,
    family2_setup,
    g1_inhomogeneity,
    g2_inhomogeneity,
)
from .qheun_op import QHeunParams, ResidualReport, grid_points, residual_report, singular_spirals


@dataclass(frozen=True)
class GenericSetup:
    params: QHeunParams
    N: int
    accessory: Poly
    roots: tuple[complex, ...]


def generic_setup(p: QHeunParams, N: int) -> GenericSetup:
    cpoly = accessory_poly(p, N)
    return GenericSetup(p, N, cpoly, tuple(poly_roots(cpoly)))


@dataclass(frozen=True)
class Form:
    name: str
    solution: Callable  # (setup, E0, xi) -> g, the form as a function of x
    band: Callable  # setup -> default (rmin, rmax) of |x|
    spirals: Callable  # (setup, xi) -> bases of the q-spirals the grid avoids
    min_rel_dist: float = 1e-6
    inhomogeneity: Callable | None = None  # (setup, xi, x) -> T(x)
    needs_xi: bool = False

    def grid(self, setup, xi, count: int, seed: int, rmin=None, rmax=None) -> list[complex]:
        """Seeded residual grid; rmin/rmax override the default band."""
        if count < 1:
            raise PreconditionError("grid count must be at least 1")
        lo, hi = self.band(setup)
        lo, hi = lo if rmin is None else rmin, hi if rmax is None else rmax
        if not (0 < lo <= hi):
            raise PreconditionError("grid radius range must be positive")
        spirals = self.spirals(setup, xi)
        return grid_points(setup.params.q, spirals, count, lo, hi, seed=seed, min_rel_dist=self.min_rel_dist)

    def residuals(self, setup, E0: complex, xi, pts) -> ResidualReport:
        inhom = None
        if self.inhomogeneity is not None:
            inhom = lambda x: self.inhomogeneity(setup, xi, x)
        return residual_report(setup.params, E0, self.solution(setup, E0, xi), pts, inhomogeneity=inhom)


@dataclass(frozen=True)
class Family:
    setup: Callable  # (params, N) -> object with params, N, accessory, roots
    forms: tuple[Form, ...]

    def form(self, name: str) -> Form:
        return next(f for f in self.forms if f.name == name)


def _band(lo: float, hi: float) -> Callable:
    """(lo m, hi m) with m = min(|t1|, |t2|)."""

    def band(setup) -> tuple[float, float]:
        m = min(abs(setup.params.t1), abs(setup.params.t2))
        return lo * m, hi * m

    return band


def _singular(setup, xi) -> list[complex]:
    return singular_spirals(setup.params)


def _bilateral1(name: str) -> Form:
    return Form(
        name, lambda st, E0, xi: lambda x: family1_bilateral(st, name, E0, xi, x),
        _band(0.6, 2.5), lambda st, xi: singular_spirals(st.params) + [xi], 1e-4, needs_xi=True,
    )


def _unilateral1(name: str) -> Form:
    """Finite sum g3..g6, checked inside its own convergence domain."""
    return Form(
        name, lambda st, E0, xi: lambda x: family1_unilateral(st, name, E0, x),
        lambda st: family1_residual_band(st, name), _singular,
    )


def _bilateral2(name: str) -> Callable:
    return lambda st, E0, xi: lambda x: family2_bilateral(st, name, E0, xi, x)


def _homogeneous2(name: str) -> Callable:
    return lambda st, E0, xi: lambda x: family2_homogeneous(st, name, E0, x)


def _triple2(a: str, b: str | None = None) -> Callable:
    """Member a of the g6..g8 triple, or the difference a - b."""
    if b is None:
        return lambda st, E0, xi: lambda x: family2_inhomogeneous_triple(st, a, E0, x)
    return lambda st, E0, xi: lambda x: (
        family2_inhomogeneous_triple(st, a, E0, x) - family2_inhomogeneous_triple(st, b, E0, x)
    )


def _g1_defect(st, xi, x) -> complex:
    return g1_inhomogeneity(st, x)


def _form2(name: str, solution: Callable, inhomogeneity=None, needs_xi: bool = False) -> Form:
    """Family-2 forms share one band and spiral set; xi joins the spirals when given."""
    spirals = lambda st, xi: family2_pole_spirals(st) + ([xi] if xi is not None else [])
    return Form(name, solution, _band(0.4, 3.0), spirals, 1e-3, inhomogeneity, needs_xi)


def _polynomial(st, E0, xi) -> Callable:
    """The polynomial solution at E0, built once, at its first point.

    A build that fails (E0 off the roots, say) raises at each point, as
    any evaluation error does, and so carries the point it was asked at.
    """
    build = cache(lambda: polynomial_solution(st.params, E0, st.N))
    return lambda x: build()(x)


FAMILIES: dict[str, Family] = {
    "generic": Family(
        lambda p, N: generic_setup(p, N),
        (
            Form("poly", _polynomial, _band(0.1, 10.0), _singular),
        ),
    ),
    "family1": Family(
        lambda p, N: family1_setup(p, N),
        (
            _bilateral1("g1"),
            _bilateral1("g2"),
            _unilateral1("g3"),
            _unilateral1("g4"),
            _unilateral1("g5"),
            _unilateral1("g6"),
        ),
    ),
    "family2": Family(
        lambda p, N: family2_setup(p, N),
        (
            _form2("g1", _bilateral2("g1"), _g1_defect, needs_xi=True),
            _form2("g2", _bilateral2("g2"), lambda st, xi, x: g2_inhomogeneity(st, xi, x), needs_xi=True),
            _form2("g3", _homogeneous2("g3")),
            _form2("g4", _homogeneous2("g4")),
            _form2("g5", _homogeneous2("g5")),
            _form2("g6-g7", _triple2("g6", "g7")),
            _form2("g7-g8", _triple2("g7", "g8")),
            _form2("g6", _triple2("g6"), _g1_defect),
            _form2("g7", _triple2("g7"), _g1_defect),
            _form2("g8", _triple2("g8"), _g1_defect),
        ),
    ),
}
