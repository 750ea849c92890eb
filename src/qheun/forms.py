"""Registry of the special solution forms: the one place a form is defined.

Each family pairs its setup (integer relation, accessory polynomial,
roots) with its forms in report order.  A form gives its solution at
accessory roots, may carry the inhomogeneity T of Op g = E g + T, may
need the bilateral anchor xi, and names the grid of its residual check:
a default |x| band, the q-spirals to avoid and the relative distance to
keep from them.  The CLI and the acceptance criteria both read forms
from here.

A form has one evaluator, (setup, E0s, xi) -> g, where g(y, live)
gives the value at y of the solution at E0s[j], or its QHeunError, for
each index j in live.  A family form forms the pieces that do not
depend on the eigenvalue (q-series, products, the bilateral walk) once
for all of live; the generic form builds each root's polynomial once
per evaluator.  ``root_residuals`` checks every root through it in one
pass over the grid; ``solution`` and ``residuals`` are its one-root
case.

Family functions are looked up by name when a form runs, never stored
at import, so a patched module binding (a tracer's wrapper) is honoured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .accessory import Poly, accessory_poly, one_root, poly_roots, polynomial_solution
from .errors import PreconditionError, QHeunError
from .family_one import family1_bilateral_multi, family1_residual_band, family1_setup, family1_unilateral_multi
from .family_two import (
    family2_bilateral_multi,
    family2_homogeneous_multi,
    family2_inhomogeneous_triple_multi,
    family2_pole_spirals,
    family2_setup,
    g1_inhomogeneity,
    g2_inhomogeneity,
)
from .qheun_op import QHeunParams, ResidualReport, grid_points, residual_reports, singular_spirals


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
    evaluate: Callable  # (setup, E0s, xi) -> g(y, live), a value or QHeunError per E0s[j], j in live
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

    def _inhomogeneity(self, setup, xi) -> Callable | None:
        if self.inhomogeneity is None:
            return None
        return lambda x: self.inhomogeneity(setup, xi, x)

    def solution(self, setup, E0: complex, xi) -> Callable:
        """The form at E0 as a function of x; it raises what its evaluation raises."""
        g = self.evaluate(setup, [E0], xi)
        return lambda x: one_root(g(x, [0]))

    def residuals(self, setup, E0: complex, xi, pts) -> ResidualReport:
        return one_root(self.root_residuals(setup, [E0], xi, pts))

    def root_residuals(self, setup, E0s, xi, pts) -> list[ResidualReport | QHeunError]:
        """residuals at each of E0s: its report, or the QHeunError it raises.

        The stencil values of all E0s come from one evaluator, and T(x)
        once per point, in one pass over pts.
        """
        g = self.evaluate(setup, E0s, xi)
        return residual_reports(setup.params, E0s, g, pts, self._inhomogeneity(setup, xi))


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


def _shared(multi: Callable) -> Callable:
    """The evaluator of a family form from multi(setup, E0s, xi, x) ->
    one value or QHeunError per eigenvalue of E0s."""
    return lambda st, E0s, xi: lambda y, live: multi(st, [E0s[j] for j in live], xi, y)


def _bilateral1(name: str) -> Form:
    return Form(
        name, _shared(lambda st, E0s, xi, x: family1_bilateral_multi(st, name, E0s, xi, x)),
        _band(0.6, 2.5), lambda st, xi: singular_spirals(st.params) + [xi], 1e-4, needs_xi=True,
    )


def _unilateral1(name: str) -> Form:
    """Finite sum g3..g6, checked inside its own convergence domain."""
    return Form(
        name, _shared(lambda st, E0s, xi, x: family1_unilateral_multi(st, name, E0s, x)),
        lambda st: family1_residual_band(st, name), _singular,
    )


def _bilateral2(name: str) -> Callable:
    return _shared(lambda st, E0s, xi, x: family2_bilateral_multi(st, name, E0s, xi, x))


def _homogeneous2(name: str) -> Callable:
    return _shared(lambda st, E0s, xi, x: family2_homogeneous_multi(st, name, E0s, x))


def _triple2(a: str, b: str | None = None) -> Callable:
    """Member a of the g6..g8 triple, or the difference a - b."""
    if b is None:
        return _shared(lambda st, E0s, xi, x: family2_inhomogeneous_triple_multi(st, a, E0s, x))

    def multi(st, E0s, xi, x) -> list:
        # b runs only where a succeeded.
        first = family2_inhomogeneous_triple_multi(st, a, E0s, x)
        live = [E0 for E0, v in zip(E0s, first) if not isinstance(v, QHeunError)]
        second = iter(family2_inhomogeneous_triple_multi(st, b, live, x))
        return [v if isinstance(v, QHeunError) else _difference(v, next(second)) for v in first]

    return _shared(multi)


def _difference(u: complex, v):
    return v if isinstance(v, QHeunError) else u - v


def _g1_defect(st, xi, x) -> complex:
    return g1_inhomogeneity(st, x)


def _form2(name: str, evaluate: Callable, inhomogeneity=None, needs_xi: bool = False) -> Form:
    """Family-2 forms share one band and spiral set; xi joins the spirals when given."""
    spirals = lambda st, xi: family2_pole_spirals(st) + ([xi] if xi is not None else [])
    return Form(name, evaluate, _band(0.4, 3.0), spirals, 1e-3, inhomogeneity, needs_xi)


def _polynomial(st, E0s, xi) -> Callable:
    """The polynomial solution at each of E0s, built once, at its first point.

    A build that fails (E0 off the roots, say) is not kept: it raises
    at each point, as any evaluation error does, and so carries the
    point it was asked at.
    """
    built: dict[int, Callable] = {}

    def values(y: complex, live: list[int]) -> list:
        out = []
        for j in live:
            try:
                if j not in built:
                    built[j] = polynomial_solution(st.params, E0s[j], st.N)
                out.append(built[j](y))
            except QHeunError as exc:
                out.append(exc)
        return out

    return values


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
