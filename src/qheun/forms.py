"""Registry of the special solution forms: the one place a form is defined.

Each family pairs its setup (integer relation, accessory polynomial,
roots) with its forms in report order.  A form gives its solution at
accessory roots, may carry the inhomogeneity T of Op g = E g + T, may
need the bilateral anchor xi, and names the grid of its residual check:
a default |x| band, the q-spirals to avoid and the relative distance to
keep from them.  The CLI and the acceptance criteria both read forms
from here.

A family form at an accessory root E0 is a sum over the root's
coefficients c_0..c_N of pieces that do not depend on E0 (q-series,
products, the bilateral walk).  So a form is a kernel (setup, rows, xi,
x) -> one value or QHeunError per row, and ``Form.evaluate`` resolves
each E0 to its row once (``accessory.coeff_row``, NotARoot off the
roots) and hands the kernel the rows still live at each point.  The
generic form's row is the polynomial solution, built once per E0 and
checked against the setup's accessory polynomial.
``root_residuals`` checks every root through one evaluator in one pass
over the grid; ``solution`` is the one-root case of ``evaluate``.

A float overflow or division by zero in a setup, a grid or an evaluation
leaves the registry as a DomainError that names the original error.

Family functions are looked up by name when a form runs, never stored
at import, so a patched module binding (a tracer's wrapper) is honoured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .accessory import Poly, accessory_poly, coeff_row, one_root, poly_roots, polynomial_at_root
from .errors import DomainError, PreconditionError, QHeunError
from .family_one import family1_bilateral_rows, family1_residual_band, family1_setup, family1_unilateral_rows
from .family_two import (
    family2_bilateral_rows,
    family2_finite_rows,
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


def _out_of_range(exc: ArithmeticError, where: str) -> DomainError:
    """The typed error for a float overflow or a division by zero, where it happened."""
    err = DomainError(f"{type(exc).__name__} {where}: {exc}")
    err.__cause__ = exc
    return err


@dataclass(frozen=True)
class Form:
    name: str
    kernel: Callable  # (setup, rows, xi, x) -> a value or QHeunError per row
    band: Callable  # setup -> default (rmin, rmax) of |x|
    spirals: Callable  # (setup, xi) -> bases of the q-spirals the grid avoids
    min_rel_dist: float = 1e-6
    inhomogeneity: Callable | None = None  # (setup, xi, x) -> T(x)
    needs_xi: bool = False
    resolve: Callable = coeff_row  # (setup, E0) -> the row the kernel takes for E0

    def grid(self, setup, xi, count: int, seed: int, rmin=None, rmax=None) -> list[complex]:
        """Seeded residual grid; rmin/rmax override the default band."""
        if count < 1:
            raise PreconditionError("grid count must be at least 1")
        lo, hi = self.band(setup)
        lo, hi = lo if rmin is None else rmin, hi if rmax is None else rmax
        if not (0 < lo <= hi):
            raise PreconditionError("grid radius range must be positive")
        try:
            spirals = self.spirals(setup, xi)
            return grid_points(setup.params.q, spirals, count, lo, hi, seed=seed, min_rel_dist=self.min_rel_dist)
        except ArithmeticError as exc:
            raise _out_of_range(exc, f"in the {self.name} grid at q = {setup.params.q!r}")

    def _inhomogeneity(self, setup, xi) -> Callable | None:
        if self.inhomogeneity is None:
            return None

        def T(x: complex) -> complex:
            try:
                return self.inhomogeneity(setup, xi, x)
            except ArithmeticError as exc:
                raise _out_of_range(exc, f"at x = {complex(x)!r}")

        return T

    def evaluate(self, setup, E0s, xi) -> Callable:
        """g(y, live): the value at y of the form at E0s[j], or its
        QHeunError, for each index j in live.

        Each E0 is resolved once, here.  One that fails keeps its error,
        which g returns at the first point it is asked at, so that the
        error carries that point.  At each y the kernel runs once for
        the rows still live; a QHeunError it raises goes to all of them,
        and so does a float overflow or division by zero, as a DomainError
        that names y.
        """
        rows = []
        for E0 in E0s:
            try:
                rows.append(self.resolve(setup, E0))
            except QHeunError as exc:
                rows.append(exc)

        def g(y: complex, live: list[int]) -> list:
            good = [rows[j] for j in live if not isinstance(rows[j], QHeunError)]
            try:
                values = iter(self.kernel(setup, good, xi, y) if good else ())
            except QHeunError as exc:
                values = itertools.repeat(exc)
            except ArithmeticError as exc:
                values = itertools.repeat(_out_of_range(exc, f"at x = {complex(y)!r}"))
            return [rows[j] if isinstance(rows[j], QHeunError) else next(values) for j in live]

        return g

    def solution(self, setup, E0: complex, xi) -> Callable:
        """The form at E0 as a function of x; it raises what its evaluation raises."""
        g = self.evaluate(setup, [E0], xi)
        return lambda x: one_root(g(x, [0]))

    def root_residuals(self, setup, E0s, xi, pts) -> list[ResidualReport | QHeunError]:
        """residuals at each of E0s: its report, or the QHeunError it raises.

        The stencil values of all E0s come from one evaluator, and T(x)
        once per point, in one pass over pts.
        """
        g = self.evaluate(setup, E0s, xi)
        return residual_reports(setup.params, E0s, g, pts, self._inhomogeneity(setup, xi))


@dataclass(frozen=True)
class Family:
    build: Callable  # (params, N) -> object with params, N, accessory, roots
    forms: tuple[Form, ...]

    def setup(self, p: QHeunParams, N: int):
        """build(p, N); a float overflow or division by zero becomes a DomainError."""
        try:
            return self.build(p, N)
        except ArithmeticError as exc:
            raise _out_of_range(exc, f"in setup at q = {p.q!r}, N = {N}")

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
        name, lambda st, rows, xi, x: family1_bilateral_rows(st, name, rows, xi, x),
        _band(0.6, 2.5), lambda st, xi: singular_spirals(st.params) + [xi], 1e-4, needs_xi=True,
    )


def _unilateral1(name: str) -> Form:
    """Finite sum g3..g6, checked inside its own convergence domain."""
    return Form(
        name, lambda st, rows, xi, x: family1_unilateral_rows(st, name, rows, x),
        lambda st: family1_residual_band(st, name), _singular,
    )


def _bilateral2(name: str) -> Callable:
    return lambda st, rows, xi, x: family2_bilateral_rows(st, name, rows, xi, x)


def _finite2(a: str, b: str | None = None) -> Callable:
    """Finite sum a of g3..g8, or the difference a - b."""
    if b is None:
        return lambda st, rows, xi, x: family2_finite_rows(st, a, rows, x)

    def kernel(st, rows, xi, x) -> list:
        first = family2_finite_rows(st, a, rows, x)
        return [u - v for u, v in zip(first, family2_finite_rows(st, b, rows, x))]

    return kernel


def _g1_defect(st, xi, x) -> complex:
    return g1_inhomogeneity(st, x)


def _form2(name: str, kernel: Callable, inhomogeneity=None, needs_xi: bool = False) -> Form:
    """Family-2 forms share one band and spiral set; xi joins the spirals when given."""
    spirals = lambda st, xi: family2_pole_spirals(st) + ([xi] if xi is not None else [])
    return Form(name, kernel, _band(0.4, 3.0), spirals, 1e-3, inhomogeneity, needs_xi)


def _polynomial(st, solutions, xi, x) -> list:
    # The roots share the exponent at the origin, so an error at x is every root's.
    return [solution(x) for solution in solutions]


FAMILIES: dict[str, Family] = {
    "generic": Family(
        lambda p, N: generic_setup(p, N),
        (
            Form(
                "poly", _polynomial, _band(0.1, 10.0), _singular,
                resolve=lambda st, E0: polynomial_at_root(st.params, st.accessory, E0, st.N),
            ),
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
            _form2("g3", _finite2("g3")),
            _form2("g4", _finite2("g4")),
            _form2("g5", _finite2("g5")),
            _form2("g6-g7", _finite2("g6", "g7")),
            _form2("g7-g8", _finite2("g7", "g8")),
            _form2("g6", _finite2("g6"), _g1_defect),
            _form2("g7", _finite2("g7"), _g1_defect),
            _form2("g8", _finite2("g8"), _g1_defect),
        ),
    ),
}
