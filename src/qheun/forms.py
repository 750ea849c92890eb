"""Registry of the special solution forms: the one place a form is defined.

Each family pairs its setup, an accessory.FamilySetup (integer relation,
accessory polynomial, roots), with its forms in report order.  A form gives its solution at
accessory roots, may carry the inhomogeneity T of Op g = E g + T, may
need the bilateral anchor xi, and names the grid of its residual check:
a default |x| band, the q-spirals to avoid and the relative distance to
keep from them.  The CLI and the acceptance criteria both read forms
from here.

A form at an accessory root E0 is a sum over the root's row c_0..c_N
of pieces that do not depend on E0 (q-series, products, the bilateral
walk; the generic form's x^lambda1 x^k).  So a form is an evaluator
(setup, xi, rows) -> at, with at(live, x) -> one value or QHeunError
per position in live.  ``Form.evaluate`` resolves each E0 to its row
once (``accessory.coeff_row``, NotARoot off the roots), makes one
evaluator of the rows that resolved and hands it the positions of
those still live at each point.  An evaluator forms once what depends
on neither x nor the row: the per-k parameters, R_k and series chains
of family 1's finite sums, the z_k of family 2's and the powers of the
bilateral walks; and, per row, a walk's weights and weighted power
sums.  ``root_residuals`` checks every root in one pass over the grid;
``solution`` is the one-root case of ``evaluate``.

A float overflow or division by zero in a setup, a grid or an evaluation
leaves the registry as a DomainError that names the original error and
where it happened, typed by ``errors.typed``: ``Family.setup`` and
``Form.grid`` are decorated with it here, and every point function (at,
and T of the inhomogeneous forms) with ``errors.typed_at_point``.

Family functions are looked up by name when a form runs, never stored
at import, so a patched module binding (a tracer's wrapper) is honoured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .accessory import coeff_row, family_setup, horner, one_root, polynomial_case_violation, recurrence_coeffs
from .errors import PreconditionError, QHeunError, typed, typed_at_point
from .family_one import (
    family1_bilateral_evaluator,
    family1_residual_band,
    family1_setup,
    family1_unilateral_evaluator,
)
from .family_two import (
    family2_bilateral_evaluator,
    family2_finite_evaluator,
    family2_pole_spirals,
    family2_setup,
    g1_inhomogeneity,
    g2_inhomogeneity,
)
from .qheun_op import QHeunParams, ResidualReport, grid_points, residual_reports, singular_spirals


@dataclass(frozen=True)
class Form:
    name: str
    evaluator: Callable  # (setup, xi, rows) -> at(live, x): a value or QHeunError per position in live
    band: Callable  # setup -> default (rmin, rmax) of |x|
    spirals: Callable  # (setup, xi) -> bases of the q-spirals the grid avoids
    min_rel_dist: float = 1e-6
    inhomogeneity: Callable | None = None  # (setup, xi, x) -> T(x)
    needs_xi: bool = False

    @typed(lambda form, setup, *_, **__: f"in the {form.name} grid at q = {setup.params.q!r}")
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

    def evaluate(self, setup, E0s, xi) -> Callable:
        """g(y, live): the value at y of the form at E0s[j], or its
        QHeunError, for each index j in live.

        Each E0 is resolved once, here.  One that fails keeps its error,
        which g returns at the first point it is asked at, so that the
        error carries that point.  One evaluator, made with the rows
        that resolved, serves every y, and what it forms once lives as
        long as g.  At each y it runs once, for the positions of the
        rows still live; a QHeunError it raises goes to all of them.
        """
        rows, positions = [], []  # positions: per E0, its row's position in rows or its error
        for E0 in E0s:
            try:
                rows.append(coeff_row(setup, E0))
                positions.append(len(rows) - 1)
            except QHeunError as exc:
                positions.append(exc)
        at = self.evaluator(setup, xi, rows)

        def g(y: complex, live: list[int]) -> list:
            good = [positions[j] for j in live if not isinstance(positions[j], QHeunError)]
            try:
                values = iter(at(good, y) if good else ())
            except QHeunError as exc:
                values = itertools.repeat(exc)
            return [positions[j] if isinstance(positions[j], QHeunError) else next(values) for j in live]

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
    build: Callable  # (params, N) -> an accessory.FamilySetup
    forms: tuple[Form, ...]

    @typed(lambda family, p, N: f"in setup at q = {p.q!r}, N = {N}")
    def setup(self, p: QHeunParams, N: int):
        """build(p, N); a float overflow or division by zero becomes a DomainError."""
        return self.build(p, N)

    def form(self, name: str) -> Form:
        for f in self.forms:
            if f.name == name:
                return f
        raise PreconditionError(f"unknown form {name!r}; the family has {', '.join(f.name for f in self.forms)}")


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
        name, lambda st, xi, rows: family1_bilateral_evaluator(st, name, xi, rows),
        _band(0.6, 2.5), lambda st, xi: singular_spirals(st.params) + [xi], 1e-4, needs_xi=True,
    )


def _unilateral1(name: str) -> Form:
    """Finite sum g3..g6, checked inside its own convergence domain."""
    return Form(
        name, lambda st, xi, rows: family1_unilateral_evaluator(st, name, rows),
        lambda st: family1_residual_band(st, name), _singular,
    )


def _bilateral2(name: str) -> Callable:
    return lambda st, xi, rows: family2_bilateral_evaluator(st, name, xi, rows)


def _finite2(a: str, b: str | None = None) -> Callable:
    """Finite sum a of g3..g8, or the difference a - b."""
    if b is None:
        return lambda st, xi, rows: family2_finite_evaluator(st, a, rows)

    def evaluator(st, xi, rows) -> Callable:
        first, second = family2_finite_evaluator(st, a, rows), family2_finite_evaluator(st, b, rows)
        return lambda live, x: [u - v for u, v in zip(first(live, x), second(live, x))]

    return evaluator


def _g1_defect(st, xi, x) -> complex:
    return g1_inhomogeneity(st, x)


def _form2(name: str, evaluator: Callable, inhomogeneity=None, needs_xi: bool = False) -> Form:
    """Family-2 forms share one band and spiral set; xi joins the spirals when given."""
    spirals = lambda st, xi: family2_pole_spirals(st) + ([xi] if xi is not None else [])
    return Form(name, evaluator, _band(0.4, 3.0), spirals, 1e-3, inhomogeneity, needs_xi)


def _polynomial(st, xi, rows) -> Callable:
    """x^lambda1 sum_k c_k x^k of each row, or a PreconditionError at each
    point where the parameters admit no polynomial-type solution."""
    violation = polynomial_case_violation(st.params, st.N)

    @typed_at_point
    def at(live, x: complex) -> list[complex]:
        if violation is not None:
            raise PreconditionError(violation)
        x = complex(x)
        return [x**st.lambda1 * horner(rows[j], x) for j in live]

    return at


FAMILIES: dict[str, Family] = {
    "generic": Family(
        lambda p, N: family_setup(p, N, lambda p, N, n: recurrence_coeffs(p, n)),
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
