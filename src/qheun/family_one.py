"""Solution family attached to the integer relation h2 = l2 - 1 - N.

When the relation holds and the eigenvalue annihilates the family's
accessory polynomial, the equation admits solutions given by bilateral
series depending on a free anchor xi (g1, g2) and, at four special
anchors, by finite sums of N + 1 Gauss-type q-hypergeometric terms
(g3..g6).  The forms come in two convergence regimes: g3/g4 for small
|x|, g5/g6 for large |x|.  family1_unilateral_evaluator sums them; the
scalar base of a finite sum is also the special anchor of the form.
Only z, the base of g4/g6 and the prefactor move with x, so an
evaluator forms R_k and the series chain of each term once.  The
setup is accessory.family_setup over family1_recurrence.
"""

from __future__ import annotations

import cmath
import warnings
from typing import Callable, Literal, Sequence

from ._bilateral import bilateral_evaluator
from .accessory import (
    INTEGER_TOL,
    FamilySetup,
    RecurrenceCoeffs,
    coeff_row,
    exponent_at_origin,
    family_setup,
    one_root,
)
from .errors import (
    ConvergenceError,
    ConvergenceHypothesisWarning,
    DomainError,
    PreconditionError,
    QHeunError,
    typed_at_point,
)
from .qcore import SeriesChain, q_pochhammer_ratio
from .qheun_op import QHeunParams
from .qtransform import Seed, product_seed, source_system

UnilateralName = Literal["g3", "g4", "g5", "g6"]
BilateralName = Literal["g1", "g2"]

# The residual band of a finite sum sits this factor inside its domain.
BAND_SHRINK = 0.75
BILATERAL_HYPOTHESES = "bilateral forms need lambda2 + alpha1 > 1 and lambda1 + alpha2 > 1"


def family1_recurrence(p: QHeunParams, N: int, n: int) -> RecurrenceCoeffs:
    """Family-specific recurrence triple; equals the generic one on the
    double-swapped source system."""
    if n < 1:
        raise DomainError("recurrence index must be >= 1")
    q = p.q
    lam = exponent_at_origin(p)
    x = (
        p.t1
        * p.t2
        * q ** (-n + p.l1 + p.l2 + p.alpha2)
        * (1.0 - q ** n)
        * (1.0 - q ** (n - 1.0 + p.alpha1 + lam + p.beta))
    )
    y = (q ** (1.0 - n - p.beta) + q ** (n - 1.0 - N)) * q ** (-lam + p.h1 + 0.5) * p.t1 + (
        q ** (1.0 - n + p.alpha2) + q ** (n - 1.0 - N + p.alpha1)
    ) * q ** (p.l2 - 0.5) * p.t2
    z = (
        q ** (n - N - 2.0 + p.alpha1)
        * (1.0 - q ** (N - n + 1.0 + p.alpha2 + lam))
        * (1.0 - q ** (N - n + 2.0))
    )
    return RecurrenceCoeffs(x=x, y=y, z=z)


def family1_setup(p: QHeunParams, N: int) -> FamilySetup:
    """Validate the integer relation and assemble recurrence, polynomial, roots
    and the coefficients at each root."""
    if N < 0:
        raise DomainError("N must be non-negative")
    if abs(p.h2 - (p.l2 - 1.0 - N)) > INTEGER_TOL:
        raise PreconditionError("h2 != l2 - 1 - N")
    return family_setup(p, N, family1_recurrence)


def family1_source_params(setup: FamilySetup) -> QHeunParams:
    """Parameters of the system the transform seeds solve (mu0 = 0)."""
    return source_system(setup.params, mu0=0.0)


def family1_seed(setup: FamilySetup, which: Literal["h1", "h2"], E0: complex) -> Seed:
    """Seed solutions of the source system feeding the q-integral transform.

    h1 pairs with kernel P1 to produce g1; h2 pairs with P2 to produce
    g2.  Both carry the polynomial-type factor with coefficients
    evaluated at the accessory root E0: qtransform.product_seed over
    the source system's t1 pair, with h1's exponent e1 the source's
    exponent at the origin.  The returned Seed is callable; transform
    and boundary_limits step its factors along the integration spiral.
    """
    coeffs = coeff_row(setup, E0)
    src = family1_source_params(setup)
    return product_seed(src, src.pairs[:1], exponent_at_origin(src), setup.N, which, coeffs)


def _bilateral_hypotheses_hold(setup: FamilySetup) -> bool:
    """lambda2 + alpha1 > 1 and lambda1 + alpha2 > 1, which the bilateral forms need."""
    p = setup.params
    return setup.lambda2 + p.alpha1 > 1.0 and setup.lambda1 + p.alpha2 > 1.0


def family1_bilateral(
    setup: FamilySetup,
    which: BilateralName,
    E0: complex,
    xi: complex,
    x: complex,
) -> complex:
    """Bilateral solution g1 or g2 at anchor xi and point x."""
    return one_root(family1_bilateral_evaluator(setup, which, xi, [coeff_row(setup, E0)])([0], x))


def family1_bilateral_evaluator(
    setup: FamilySetup, which: BilateralName, xi: complex, rows: Sequence[Sequence[complex]]
) -> Callable[[Sequence[int], complex], list[complex | QHeunError]]:
    """at(live, x): g1 or g2 at (xi, x) for each row of rows at a position in
    live, its value or its error (_bilateral.bilateral_evaluator over the
    t1 pair, with g1's weight exponent lambda1 + alpha1 + beta)."""
    p = setup.params
    hypothesis = None if _bilateral_hypotheses_hold(setup) else BILATERAL_HYPOTHESES
    return bilateral_evaluator(setup, p.pairs[:1], setup.lambda1 + p.alpha1 + p.beta, which, xi, hypothesis, rows)


def family1_domain(setup: FamilySetup, which: UnilateralName) -> tuple[float, float]:
    """|x| interval (lo, hi) on which the chosen unilateral form converges."""
    p = setup.params
    if which in ("g3", "g4"):
        return 0.0, p.q ** (p.h1 - 0.5) * abs(p.t1)
    if which in ("g5", "g6"):
        return p.q ** (p.l1 + 0.5) * abs(p.t1), float("inf")
    raise DomainError("which must be one of g3..g6")


def family1_residual_band(setup: FamilySetup, which: UnilateralName) -> tuple[float, float]:
    """|x| band on which x/q, x and qx all stay inside the form's domain."""
    lo, hi = family1_domain(setup, which)
    q = setup.params.q
    if hi == float("inf"):
        lo_safe = lo / q
        return lo_safe / BAND_SHRINK, lo_safe / BAND_SHRINK ** 3
    hi_safe = hi * q
    return hi_safe * BAND_SHRINK ** 3, hi_safe * BAND_SHRINK


def family1_unilateral(
    setup: FamilySetup,
    which: UnilateralName,
    E0: complex,
    x: complex,
) -> complex:
    """Finite-sum solution g3..g6 at the point x, inside its domain."""
    return one_root(family1_unilateral_evaluator(setup, which, [coeff_row(setup, E0)])([0], x))


def family1_unilateral_evaluator(
    setup: FamilySetup, which: UnilateralName, rows: Sequence[Sequence[complex]]
) -> Callable[[Sequence[int], complex], list[complex]]:
    """at(live, x): g3..g6 at the nonzero x inside the form's domain, for each
    coefficient row c_0..c_N of rows at a position in live.

    The form is x**power sum_k c_k base**(k + shift) R_k 2phi1(u, a_k; b_k; q, z)
    with R_k = (b_k; q)_inf / (a_k; q)_inf, where a_k = q**(e + step * k + tail)
    and b_k likewise move with k, and only z, the base of g4/g6 and the
    prefactor move with x.  So the evaluator forms u, a_k, b_k, R_k and the
    series chain of term k the first time a point reaches k; a piece that
    fails is not kept.
    """
    p = setup.params
    q, N, lam1, lam2 = p.q, setup.N, setup.lambda1, setup.lambda2
    # power, u's exponent and (e, step, tail) of a_k and of b_k; an unknown form fails at its point
    power, e_u, a_exp, b_exp = {
        "g3": (lam1, lam1 + p.alpha1, (lam1 + p.alpha2 + N, -1, 0.0), (-p.beta + 1.0, -1, 0.0)),
        "g4": (lam2, lam2 + p.alpha2 + N, (lam2 + p.alpha1, 1, 0.0), (p.beta, 1, 1.0)),
        "g5": (-p.alpha1, lam1 + p.alpha1, (lam2 + p.alpha1, 1, 0.0), (p.alpha1 - p.alpha2 - N, 1, 1.0)),
        "g6": (
            -p.alpha2, lam2 + p.alpha2 + N, (lam1 + p.alpha2 + N, -1, 0.0), (-p.alpha1 + p.alpha2 + 1.0 + N, -1, 0.0)
        ),
    }.get(which, (None,) * 4)
    shift = -N if which == "g6" else 0
    hypotheses_hold = _bilateral_hypotheses_hold(setup)
    terms: list[tuple[complex, SeriesChain]] = []  # (R_k, the chain of term k) for each k reached

    @typed_at_point
    def at(live: Sequence[int], x: complex) -> list[complex]:
        x = complex(x)
        if x == 0:
            raise DomainError("x must be nonzero")
        lo, hi = family1_domain(setup, which)
        if not (lo < abs(x) < hi):
            raise ConvergenceError(f"|x| = {abs(x)} outside the ({lo:.4g}, {hi:.4g}) domain of {which}")
        if not hypotheses_hold:
            warnings.warn(
                "evaluating a unilateral form outside the bilateral hypotheses",
                ConvergenceHypothesisWarning,
                stacklevel=4,  # past typed_at_point, the caller of family1_unilateral
            )
        base = _unilateral_base(setup, which, x)
        z = q ** (-p.h1 + 0.5) * x / p.t1 if which in ("g3", "g4") else q ** (p.l1 + 0.5) * p.t1 / x
        cs = [rows[j] for j in live]
        totals = [0.0 + 0.0j] * len(cs)
        for k in range(N + 1):
            scalar = base ** (k + shift)
            if not cmath.isfinite(scalar):  # a negative power of a large base overflows
                scalar = (1.0 / base) ** -(k + shift)
            if k == len(terms):
                u, (a, b) = q ** e_u, [q ** (e + step * k + tail) for e, step, tail in (a_exp, b_exp)]
                terms.append((q_pochhammer_ratio([b], [a], q), SeriesChain([u, a], [b], q)))
            ratio, chain = terms[k]
            series = chain.sum(z)
            totals = [total + scalar * c[k] * ratio * series for total, c in zip(totals, cs)]
        pref = x ** power
        return [pref * total for total in totals]

    return at


def _unilateral_base(setup: FamilySetup, which: UnilateralName, x: complex) -> complex:
    """The scalar base of g3..g6 at x, which is also the form's special anchor."""
    p = setup.params
    if which == "g3":
        return p.q ** (-setup.lambda1 + p.h1 - p.alpha1 + 0.5) * p.t1
    if which == "g4":
        return p.q ** (-setup.lambda1 - p.alpha1 + 1.0) * x
    if which == "g5":
        return p.q ** (p.l1 + 0.5) * p.t1
    return x
