"""Solution family attached to the integer relation h2 = l2 - 1 - N.

When the relation holds and the eigenvalue annihilates the family's
accessory polynomial, the equation admits solutions given by bilateral
series depending on a free anchor xi (g1, g2) and, at four special
anchors, by finite sums of N + 1 Gauss-type q-hypergeometric terms
(g3..g6).  The forms come in two convergence regimes: g3/g4 for small
|x|, g5/g6 for large |x|.  Each finite sum is a FiniteSum table,
evaluated by _finite_sum.finite_sum_rows; its scalar base is also the
special anchor of the form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

from ._bilateral import bilateral_form
from ._finite_sum import FiniteSum, QPower, finite_sum_rows
from .accessory import (
    INTEGER_TOL,
    Poly,
    RecurrenceCoeffs,
    coeff_row,
    exponent_at_origin,
    one_root,
    solve_accessory,
)
from .errors import ConvergenceError, ConvergenceHypothesisWarning, DomainError, PreconditionError, QHeunError
# Unused here, but perfbench/test_perfbench.py::test_tracing_restores_every_wrapped_function
# reads this module's binding of it.
from .qcore import q_pochhammer_ratio  # noqa: F401
from .qheun_op import QHeunParams
from .qtransform import Seed, source_system

UnilateralName = Literal["g3", "g4", "g5", "g6"]
BilateralName = Literal["g1", "g2"]

# The residual band of a finite sum sits this factor inside its domain.
BAND_SHRINK = 0.75


@dataclass(frozen=True)
class Family1Setup:
    params: QHeunParams
    N: int
    lambda1: float
    lambda2: float
    recurrence: tuple[RecurrenceCoeffs, ...]  # indices 1..N+1
    accessory: Poly
    roots: tuple[complex, ...]
    root_coeffs: dict[complex, tuple[complex, ...]]  # root -> c_0..c_N


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
    return RecurrenceCoeffs(n=n, x=x, y=y, z=z)


def family1_setup(p: QHeunParams, N: int) -> Family1Setup:
    """Validate the integer relation and assemble recurrence, polynomial, roots
    and the coefficients at each root."""
    if N < 0:
        raise DomainError("N must be non-negative")
    if abs(p.h2 - (p.l2 - 1.0 - N)) > INTEGER_TOL:
        raise PreconditionError("h2 != l2 - 1 - N")
    lam1 = exponent_at_origin(p)
    recurrence = tuple(family1_recurrence(p, N, n) for n in range(1, N + 2))
    cpoly, roots, root_coeffs = solve_accessory(recurrence, abs(p.t1 * p.t2))
    return Family1Setup(
        params=p,
        N=N,
        lambda1=lam1,
        lambda2=lam1 + p.beta,
        recurrence=recurrence,
        accessory=cpoly,
        roots=roots,
        root_coeffs=root_coeffs,
    )


def family1_source_params(setup: Family1Setup) -> QHeunParams:
    """Parameters of the system the transform seeds solve (mu0 = 0)."""
    return source_system(setup.params, mu0=0.0)


def family1_seed(setup: Family1Setup, which: Literal["h1", "h2"], E0: complex) -> Seed:
    """Seed solutions of the source system feeding the q-integral transform.

    h1 pairs with kernel P1 to produce g1; h2 pairs with P2 to produce
    g2.  Both carry the polynomial-type factor with coefficients
    evaluated at the accessory root E0:

        h1(s) = s^e1 (s/a; q)_inf / (s/b; q)_inf * sum_k c_k s^k,
        h2(s) = s^e2 (q^(h1+1/2) t1/s; q)_inf / (q^(l1+1/2) t1/s; q)_inf * sum_k c_k s^k,

    with a = q^(l1-1/2) t1, b = q^(h1-1/2) t1 in source parameters.  The
    returned Seed is callable; transform and boundary_limits step its
    factors along the integration spiral.
    """
    coeffs = coeff_row(setup, E0)
    src = family1_source_params(setup)
    q = src.q
    t1 = src.t1
    if which == "h1":
        expo = exponent_at_origin(src)
        a = q ** (src.l1 - 0.5) * t1
        b = q ** (src.h1 - 0.5) * t1
        return Seed(q, expo, coeffs, num=(1.0 / a,), den=(1.0 / b,))
    if which == "h2":
        return Seed(
            q, -src.alpha2 - setup.N, coeffs,
            inv_num=(q ** (src.h1 + 0.5) * t1,), inv_den=(q ** (src.l1 + 0.5) * t1,),
        )
    raise DomainError("which must be 'h1' or 'h2'")


def _bilateral_hypotheses_hold(setup: Family1Setup) -> bool:
    """lambda2 + alpha1 > 1 and lambda1 + alpha2 > 1, which the bilateral forms need."""
    p = setup.params
    return setup.lambda2 + p.alpha1 > 1.0 and setup.lambda1 + p.alpha2 > 1.0


def _bilateral_parts(setup: Family1Setup, which: BilateralName, xi: complex, x: complex):
    """Root-independent parts of g1/g2 at (xi, x): prefactor, products,
    the powers of xi that times c_k give the weights, and the rates."""
    if not _bilateral_hypotheses_hold(setup):
        raise PreconditionError("bilateral forms need lambda2 + alpha1 > 1 and lambda1 + alpha2 > 1")
    if xi == 0 or x == 0:
        raise DomainError("xi and x must be nonzero")
    p = setup.params
    q = p.q
    lam1 = setup.lambda1
    N = setup.N
    xi = complex(xi)
    x = complex(x)
    if which == "g1":
        num = [q ** (lam1 - p.h1 + p.alpha1 - 0.5) * xi / p.t1, xi / x]
        den = [q ** (-p.l1 + 0.5) * xi / p.t1, q ** (lam1 + p.alpha1) * xi / x]
        xi_powers = [xi ** (lam1 + p.alpha1 + p.beta + k) for k in range(N + 1)]
        rates = [q ** (lam1 + p.alpha1 + p.beta + k) for k in range(N + 1)]
        return (1.0 - q) * x ** (-p.alpha1), num, den, xi_powers, rates
    if which == "g2":
        num = [q ** (p.l1 + 0.5) * p.t1 / xi, q ** (-lam1 - p.alpha1 + 1.0) * x / xi]
        den = [q ** (-lam1 + p.h1 - p.alpha1 + 1.5) * p.t1 / xi, q * x / xi]
        xi_powers = [xi ** (-lam1 - p.alpha2 - N + k) for k in range(N + 1)]
        rates = [q ** (lam1 + p.alpha2 + N - k) for k in range(N + 1)]
        return (1.0 - q) * x ** lam1, num, den, xi_powers, rates
    raise DomainError("which must be 'g1' or 'g2'")


def family1_bilateral(
    setup: Family1Setup,
    which: BilateralName,
    E0: complex,
    xi: complex,
    x: complex,
) -> complex:
    """Bilateral solution g1 or g2 at anchor xi and point x."""
    return one_root(family1_bilateral_rows(setup, which, [coeff_row(setup, E0)], xi, x))


def family1_bilateral_rows(
    setup: Family1Setup,
    which: BilateralName,
    rows: Sequence[Sequence[complex]],
    xi: complex,
    x: complex,
) -> list[complex | QHeunError]:
    """g1 or g2 at (xi, x) for each coefficient row c_0..c_N of rows: its
    value or its error.

    The products are stepped along one walk per side for all rows; each
    row's sum forms its terms and stops as it would alone (bilateral_form).
    """
    return bilateral_form(_bilateral_parts(setup, which, xi, x), rows, setup.params.q)


def family1_domain(setup: Family1Setup, which: UnilateralName) -> tuple[float, float]:
    """|x| interval (lo, hi) on which the chosen unilateral form converges."""
    p = setup.params
    if which in ("g3", "g4"):
        return 0.0, p.q ** (p.h1 - 0.5) * abs(p.t1)
    if which in ("g5", "g6"):
        return p.q ** (p.l1 + 0.5) * abs(p.t1), float("inf")
    raise DomainError("which must be one of g3..g6")


def family1_residual_band(setup: Family1Setup, which: UnilateralName) -> tuple[float, float]:
    """|x| band on which x/q, x and qx all stay inside the form's domain."""
    lo, hi = family1_domain(setup, which)
    q = setup.params.q
    if hi == float("inf"):
        lo_safe = lo / q
        return lo_safe / BAND_SHRINK, lo_safe / BAND_SHRINK ** 3
    hi_safe = hi * q
    return hi_safe * BAND_SHRINK ** 3, hi_safe * BAND_SHRINK


def family1_unilateral(
    setup: Family1Setup,
    which: UnilateralName,
    E0: complex,
    x: complex,
) -> complex:
    """Finite-sum solution g3..g6 at the point x, inside its domain."""
    return one_root(family1_unilateral_rows(setup, which, [coeff_row(setup, E0)], x))


def family1_unilateral_rows(
    setup: Family1Setup,
    which: UnilateralName,
    rows: Sequence[Sequence[complex]],
    x: complex,
) -> list[complex]:
    """g3..g6 at x for each coefficient row c_0..c_N of rows (finite_sum_rows)."""
    x = complex(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    lo, hi = family1_domain(setup, which)
    if not (lo < abs(x) < hi):
        raise ConvergenceError(f"|x| = {abs(x)} outside the ({lo:.4g}, {hi:.4g}) domain of {which}")
    if not _bilateral_hypotheses_hold(setup):
        warnings.warn(
            "evaluating a unilateral form outside the bilateral hypotheses",
            ConvergenceHypothesisWarning,
            stacklevel=3,  # the caller of family1_unilateral
        )
    return finite_sum_rows(_unilateral_table(setup, which, x), rows)


def _unilateral_table(setup: Family1Setup, which: UnilateralName, x: complex) -> FiniteSum:
    """The FiniteSum of g3..g6 at the nonzero x.

    Term k carries (b; q)_inf / (a; q)_inf times 2phi1(u, a; b; q, z),
    where the upper parameter a and the lower parameter b move with k.
    """
    p = setup.params
    q = p.q
    lam1 = setup.lambda1
    lam2 = setup.lambda2
    N = setup.N
    shift = 0
    if which == "g3":
        base, power = q ** (-lam1 + p.h1 - p.alpha1 + 0.5) * p.t1, lam1
        u, a, b = q ** (lam1 + p.alpha1), QPower(lam1 + p.alpha2 + N, -1), QPower(-p.beta + 1.0, -1)
    elif which == "g4":
        base, power = q ** (-lam1 - p.alpha1 + 1.0) * x, lam2
        u, a, b = q ** (lam2 + p.alpha2 + N), QPower(lam2 + p.alpha1, 1), QPower(p.beta, 1, 1.0)
    elif which == "g5":
        base, power = q ** (p.l1 + 0.5) * p.t1, -p.alpha1
        u, a, b = q ** (lam1 + p.alpha1), QPower(lam2 + p.alpha1, 1), QPower(p.alpha1 - p.alpha2 - N, 1, 1.0)
    elif which == "g6":
        base, shift, power = x, -N, -p.alpha2
        u, a = q ** (lam2 + p.alpha2 + N), QPower(lam1 + p.alpha2 + N, -1)
        b = QPower(-p.alpha1 + p.alpha2 + 1.0 + N, -1)
    else:
        raise DomainError("which must be one of g3..g6")
    if which in ("g3", "g4"):
        z = q ** (-p.h1 + 0.5) * x / p.t1
    else:
        z = q ** (p.l1 + 0.5) * p.t1 / x
    return FiniteSum(q, N, x, base, shift, (u, a), (b,), z, power, ratio=((b,), (a,)))
