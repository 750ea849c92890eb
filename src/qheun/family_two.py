"""Solution family attached to the integer relation beta = N + 1.

Here the two local exponents at the origin differ by the positive
integer N + 1, and the origin is an apparent singularity exactly when
the eigenvalue annihilates the family's accessory polynomial.  Under
that condition the equation admits finite sums of N + 1 q-hypergeometric
terms with two numerator rows (g3..g5, homogeneous) and a triple
g6..g8 whose members each solve the same inhomogeneous equation, so
that pairwise differences are again solutions.  Each finite sum is a
FiniteSum table, evaluated by _finite_sum.finite_sum_rows.  The
bilateral forms g1 and g2 solve explicit inhomogeneous equations as
well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from ._bilateral import bilateral_form
from ._finite_sum import FiniteSum, QPower, finite_sum_rows
from .accessory import (
    INTEGER_TOL,
    Poly,
    RecurrenceCoeffs,
    accessory_poly,
    apparent_singularity_check,
    coeff_gap,
    coeff_row,
    exponent_at_origin,
    one_root,
    solve_accessory,
)
from .errors import ConvergenceError, DomainError, PreconditionError, QHeunError
from .qcore import theta
from .qheun_op import QHeunParams
from .qtransform import Seed, seed_weight_exponent, source_system

POLY_MATCH_REL = 1e-10

HomogeneousName = Literal["g3", "g4", "g5"]
TripleName = Literal["g6", "g7", "g8"]
BilateralName = Literal["g1", "g2"]


@dataclass(frozen=True)
class Family2Setup:
    params: QHeunParams
    N: int
    lambda1: float
    recurrence: tuple[RecurrenceCoeffs, ...]  # indices 1..N+1
    accessory: Poly
    d_poly: Poly
    roots: tuple[complex, ...]
    root_coeffs: dict[complex, tuple[complex, ...]]  # root -> c_0..c_N


def family2_recurrence(p: QHeunParams, N: int, n: int) -> RecurrenceCoeffs:
    """Family-specific recurrence triple (reversed-index mirror of the
    generic one)."""
    if n < 1:
        raise DomainError("recurrence index must be >= 1")
    q = p.q
    lam = exponent_at_origin(p)
    x = (
        p.t1
        * p.t2
        * q ** (n - N + 1.0 + p.h1 + p.h2 - p.alpha1 - 2.0 * lam)
        * (1.0 - q ** (-n))
        * (1.0 - q ** (N - n + lam + p.alpha1))
    )
    y = q ** (N - n + 0.5 + lam + p.alpha1 + p.alpha2) * (
        q ** p.l1 * p.t1 + q ** p.l2 * p.t2
    ) + q ** (n - N - 0.5 - lam) * (q ** p.h1 * p.t1 + q ** p.h2 * p.t2)
    z = (
        q ** (n - N - 2.0 + p.alpha1)
        * (1.0 - q ** (N - n + 1.0 + lam + p.alpha2))
        * (1.0 - q ** (N - n + 2.0))
    )
    return RecurrenceCoeffs(n=n, x=x, y=y, z=z)


def family2_setup(p: QHeunParams, N: int) -> Family2Setup:
    """Validate beta = N + 1, assemble both accessory routes and the roots."""
    if N < 0:
        raise DomainError("N must be non-negative")
    if abs(p.beta - (N + 1.0)) > INTEGER_TOL:
        raise PreconditionError("beta != N+1")
    lam = exponent_at_origin(p)
    shift = -lam - p.alpha1
    for m in range(N):
        if abs(shift - m) < INTEGER_TOL:
            raise PreconditionError("-lambda1 - alpha1 lies in {0..N-1}")
    recurrence = tuple(family2_recurrence(p, N, n) for n in range(1, N + 2))
    cpoly, roots, root_coeffs = solve_accessory(recurrence, abs(p.t1 * p.t2))
    return Family2Setup(
        params=p,
        N=N,
        lambda1=lam,
        recurrence=recurrence,
        accessory=cpoly,
        # Independent route: the generic origin recurrence run on p itself.
        d_poly=accessory_poly(p, N),
        roots=roots,
        root_coeffs=root_coeffs,
    )


def polys_match(a: Poly, b: Poly) -> bool:
    """Coefficient-wise agreement, to POLY_MATCH_REL, relative to the larger coefficient scale."""
    return coeff_gap(a, b) <= POLY_MATCH_REL


def apparent_equivalence(setup: Family2Setup) -> bool:
    """True when both accessory routes agree and every root passes the
    direct closing-relation test at index N + 1."""
    if not polys_match(setup.accessory, setup.d_poly):
        return False
    return all(
        apparent_singularity_check(setup.params, r, setup.N) for r in setup.roots
    )


def family2_source_params(setup: Family2Setup) -> QHeunParams:
    """Parameters of the system the transform seeds solve (mu0 = 0)."""
    return source_system(setup.params, mu0=0.0)


def family2_seed(setup: Family2Setup, which: Literal["h1", "h2"], E0: complex) -> Seed:
    """Seeds of the source system: h1 feeds kernel P1 (-> g1), h2 feeds P2 (-> g2).

        h1(s) = s^e1 prod_i (s/a_i; q)_inf / (s/b_i; q)_inf * sum_k c_k s^k,
        h2(s) = s^e2 prod_i (q^(h_i+1/2) t_i/s; q)_inf / (q^(l_i+1/2) t_i/s; q)_inf * sum_k c_k s^k,

    with a_i = q^(l_i-1/2) t_i, b_i = q^(h_i-1/2) t_i in source
    parameters and c_k the coefficients at the accessory root E0.  The
    returned Seed is callable; transform and boundary_limits step its
    factors along the integration spiral.
    """
    coeffs = coeff_row(setup, E0)
    src = family2_source_params(setup)
    q = src.q
    if which == "h1":
        expo = seed_weight_exponent(src)
        num = (1.0 / (q ** (src.l1 - 0.5) * src.t1), 1.0 / (q ** (src.l2 - 0.5) * src.t2))
        den = (1.0 / (q ** (src.h1 - 0.5) * src.t1), 1.0 / (q ** (src.h2 - 0.5) * src.t2))
        return Seed(q, expo, coeffs, num=num, den=den)
    if which == "h2":
        return Seed(
            q, -src.alpha2 - setup.N, coeffs,
            inv_num=(q ** (src.h1 + 0.5) * src.t1, q ** (src.h2 + 0.5) * src.t2),
            inv_den=(q ** (src.l1 + 0.5) * src.t1, q ** (src.l2 + 0.5) * src.t2),
        )
    raise DomainError("which must be 'h1' or 'h2'")


def g1_inhomogeneity(setup: Family2Setup, x: complex) -> complex:
    """Additive defect of g1 (and of g6..g8): Op g = E0 g + this term."""
    p = setup.params
    q = p.q
    lam = setup.lambda1
    return (
        -(1.0 - q)
        * complex(x) ** (-p.alpha1)
        * q ** (-lam + p.h1 + p.h2 + 1.0)
        * (q ** (-lam - p.alpha1 - setup.N) - 1.0)
        * p.t1
        * p.t2
    )


def g2_inhomogeneity(setup: Family2Setup, xi: complex, x: complex) -> complex:
    """Additive defect of g2 at anchor xi: Op g2 = E0 g2 + this term."""
    p = setup.params
    q = p.q
    lam = setup.lambda1
    xi = complex(xi)
    x = complex(x)
    ratio = (
        theta(q ** (-lam + p.h1 - p.alpha1 + 1.5) * p.t1 / xi, q)
        * theta(q ** (-lam + p.h2 - p.alpha1 + 1.5) * p.t2 / xi, q)
        * theta(q * x / xi, q)
        / (
            theta(q ** (p.l1 + 0.5) * p.t1 / xi, q)
            * theta(q ** (p.l2 + 0.5) * p.t2 / xi, q)
            * theta(q ** (-lam - p.alpha1 + 1.0) * x / xi, q)
        )
    )
    return (
        -(1.0 - q)
        * x ** lam
        * q ** (-lam + p.h1 + p.h2 + 1.0)
        * xi ** (-lam - p.alpha2 - setup.N - 1.0)
        * ratio
        * (q ** (-lam - p.alpha1 - setup.N) - 1.0)
        * p.t1
        * p.t2
    )


def _bilateral_parts(setup: Family2Setup, which: BilateralName, xi: complex, x: complex):
    """Root-independent parts of g1/g2 at (xi, x): prefactor, products,
    the powers of xi that times c_k give the weights, and the rates."""
    p = setup.params
    if not setup.lambda1 + p.alpha2 > 1.0:
        raise PreconditionError("bilateral forms need lambda1 + alpha2 > 1")
    if xi == 0 or x == 0:
        raise DomainError("xi and x must be nonzero")
    q = p.q
    lam = setup.lambda1
    N = setup.N
    xi = complex(xi)
    x = complex(x)
    if which == "g1":
        num = [
            q ** (lam - p.h1 + p.alpha1 - 0.5) * xi / p.t1,
            q ** (lam - p.h2 + p.alpha1 - 0.5) * xi / p.t2,
            xi / x,
        ]
        den = [
            q ** (-p.l1 + 0.5) * xi / p.t1,
            q ** (-p.l2 + 0.5) * xi / p.t2,
            q ** (lam + p.alpha1) * xi / x,
        ]
        xi_powers = [xi ** (k + 1.0) for k in range(N + 1)]
        rates = [q ** (k + 1.0) for k in range(N + 1)]
        return (1.0 - q) * x ** (-p.alpha1), num, den, xi_powers, rates
    if which == "g2":
        num = [
            q ** (p.l1 + 0.5) * p.t1 / xi,
            q ** (p.l2 + 0.5) * p.t2 / xi,
            q ** (-lam - p.alpha1 + 1.0) * x / xi,
        ]
        den = [
            q ** (-lam + p.h1 - p.alpha1 + 1.5) * p.t1 / xi,
            q ** (-lam + p.h2 - p.alpha1 + 1.5) * p.t2 / xi,
            q * x / xi,
        ]
        xi_powers = [xi ** (-lam - p.alpha2 - N + k) for k in range(N + 1)]
        rates = [q ** (lam + p.alpha2 + N - k) for k in range(N + 1)]
        return (1.0 - q) * x ** lam, num, den, xi_powers, rates
    raise DomainError("which must be 'g1' or 'g2'")


def family2_bilateral(
    setup: Family2Setup,
    which: BilateralName,
    E0: complex,
    xi: complex,
    x: complex,
) -> complex:
    """Bilateral form g1 or g2 at anchor xi and point x."""
    return one_root(family2_bilateral_rows(setup, which, [coeff_row(setup, E0)], xi, x))


def family2_bilateral_rows(
    setup: Family2Setup,
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


def family2_homogeneous(
    setup: Family2Setup,
    which: HomogeneousName,
    E0: complex,
    x: complex,
) -> complex:
    """Homogeneous finite-sum solution g3, g4 or g5.

    The inner series argument is x-independent with modulus
    q^(lambda1 + alpha2 + N - k); lambda1 + alpha2 > 0 is required for
    convergence of every term.
    """
    return one_root(family2_finite_rows(setup, which, [coeff_row(setup, E0)], x))


def family2_inhomogeneous_triple(
    setup: Family2Setup,
    which: TripleName,
    E0: complex,
    x: complex,
) -> complex:
    """Member of the g6..g8 triple; each solves the same inhomogeneous
    equation as g1, so pairwise differences are homogeneous solutions."""
    return one_root(family2_finite_rows(setup, which, [coeff_row(setup, E0)], x))


def family2_finite_rows(
    setup: Family2Setup,
    which: HomogeneousName | TripleName,
    rows: Sequence[Sequence[complex]],
    x: complex,
) -> list[complex]:
    """g3..g8 at x for each coefficient row c_0..c_N of rows (finite_sum_rows).

    Each sums 3phi2(a1, a2, a3; b1, b2; q, z_k) series.  g3/g4 take
    z_k = q**(lambda1 + alpha2 + N - k) and the prefactor
    x**lambda1 (b2; q)_inf / (a3; q)_inf, g5 the same z_k and
    x**(-alpha2) (b1, b2; q)_inf / (a1, a2; q)_inf; g6..g8 take
    z_k = q**(k + 1) and (1 - q) x**(-alpha1) (q, b1, b2; q)_inf / (a1, a2, a3; q)_inf.
    g3/g4 and g6/g7 are mirror images under the swap of the indices 1, 2.
    """
    p = setup.params
    q = p.q
    lam = setup.lambda1
    N = setup.N
    if which in ("g3", "g4", "g5") and not lam + p.alpha2 > 0.0:
        raise ConvergenceError("series argument needs lambda1 + alpha2 > 0")
    x = complex(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    one, two = (p.h1, p.l1, p.t1), (p.h2, p.l2, p.t2)
    (h, l, t), (h_o, l_o, t_o) = (one, two) if which in ("g3", "g6") else (two, one)
    if which in ("g3", "g4"):
        own, other = q ** (lam - h + l + p.alpha1), q ** (lam - h + l_o + p.alpha1) * t_o / t
        upper = ((own, other) if which == "g3" else (other, own)) + (q ** (-h + 0.5) * x / t,)
        lower = (q ** (-h + h_o + 1.0) * t_o / t, q ** (lam - h + p.alpha1 + 0.5) * x / t)
        base, shift, power = q ** (-lam + h - p.alpha1 + 0.5) * t, 0, lam
        prefactor_ratio = lower[1:], upper[2:]
    elif which == "g5":
        upper = tuple(q ** (l_i + 0.5) * t_i / x for _, l_i, t_i in (one, two)) + (q ** (-lam - p.alpha1 + 1.0),)
        lower = tuple(q ** (-lam + h_i - p.alpha1 + 1.5) * t_i / x for h_i, _, t_i in (one, two))
        base, shift, power = x, -N, -p.alpha2
        prefactor_ratio = lower, upper[:2]
    elif which in ("g6", "g7"):
        own, other = q ** (lam - h + l + p.alpha1), q ** (lam - h_o + l + p.alpha1) * (t / t_o)
        upper = ((own, other) if which == "g6" else (other, own)) + (q ** (l + 0.5) * t / x,)
        lower = (q ** (l - l_o + 1.0) * t / t_o, q ** (lam + l + p.alpha1 + 0.5) * t / x)
        base = q ** (l + 0.5) * t
    elif which == "g8":
        upper = (q ** (-lam - p.alpha1 + 1.0),) + tuple(q ** (-h_i + 0.5) * x / t_i for h_i, _, t_i in (one, two))
        lower = tuple(q ** (-lam - l_i - p.alpha1 + 1.5) * x / t_i for _, l_i, t_i in (one, two))
        base = q ** (-lam - p.alpha1 + 1.0) * x
    else:
        raise DomainError("which must be one of g3..g8")
    if which in ("g3", "g4", "g5"):
        z, constant = QPower(lam + p.alpha2 + N, -1), None
    else:
        z, constant, shift, power = QPower(0.0, 1, 1.0), 1.0 - q, 1, -p.alpha1
        prefactor_ratio = (q, *lower), upper
    spec = FiniteSum(q, N, x, base, shift, upper, lower, z, power, constant, prefactor_ratio)
    return finite_sum_rows(spec, rows)


def family2_pole_spirals(setup: Family2Setup) -> list[complex]:
    """Base points of every q-spiral on which some finite-sum form poles."""
    p = setup.params
    q = p.q
    lam = setup.lambda1
    out = []
    for (h, l, t) in ((p.h1, p.l1, p.t1), (p.h2, p.l2, p.t2)):
        out.extend(
            [
                q ** (h + 0.5) * t,
                q ** (h - 0.5) * t,
                q ** (l + 0.5) * t,
                q ** (l - 0.5) * t,
                q ** (-lam + h - p.alpha1 + 1.5) * t,
                q ** (-lam + h - p.alpha1 - 0.5) * t,
                q ** (lam + l + p.alpha1 + 0.5) * t,
                q ** (lam + l + p.alpha1 - 1.5) * t,
            ]
        )
    return out
