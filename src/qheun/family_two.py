"""Solution family attached to the integer relation beta = N + 1.

Here the two local exponents at the origin differ by the positive
integer N + 1, and the origin is an apparent singularity exactly when
the eigenvalue annihilates the family's accessory polynomial.  Under
that condition the equation admits finite sums of N + 1 q-hypergeometric
terms with two numerator rows (g3..g5, homogeneous) and a triple
g6..g8 whose members each solve the same inhomogeneous equation, so
that pairwise differences are again solutions.  The bilateral forms g1
and g2 solve explicit inhomogeneous equations as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from ._bilateral import bilateral_form
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
from .qcore import phi_series, q_pochhammer_ratio, theta
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


def polys_match(a: Poly, b: Poly, rel: float = POLY_MATCH_REL) -> bool:
    """Coefficient-wise agreement relative to the larger coefficient scale."""
    return coeff_gap(a, b) <= rel


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
    (value,) = family2_homogeneous_rows(setup, which, [coeff_row(setup, E0)], x)
    return value


def family2_homogeneous_rows(
    setup: Family2Setup,
    which: HomogeneousName,
    rows: Sequence[Sequence[complex]],
    x: complex,
) -> list[complex]:
    """g3, g4 or g5 at x for each coefficient row c_0..c_N of rows.

    Scalar, series and prefactor are formed once and combined per row in
    the single-row order.
    """
    p = setup.params
    q = p.q
    lam = setup.lambda1
    N = setup.N
    if not lam + p.alpha2 > 0.0:
        raise ConvergenceError("series argument needs lambda1 + alpha2 > 0")
    x = complex(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    totals = [0.0 + 0.0j] * len(rows)
    for k in range(N + 1):
        z = q ** (lam + p.alpha2 + N - k)
        if which == "g3":
            scalar = (q ** (-lam + p.h1 - p.alpha1 + 0.5) * p.t1) ** k
            series = phi_series(
                [
                    q ** (lam - p.h1 + p.l1 + p.alpha1),
                    q ** (lam - p.h1 + p.l2 + p.alpha1) * p.t2 / p.t1,
                    q ** (-p.h1 + 0.5) * x / p.t1,
                ],
                [
                    q ** (-p.h1 + p.h2 + 1.0) * p.t2 / p.t1,
                    q ** (lam - p.h1 + p.alpha1 + 0.5) * x / p.t1,
                ],
                q,
                z,
            )
        elif which == "g4":
            scalar = (q ** (-lam + p.h2 - p.alpha1 + 0.5) * p.t2) ** k
            series = phi_series(
                [
                    q ** (lam - p.h2 + p.l1 + p.alpha1) * p.t1 / p.t2,
                    q ** (lam - p.h2 + p.l2 + p.alpha1),
                    q ** (-p.h2 + 0.5) * x / p.t2,
                ],
                [
                    q ** (p.h1 - p.h2 + 1.0) * p.t1 / p.t2,
                    q ** (lam - p.h2 + p.alpha1 + 0.5) * x / p.t2,
                ],
                q,
                z,
            )
        else:
            scalar = x ** (k - N)
            series = phi_series(
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
        totals = [total + scalar * c[k] * series for total, c in zip(totals, rows)]

    if which == "g3":
        pref = x ** lam * q_pochhammer_ratio(
            [q ** (lam - p.h1 + p.alpha1 + 0.5) * x / p.t1],
            [q ** (-p.h1 + 0.5) * x / p.t1],
            q,
        )
    elif which == "g4":
        pref = x ** lam * q_pochhammer_ratio(
            [q ** (lam - p.h2 + p.alpha1 + 0.5) * x / p.t2],
            [q ** (-p.h2 + 0.5) * x / p.t2],
            q,
        )
    else:
        pref = x ** (-p.alpha2) * q_pochhammer_ratio(
            [
                q ** (-lam + p.h1 - p.alpha1 + 1.5) * p.t1 / x,
                q ** (-lam + p.h2 - p.alpha1 + 1.5) * p.t2 / x,
            ],
            [q ** (p.l1 + 0.5) * p.t1 / x, q ** (p.l2 + 0.5) * p.t2 / x],
            q,
        )
    return [pref * total for total in totals]


def family2_inhomogeneous_triple(
    setup: Family2Setup,
    which: TripleName,
    E0: complex,
    x: complex,
) -> complex:
    """Member of the g6..g8 triple; each solves the same inhomogeneous
    equation as g1, so pairwise differences are homogeneous solutions."""
    (value,) = family2_triple_rows(setup, which, [coeff_row(setup, E0)], x)
    return value


def family2_triple_rows(
    setup: Family2Setup,
    which: TripleName,
    rows: Sequence[Sequence[complex]],
    x: complex,
) -> list[complex]:
    """g6, g7 or g8 at x for each coefficient row c_0..c_N of rows.

    Scalar, series and prefactor are formed once and combined per row in
    the single-row order.
    """
    p = setup.params
    q = p.q
    lam = setup.lambda1
    N = setup.N
    x = complex(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    if which == "g6":
        l_a, l_b = p.l1, p.l2
        t_a, t_b = p.t1, p.t2
    elif which == "g7":
        l_a, l_b = p.l2, p.l1
        t_a, t_b = p.t2, p.t1
    elif which != "g8":
        raise DomainError("which must be one of g6..g8")

    totals = [0.0 + 0.0j] * len(rows)
    for k in range(N + 1):
        z = q ** (k + 1.0)
        if which in ("g6", "g7"):
            scalar = (q ** (l_a + 0.5) * t_a) ** (k + 1)
            series = phi_series(
                [
                    q ** (lam - p.h1 + l_a + p.alpha1) * (t_a / p.t1 if which == "g7" else 1.0),
                    q ** (lam - p.h2 + l_a + p.alpha1) * (t_a / p.t2 if which == "g6" else 1.0),
                    q ** (l_a + 0.5) * t_a / x,
                ],
                [
                    q ** (l_a - l_b + 1.0) * t_a / t_b,
                    q ** (lam + l_a + p.alpha1 + 0.5) * t_a / x,
                ],
                q,
                z,
            )
        else:
            scalar = (q ** (-lam - p.alpha1 + 1.0) * x) ** (k + 1)
            series = phi_series(
                [
                    q ** (-lam - p.alpha1 + 1.0),
                    q ** (-p.h1 + 0.5) * x / p.t1,
                    q ** (-p.h2 + 0.5) * x / p.t2,
                ],
                [
                    q ** (-lam - p.l1 - p.alpha1 + 1.5) * x / p.t1,
                    q ** (-lam - p.l2 - p.alpha1 + 1.5) * x / p.t2,
                ],
                q,
                z,
            )
        totals = [total + scalar * c[k] * series for total, c in zip(totals, rows)]

    if which in ("g6", "g7"):
        pref = q_pochhammer_ratio(
            [
                q,
                q ** (l_a - l_b + 1.0) * t_a / t_b,
                q ** (lam + l_a + p.alpha1 + 0.5) * t_a / x,
            ],
            [
                q ** (lam - p.h1 + l_a + p.alpha1) * (t_a / p.t1 if which == "g7" else 1.0),
                q ** (lam - p.h2 + l_a + p.alpha1) * (t_a / p.t2 if which == "g6" else 1.0),
                q ** (l_a + 0.5) * t_a / x,
            ],
            q,
        )
    else:
        pref = q_pochhammer_ratio(
            [
                q,
                q ** (-lam - p.l1 - p.alpha1 + 1.5) * x / p.t1,
                q ** (-lam - p.l2 - p.alpha1 + 1.5) * x / p.t2,
            ],
            [
                q ** (-lam - p.alpha1 + 1.0),
                q ** (-p.h1 + 0.5) * x / p.t1,
                q ** (-p.h2 + 0.5) * x / p.t2,
            ],
            q,
        )
    factor = (1.0 - q) * x ** (-p.alpha1) * pref
    return [factor * total for total in totals]


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
