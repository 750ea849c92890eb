"""Solution family attached to the integer relation beta = N + 1.

Here the two local exponents at the origin differ by the positive
integer N + 1, and the origin is an apparent singularity exactly when
the eigenvalue annihilates the family's accessory polynomial.  Under
that condition the equation admits finite sums of N + 1 q-hypergeometric
terms with two numerator rows (g3..g5, homogeneous) and a triple
g6..g8 whose members each solve the same inhomogeneous equation, so
that pairwise differences are again solutions.  family2_finite_evaluator
sums them: the series parameters move with x and not with k, so the
N + 1 series of a point share one chain and differ only in z_k.  The
bilateral forms g1 and g2 solve explicit inhomogeneous equations as
well.  The setup is accessory.family_setup over family2_recurrence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from ._bilateral import bilateral_evaluator, bilateral_table
from .accessory import (
    INTEGER_TOL,
    FamilySetup,
    Poly,
    RecurrenceCoeffs,
    accessory_poly,
    apparent_singularity_check,
    coeff_gap,
    coeff_row,
    exponent_at_origin,
    family_setup,
    one_root,
)
from .errors import ConvergenceError, DomainError, PreconditionError, QHeunError, typed_at_point
from .qcore import SeriesChain, q_pochhammer_ratio, theta
from .qheun_op import QHeunParams
from .qtransform import Seed, product_seed, seed_weight_exponent, source_system

POLY_MATCH_REL = 1e-10
# The exponent e of the weights xi**(e + k) of g1 in _bilateral.bilateral_table.
G1_EXPONENT = 1.0
BILATERAL_HYPOTHESIS = "bilateral forms need lambda1 + alpha2 > 1"

HomogeneousName = Literal["g3", "g4", "g5"]
TripleName = Literal["g6", "g7", "g8"]
BilateralName = Literal["g1", "g2"]


@dataclass(frozen=True)
class Family2Setup(FamilySetup):
    d_poly: Poly  # independent route: the generic origin recurrence run on p itself


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
    return RecurrenceCoeffs(x=x, y=y, z=z)


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
    return Family2Setup(**vars(family_setup(p, N, family2_recurrence)), d_poly=accessory_poly(p, N))


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

    qtransform.product_seed over both of the source system's pairs, with
    h1's exponent e1 its seed_weight_exponent and c_k the coefficients
    at the accessory root E0.  The returned Seed is callable; transform
    and boundary_limits step its factors along the integration spiral.
    """
    coeffs = coeff_row(setup, E0)
    src = family2_source_params(setup)
    return product_seed(src, src.pairs, seed_weight_exponent(src), setup.N, which, coeffs)


@typed_at_point
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


@typed_at_point
def g2_inhomogeneity(setup: Family2Setup, xi: complex, x: complex) -> complex:
    """Additive defect of g2 at anchor xi: Op g2 = E0 g2 + this term.

    It is the theta quotient prod theta(v) / prod theta(u) over the
    products u = num, v = den of g2's bilateral_table, times a scalar
    prefactor.
    """
    p = setup.params
    q = p.q
    lam = setup.lambda1
    xi = complex(xi)
    x = complex(x)
    power, num, den, _, _ = bilateral_table(setup, p.pairs, G1_EXPONENT, "g2", xi, x)
    ratio = math.prod(theta(v, q) for v in den) / math.prod(theta(u, q) for u in num)
    return (
        -(1.0 - q)
        * x ** power
        * q ** (-lam + p.h1 + p.h2 + 1.0)
        * xi ** (-lam - p.alpha2 - setup.N - 1.0)
        * ratio
        * (q ** (-lam - p.alpha1 - setup.N) - 1.0)
        * p.t1
        * p.t2
    )


def family2_bilateral(
    setup: Family2Setup,
    which: BilateralName,
    E0: complex,
    xi: complex,
    x: complex,
) -> complex:
    """Bilateral form g1 or g2 at anchor xi and point x."""
    return one_root(family2_bilateral_evaluator(setup, which, xi, [coeff_row(setup, E0)])([0], x))


def family2_bilateral_evaluator(
    setup: Family2Setup, which: BilateralName, xi: complex, rows: Sequence[Sequence[complex]]
) -> Callable[[Sequence[int], complex], list[complex | QHeunError]]:
    """at(live, x): g1 or g2 at (xi, x) for each row of rows at a position in
    live, its value or its error (_bilateral.bilateral_evaluator over both
    pairs, with g1's weight exponent G1_EXPONENT)."""
    hypothesis = None if setup.lambda1 + setup.params.alpha2 > 1.0 else BILATERAL_HYPOTHESIS
    return bilateral_evaluator(setup, setup.params.pairs, G1_EXPONENT, which, xi, hypothesis, rows)


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
    return one_root(family2_finite_evaluator(setup, which, [coeff_row(setup, E0)])([0], x))


def family2_inhomogeneous_triple(
    setup: Family2Setup,
    which: TripleName,
    E0: complex,
    x: complex,
) -> complex:
    """Member of the g6..g8 triple; each solves the same inhomogeneous
    equation as g1, so pairwise differences are homogeneous solutions."""
    return one_root(family2_finite_evaluator(setup, which, [coeff_row(setup, E0)])([0], x))


def family2_finite_evaluator(
    setup: Family2Setup, which: HomogeneousName | TripleName, rows: Sequence[Sequence[complex]]
) -> Callable[[Sequence[int], complex], list[complex]]:
    """at(live, x): g3..g8 at x, after the form's checks, for each coefficient
    row c_0..c_N of rows at a position in live.

    Each sums base**(k + shift) 3phi2(a1, a2, a3; b1, b2; q, z_k) over k.
    g3/g4 take z_k = q**(lambda1 + alpha2 + N - k) and the prefactor
    x**lambda1 (b2; q)_inf / (a3; q)_inf, g5 the same z_k and
    x**(-alpha2) (b1, b2; q)_inf / (a1, a2; q)_inf; g6..g8 take
    z_k = q**(k + 1) and (1 - q) x**(-alpha1) (q, b1, b2; q)_inf / (a1, a2, a3; q)_inf.
    g3/g4 and g6/g7 are mirror images under the swap of the indices 1, 2.
    The series parameters move with x and not with k, so the N + 1 series
    of a point share one chain; the z_k are formed at the first point.
    """
    p = setup.params
    q, lam, N = p.q, setup.lambda1, setup.N
    homogeneous = which in ("g3", "g4", "g5")
    # (e, step, tail) of z_k = q**(e + step * k + tail)
    e, step, tail = (lam + p.alpha2 + N, -1, 0.0) if homogeneous else (0.0, 1, 1.0)
    zs: list[float] = []

    @typed_at_point
    def at(live: Sequence[int], x: complex) -> list[complex]:
        if homogeneous and not lam + p.alpha2 > 0.0:
            raise ConvergenceError("series argument needs lambda1 + alpha2 > 0")
        x = complex(x)
        if x == 0:
            raise DomainError("x must be nonzero")
        one, two = p.pairs
        (h, l, t), (h_o, l_o, t_o) = (one, two) if which in ("g3", "g6") else (two, one)
        if which in ("g3", "g4"):
            own, other = q ** (lam - h + l + p.alpha1), q ** (lam - h + l_o + p.alpha1) * t_o / t
            upper = ((own, other) if which == "g3" else (other, own)) + (q ** (-h + 0.5) * x / t,)
            lower = (q ** (-h + h_o + 1.0) * t_o / t, q ** (lam - h + p.alpha1 + 0.5) * x / t)
            base, shift, power = q ** (-lam + h - p.alpha1 + 0.5) * t, 0, lam
            ratio = lower[1:], upper[2:]
        elif which == "g5":
            upper = tuple(q ** (l_i + 0.5) * t_i / x for _, l_i, t_i in (one, two)) + (q ** (-lam - p.alpha1 + 1.0),)
            lower = tuple(q ** (-lam + h_i - p.alpha1 + 1.5) * t_i / x for h_i, _, t_i in (one, two))
            base, shift, power = x, -N, -p.alpha2
            ratio = lower, upper[:2]
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
        if not homogeneous:
            shift, power, ratio = 1, -p.alpha1, ((q, *lower), upper)
        if not zs:
            zs[:] = [q ** (e + step * k + tail) for k in range(N + 1)]
        cs = [rows[j] for j in live]
        totals = [0.0 + 0.0j] * len(cs)
        for k in range(N + 1):
            scalar = base ** (k + shift)
            if not cmath.isfinite(scalar):  # a negative power of a large base overflows
                scalar = (1.0 / base) ** -(k + shift)
            if k == 0:
                chain = SeriesChain(upper, lower, q)
            series = chain.sum(zs[k])
            totals = [total + scalar * c[k] * series for total, c in zip(totals, cs)]
        pref = x ** power
        if not homogeneous:
            pref = (1.0 - q) * pref
        pref = pref * q_pochhammer_ratio(*ratio, q)
        return [pref * total for total in totals]

    return at


def family2_pole_spirals(setup: Family2Setup) -> list[complex]:
    """Base points of every q-spiral on which some finite-sum form poles."""
    p = setup.params
    q = p.q
    lam = setup.lambda1
    out = []
    for (h, l, t) in p.pairs:
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
