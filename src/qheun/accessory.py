"""Accessory polynomials and local series solutions at the origin.

A formal solution x^lambda * sum c_n x^n of the eigen-equation forces
the coefficients through a three-term recurrence.  Truncating at degree
N and demanding consistency yields a monic polynomial of degree N + 1
in the eigenvalue; its roots are exactly the eigenvalues admitting
polynomial-type solutions (under the integer exponent condition) or an
apparent singularity at the origin (when beta = N + 1).  The roots are
companion-matrix eigenvalues; the coefficients c_0..c_N at each root are
an eigenvector of the recurrence's tridiagonal matrix, solved once per setup.
coeff_row checks an eigenvalue against the polynomial and returns the
coefficients of its root: the one way a solution form takes a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateRecurrence,
    DomainError,
    NoConvergence,
    NotARoot,
    PreconditionError,
    QHeunError,
)
from .qheun_op import QHeunParams

INTEGER_TOL = 1e-9
DEGENERATE_REL = 1e-14


@dataclass(frozen=True)
class Poly:
    """Dense complex polynomial; coeffs[k] multiplies the k-th power."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(values: Sequence[complex]) -> "Poly":
        cs = [complex(v) for v in values]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> complex:
        return self.coeffs[-1]

    def __call__(self, value: complex) -> complex:
        return horner(self.coeffs, value)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return Poly.of([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1.0)

    def scaled(self, s: complex) -> "Poly":
        return Poly.of([s * c for c in self.coeffs])

    def times_linear(self, y: complex) -> "Poly":
        """Multiply by (X + y) where X is the polynomial variable."""
        shifted = [0j] + list(self.coeffs)
        for i, c in enumerate(self.coeffs):
            shifted[i] += y * c
        return Poly.of(shifted)


def horner(coeffs: Sequence[complex], x: complex) -> complex:
    """sum coeffs[k] x**k by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def coeff_gap(a: Poly, b: Poly) -> float:
    """Largest coefficient difference relative to the larger coefficient scale."""
    n = max(len(a.coeffs), len(b.coeffs))
    ca = list(a.coeffs) + [0j] * (n - len(a.coeffs))
    cb = list(b.coeffs) + [0j] * (n - len(b.coeffs))
    scale = max(max(abs(v) for v in ca), max(abs(v) for v in cb), 1e-300)
    return max(abs(x - y) for x, y in zip(ca, cb)) / scale


POLY_ONE = Poly((1.0 + 0.0j,))
POLY_ZERO = Poly((0.0 + 0.0j,))


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Triple (x_n, y_n, z_n) driving a three-term coefficient recurrence."""

    n: int
    x: complex
    y: complex
    z: complex


@dataclass(frozen=True)
class SeriesSolution:
    """A local solution x^exponent * sum coeffs[n] x^n (DomainError at 0 if exponent < 0)."""

    exponent: float
    coeffs: tuple[complex, ...]

    def __call__(self, x: complex) -> complex:
        x = complex(x)
        if x == 0 and self.exponent < 0:
            raise DomainError("a negative exponent has no value at x = 0")
        return x ** self.exponent * horner(self.coeffs, x)


def exponent_at_origin(p: QHeunParams) -> float:
    """The smaller local exponent at x = 0; the other one is this plus beta."""
    return (p.h1 + p.h2 - p.l1 - p.l2 - p.alpha1 - p.alpha2 - p.beta + 2.0) / 2.0


def recurrence_coeffs(p: QHeunParams, n: int) -> RecurrenceCoeffs:
    """Recurrence data of the local series at the origin, index n >= 1."""
    if n < 1:
        raise DomainError("recurrence index must be >= 1")
    q = p.q
    lam = exponent_at_origin(p)
    x = (
        p.t1
        * p.t2
        * q ** (1.0 - n + p.h1 + p.h2 - lam)
        * (1.0 - q ** n)
        * (1.0 - q ** (n - p.beta))
    )
    y = q ** (1.5 - n - lam) * (q ** p.h1 * p.t1 + q ** p.h2 * p.t2) + q ** (
        n - 1.5 + lam + p.alpha1 + p.alpha2
    ) * (q ** p.l1 * p.t1 + q ** p.l2 * p.t2)
    z = (
        q ** (2.0 - n - lam)
        * (1.0 - q ** (n - 2.0 + lam + p.alpha1))
        * (1.0 - q ** (n - 2.0 + lam + p.alpha2))
    )
    return RecurrenceCoeffs(n=n, x=x, y=y, z=z)


def run_poly_recursion(
    triple: Callable[[int], RecurrenceCoeffs],
    N: int,
    scale: float,
) -> tuple[list[Poly], Poly]:
    """Coefficient polynomials c_0..c_N and the consistency polynomial.

    c_0 = 1 and x_n c_n = c_{n-1}(E + y_n) - c_{n-2} z_n; the returned
    consistency polynomial is x_1..x_N [c_N (E + y_{N+1}) - c_{N-1} z_{N+1}],
    monic of degree N + 1.  Raises DegenerateRecurrence when some x_n
    with n <= N is numerically zero relative to the supplied scale.
    """
    if N < 0:
        raise DomainError("N must be non-negative")
    polys = [POLY_ONE]
    prev = POLY_ZERO
    xs_product = 1.0 + 0.0j
    for n in range(1, N + 1):
        rc = triple(n)
        if abs(rc.x) < DEGENERATE_REL * scale:
            raise DegenerateRecurrence(f"leading coefficient x_{n} vanishes")
        nxt = (polys[-1].times_linear(rc.y) - prev.scaled(rc.z)).scaled(1.0 / rc.x)
        prev = polys[-1]
        polys.append(nxt)
        xs_product *= rc.x
    tail = triple(N + 1)
    closing = polys[-1].times_linear(tail.y) - prev.scaled(tail.z)
    return polys, closing.scaled(xs_product)


def accessory_poly(p: QHeunParams, N: int) -> Poly:
    """Monic degree-(N+1) accessory polynomial, built from the recurrence."""
    _, c = run_poly_recursion(lambda n: recurrence_coeffs(p, n), N, abs(p.t1 * p.t2))
    return c


def gap_subsets(N: int) -> list[list[int]]:
    """Subsets of {1..N} whose consecutive elements differ by at least 2."""
    out: list[list[int]] = [[]]
    for i in range(1, N + 1):
        out.extend(s + [i] for s in out if not s or i - s[-1] >= 2)
    return out


def expand_accessory_poly(triple: Callable[[int], RecurrenceCoeffs], N: int) -> Poly:
    """Closed-form expansion of the consistency polynomial.

    Sums (-1)^k x_{i_1} z_{i_1+1} ... x_{i_k} z_{i_k+1} times the
    product of (E + y_j) over the untouched indices j in {1..N+1},
    over all index sets with gaps >= 2 (the empty set included).  No
    division by x_n occurs, so degenerate recurrences are fine here.
    """
    data = {n: triple(n) for n in range(1, N + 2)}
    total = POLY_ZERO
    for subset in gap_subsets(N):
        covered = set()
        weight = 1.0 + 0.0j
        for i in subset:
            weight *= data[i].x * data[i + 1].z
            covered.update((i, i + 1))
        if len(subset) % 2:
            weight = -weight
        term = Poly((weight,))
        for j in range(1, N + 2):
            if j not in covered:
                term = term.times_linear(data[j].y)
        total = total + term
    return total


def accessory_poly_expanded(p: QHeunParams, N: int) -> Poly:
    """Accessory polynomial via the direct expansion (division-free oracle)."""
    if N < 0:
        raise DomainError("N must be non-negative")
    return expand_accessory_poly(lambda n: recurrence_coeffs(p, n), N)


def poly_roots(poly: Poly) -> list[complex]:
    """All complex roots: the eigenvalues of the companion matrix (numpy.roots).

    The eigenvalue route is backward-stable where root iteration on the
    monomial coefficients is not (Edelman & Murakami, Math. Comp. 64,
    1995).  The roots come back sorted by (real, imag); the CLI's
    root_index and every report follow that order.  Raises NoConvergence
    when a root's certificate exceeds 1e-10, or when the monic
    coefficients are not finite, so that no root can be certified.
    """
    cs = Poly.of(poly.coeffs).coeffs
    if len(cs) < 2:
        raise DomainError("root finding needs degree >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        monic = np.asarray(cs[::-1]) / cs[-1]
    if not np.isfinite(monic).all():
        raise NoConvergence("root certificate failed: the monic coefficients are not finite")
    roots = sorted((complex(r) for r in np.roots(monic)), key=lambda r: (r.real, r.imag))
    for r in roots:
        cert = root_certificate(cs, r)
        if not cert <= 1e-10:  # also fails a NaN certificate
            raise NoConvergence(f"root certificate failed at {r!r}: {cert:.3g}")
    return roots


def solve_accessory(
    recurrence: Sequence[RecurrenceCoeffs], scale: float
) -> tuple[Poly, tuple[complex, ...], dict[complex, tuple[complex, ...]]]:
    """Accessory polynomial, its roots and the coefficients c_0..c_N of each root.

    recurrence holds the triples of indices 1..N+1, each evaluated once.
    Closed by c_{N+1} = 0, the recurrence says E c = M c for the
    tridiagonal M with M[i, i] = -y_{i+1}, M[i, i-1] = z_{i+1} and
    M[i, i+1] = x_{i+1}.  One eigen-solve of M serves every root: the
    eigenvector of the eigenvalue nearest the root, scaled to c_0 = 1.
    An eigenvector is accurate only relative to its largest entry, so
    c_1 up to that entry come from the recurrence at the eigenvalue,
    which grows toward it stably; a graded vector's tiny c_0 would
    otherwise set the scale of all of them from rounding noise.
    """
    _, poly = run_poly_recursion(lambda n: recurrence[n - 1], len(recurrence) - 1, scale)
    roots = tuple(poly_roots(poly))
    matrix = (
        np.diag([-rc.y for rc in recurrence])
        + np.diag([rc.z for rc in recurrence[1:]], -1)
        + np.diag([rc.x for rc in recurrence[:-1]], 1)
    )
    values, vectors = np.linalg.eig(matrix)
    coeffs = {}
    for r in roots:
        j = np.argmin(abs(values - r))
        E, column = complex(values[j]), vectors[:, j].tolist()
        peak = max(range(len(column)), key=lambda i: abs(column[i]))
        c = [0j, 1.0 + 0j]  # c_{-1}, c_0
        for rc in recurrence[:peak]:
            c.append(((E + rc.y) * c[-1] - rc.z * c[-2]) / rc.x)
        coeffs[r] = tuple(c[1:] + [v * c[-1] / column[peak] for v in column[peak + 1:]])
    return poly, roots, coeffs


def coeff_values(root_coeffs: dict[complex, tuple[complex, ...]], E0: complex) -> tuple[complex, ...]:
    """c_0..c_N at the root nearest E0, from solve_accessory's root_coeffs."""
    return root_coeffs[min(root_coeffs, key=lambda r: abs(r - E0))]


def _scaled_horner(cs: Sequence[complex], r: complex) -> tuple[complex, float]:
    """p(r) / m**deg and sum |c_k| |r|**k / m**deg, with m = max(1, |r|).

    Formed as sum c_k u**k t**(deg-k) with u = r/m and t = 1/m, in which
    no factor exceeds 1 in modulus, so neither overflows.
    """
    m = max(1.0, abs(r))
    u, t = r / m, 1.0 / m
    au = abs(u)
    acc = cs[-1]
    size = abs(cs[-1])
    tk = 1.0
    for c in reversed(cs[:-1]):
        tk *= t
        acc = acc * u + c * tk
        size = size * au + abs(c) * tk
    return acc, size


def root_certificate(cs: Sequence[complex], r: complex) -> float:
    """Residual certificate |p(r)| / (max|c_k| * max(1, |r|)**deg) of a root.

    Formed directly wherever that is finite.  Where p(r) or |r|**deg
    overflows, it is formed from the equal sum p(r) / m**deg =
    sum c_k u**k t**(deg-k), with m = max(1, |r|), u = r/m and t = 1/m,
    in which no factor exceeds 1 in modulus.  A non-finite root gives NaN.
    """
    scale = max(abs(c) for c in cs)
    m = max(1.0, abs(r))
    value = horner(cs, r)
    try:
        cert = abs(value) / (scale * m ** (len(cs) - 1))
    except OverflowError:
        cert = math.inf
    if math.isfinite(cert):
        return cert
    return abs(_scaled_horner(cs, r)[0]) / scale


def backward_error(cs: Sequence[complex], E: complex) -> float:
    """Coefficient-wise backward error |p(E)| / sum |c_k| |E|**k of E as a root.

    E is an exact root of a polynomial whose every coefficient moved by
    at most this relative amount.  Unlike root_certificate, which
    divides by max|c_k| * max(1, |E|)**deg, it is not fooled by graded
    coefficients: a large c_k that |E|**k does not reach cannot mask
    |p(E)|.  A non-finite E gives NaN.
    """
    value, size = _scaled_horner(cs, E)
    return abs(value) / size


def require_root(poly: Poly, E0: complex) -> None:
    """Raise NotARoot unless E0's backward error in poly is at most 1e-8."""
    err = backward_error(poly.coeffs, E0)
    if not err <= 1e-8:  # also fails a NaN
        raise NotARoot(f"backward error {err:.3e} of E0 as an accessory root exceeds 1e-8")


def coeff_row(setup, E0: complex) -> tuple[complex, ...]:
    """c_0..c_N at the accessory root E0 of a family setup (its accessory
    and root_coeffs, as solve_accessory returns them).

    Raises NotARoot where require_root does.  Every use of a root by a
    family goes through here, once per root and call.
    """
    require_root(setup.accessory, E0)
    return coeff_values(setup.root_coeffs, E0)


def one_root(results: Sequence) -> complex:
    """The single entry of a per-row result list: its value, or raise its error."""
    (value,) = results
    if isinstance(value, QHeunError):
        raise value
    return value


def series_coefficients(p: QHeunParams, E: complex, M: int) -> list[complex]:
    """Numeric local-series coefficients c_0..c_M at a fixed eigenvalue.

    Raises DegenerateRecurrence where the leading recurrence factor
    vanishes at some index n in {1..M} (beta an integer there), which
    leaves c_n undetermined.
    """
    if M < 1:
        raise DomainError("M must be at least 1")
    scale = abs(p.t1 * p.t2)
    out = [1.0 + 0.0j]
    c_prev2 = 0.0 + 0.0j
    c_prev1 = 1.0 + 0.0j
    for n in range(1, M + 1):
        rc = recurrence_coeffs(p, n)
        if abs(rc.x) < DEGENERATE_REL * scale:
            raise DegenerateRecurrence(f"leading coefficient x_{n} vanishes: c_{n} is undetermined")
        c_n = (c_prev1 * (complex(E) + rc.y) - c_prev2 * rc.z) / rc.x
        out.append(c_n)
        c_prev2, c_prev1 = c_prev1, c_n
    return out


def polynomial_degree(p: QHeunParams) -> tuple[int, int] | None:
    """(N, which_alpha) if -lambda - alpha_i is a non-negative integer, else None."""
    lam = exponent_at_origin(p)
    for which, alpha in ((1, p.alpha1), (2, p.alpha2)):
        val = -lam - alpha
        n = round(val)
        if n >= 0 and abs(val - n) < INTEGER_TOL:
            return n, which
    return None


def _require_polynomial_case(p: QHeunParams, N: int) -> None:
    hit = polynomial_degree(p)
    if hit is None or hit[0] != N:
        raise PreconditionError(f"-lambda - alpha is not the integer {N}")
    for n in range(1, N + 1):
        if abs(p.beta - n) < INTEGER_TOL:
            raise PreconditionError(f"beta = {n} degenerates the recurrence")


def polynomial_solution(p: QHeunParams, E0: complex, N: int) -> SeriesSolution:
    """Degree-N polynomial-type solution at an accessory root E0.

    Requires -lambda - alpha_i = N for one of the alphas (within 1e-9),
    beta away from {1..N}, and E0 to annihilate the accessory
    polynomial; raises PreconditionError / NotARoot accordingly.
    """
    _require_polynomial_case(p, N)
    return polynomial_at_root(p, accessory_poly(p, N), E0, N)


def polynomial_at_root(p: QHeunParams, accessory: Poly, E0: complex, N: int) -> SeriesSolution:
    """polynomial_solution(p, E0, N), with E0 checked against accessory,
    the caller's accessory_poly(p, N), instead of a fresh build; it
    raises what polynomial_solution raises."""
    _require_polynomial_case(p, N)
    require_root(accessory, E0)
    if N == 0:
        coeffs: list[complex] = [1.0 + 0.0j]
    else:
        coeffs = series_coefficients(p, E0, N)
    return SeriesSolution(exponent=exponent_at_origin(p), coeffs=tuple(coeffs))


def apparent_singularity_check(p: QHeunParams, E: complex, N: int) -> bool:
    """Whether the origin is an apparent singularity at eigenvalue E.

    Requires beta = N + 1 (within 1e-9).  Runs the recurrence up to
    c_N and tests the closing relation at index N + 1, whose leading
    factor vanishes identically; the relation holds exactly when E is
    a root of the accessory polynomial.
    """
    if abs(p.beta - (N + 1)) > INTEGER_TOL:
        raise PreconditionError("beta != N+1")
    if N == 0:
        c_prev1: complex = 1.0 + 0.0j
        c_prev2: complex = 0.0 + 0.0j
    else:
        coeffs = series_coefficients(p, E, N)
        c_prev1 = coeffs[N]
        c_prev2 = coeffs[N - 1]
    tail = recurrence_coeffs(p, N + 1)
    left = -c_prev1 * (complex(E) + tail.y) + c_prev2 * tail.z
    # Scale measured before the cancellation, so exact roots score ~eps.
    scale = max(
        abs(c_prev1) * max(abs(E), abs(tail.y)), abs(c_prev2 * tail.z), 1e-300
    )
    return abs(left) / scale < 1e-9
