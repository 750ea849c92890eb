"""Accessory polynomials and local series solutions at the origin.

A formal solution x^lambda * sum c_n x^n of the eigen-equation forces
the coefficients through a three-term recurrence, given by its triples
at indices 1..N+1.  Truncating at degree N and demanding consistency
yields a monic polynomial of degree N + 1 in the eigenvalue, the
continuant of the triples, formed on coefficient lists with no division;
its roots are exactly the eigenvalues admitting polynomial-type
solutions (under the integer exponent condition) or an apparent
singularity at the origin (when beta = N + 1), and they are the
eigenvalues of the tridiagonal matrix of the triples.  All three
families keep them in a FamilySetup, built by family_setup: eigenvalues
of that tridiagonal, symmetrised, by complex-symmetric QL, each refined
by one Newton step on the continuant and certified, and at each root
the coefficients c_0..c_N of one twisted sweep of the recurrence,
formed when first read.  coeff_row checks an
eigenvalue and returns its root's row: the one way a form takes a root.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import (
    DegenerateRecurrence,
    DomainError,
    NoConvergence,
    NotARoot,
    PreconditionError,
    QHeunError,
    typed,
)
from .qheun_op import QHeunParams

INTEGER_TOL = 1e-9
DEGENERATE_REL = 1e-14
EPS = sys.float_info.epsilon
QL_SWEEPS = 30  # QL sweeps allowed per eigenvalue


@dataclass(frozen=True)
class Poly:
    """Dense complex polynomial; coeffs[k] multiplies the k-th power."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def of(values: Sequence[complex]) -> "Poly":
        return Poly(tuple(_stripped([complex(v) for v in values])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> complex:
        return self.coeffs[-1]

    def __call__(self, value: complex) -> complex:
        return horner(self.coeffs, value)


def _stripped(cs: list[complex]) -> list[complex]:
    """cs without its trailing zero coefficients, the constant one kept."""
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _plus(a: list[complex], b: list[complex]) -> list[complex]:
    """a + b, the shorter list padded with 0j."""
    return _stripped([u + v for u, v in itertools.zip_longest(a, b, fillvalue=0j)])


def _times_x_plus(cs: list[complex], y: complex) -> list[complex]:
    """cs times (X + y), X the polynomial variable: 0j + y c_0, c_{i-1} + y c_i, c_last."""
    out = [0j] + cs
    for i, c in enumerate(cs):
        out[i] += y * c
    return _stripped(out)


def horner(coeffs: Sequence[complex], x: complex) -> complex:
    """sum coeffs[k] x**k by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def coeff_gap(a: Poly, b: Poly) -> float:
    """Largest coefficient difference relative to the larger coefficient scale."""
    pairs = list(itertools.zip_longest(a.coeffs, b.coeffs, fillvalue=0j))
    scale = max(max(max(abs(x), abs(y)) for x, y in pairs), 1e-300)
    return max(abs(x - y) for x, y in pairs) / scale


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Triple (x_n, y_n, z_n) driving a three-term coefficient recurrence."""

    x: complex
    y: complex
    z: complex


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
    return RecurrenceCoeffs(x=x, y=y, z=z)


def _forward_rows(E: complex, recurrence: Iterable[RecurrenceCoeffs], scale: float = 0.0) -> list[complex]:
    """c_0 = 1, c_k = ((E + y_k) c_{k-1} - z_k c_{k-2}) / x_k; DegenerateRecurrence where |x_k| <= 1e-14 scale."""
    c = [0j, 1.0 + 0j]  # c_{-1}, c_0
    for k, rc in enumerate(recurrence, 1):
        if abs(rc.x) <= DEGENERATE_REL * scale:
            raise DegenerateRecurrence(f"leading coefficient x_{k} vanishes: c_{k} is undetermined")
        c.append(((E + rc.y) * c[-1] - rc.z * c[-2]) / rc.x)
    return c[1:]


def run_poly_recursion(recurrence: Sequence[RecurrenceCoeffs]) -> Poly:
    """The accessory polynomial of the triples of indices 1..N+1: the monic continuant P_{N+1},
    P_{-1} = 0, P_0 = 1, P_k = (E + y_k) P_{k-1} - x_{k-1} z_k P_{k-2}, on coefficient lists.

    P_k = x_1..x_{k-1} times the consistency relation of c_{k-1}, with c_0 = 1 and
    x_n c_n = (E + y_n) c_{n-1} - z_n c_{n-2}; no x_n divides, so a vanishing one is fine.
    """
    if not recurrence:
        raise DomainError("N must be non-negative")
    p, p_prev, x_prev = [1.0 + 0j], [0j], 0j
    for rc in recurrence:
        w = x_prev * rc.z
        p, p_prev, x_prev = _plus(_times_x_plus(p, rc.y), [-w * v for v in p_prev]), p, rc.x
    return Poly(tuple(p))


def _origin_recurrence(p: QHeunParams, N: int) -> list[RecurrenceCoeffs]:
    return [recurrence_coeffs(p, n) for n in range(1, N + 2)]


@typed(lambda p, N: f"in the accessory polynomial at q = {p.q!r}, N = {N}")
def accessory_poly(p: QHeunParams, N: int) -> Poly:
    """Monic degree-(N+1) accessory polynomial, built from the recurrence."""
    return run_poly_recursion(_origin_recurrence(p, N))


def gap_subsets(N: int) -> list[list[int]]:
    """Subsets of {1..N} whose consecutive elements differ by at least 2."""
    out: list[list[int]] = [[]]
    for i in range(1, N + 1):
        out.extend(s + [i] for s in out if not s or i - s[-1] >= 2)
    return out


def expand_accessory_poly(recurrence: Sequence[RecurrenceCoeffs]) -> Poly:
    """Closed-form expansion of the consistency polynomial of the triples of indices 1..N+1.

    Sums (-1)^k x_{i_1} z_{i_1+1} ... x_{i_k} z_{i_k+1} times the
    product of (E + y_j) over the untouched indices j in {1..N+1},
    over all index sets with gaps >= 2 (the empty set included): the
    continuant of run_poly_recursion expanded term by term, which checks
    it independently of its recurrence.
    """
    total = [0j]
    for subset in gap_subsets(len(recurrence) - 1):
        covered = set()
        weight = 1.0 + 0.0j
        for i in subset:
            weight *= recurrence[i - 1].x * recurrence[i].z
            covered.update((i, i + 1))
        if len(subset) % 2:
            weight = -weight
        term = [weight]
        for j, rc in enumerate(recurrence, 1):
            if j not in covered:
                term = _times_x_plus(term, rc.y)
        total = _plus(total, term)
    return Poly(tuple(total))


@typed(lambda p, N: f"in the expanded accessory polynomial at q = {p.q!r}, N = {N}")
def accessory_poly_expanded(p: QHeunParams, N: int) -> Poly:
    """Accessory polynomial via the direct expansion (the subset-sum oracle)."""
    if N < 0:
        raise DomainError("N must be non-negative")
    return expand_accessory_poly(_origin_recurrence(p, N))


def _ql_eigenvalues(d: list[complex], e: list[complex]) -> list[complex]:
    """Eigenvalues of the complex symmetric tridiagonal with diagonal d and off-diagonal e.

    QL with implicit Wilkinson shifts, its rotations complex orthogonal (c**2 + s**2 = 1;
    Cullum & Willoughby, SIAM J. Matrix Anal. Appl. 17 (1996) 83-109).  The matrix is
    reversed first where its larger diagonal end is on top, so that QL meets it graded
    downwards.  Raises NoConvergence after QL_SWEEPS sweeps per eigenvalue, or where a
    rotation breaks down (f**2 + g**2 = 0 with f, g not both 0).
    """
    if abs(d[-1]) < abs(d[0]):
        d, e = d[::-1], e[::-1]
    d, e = list(d), list(e) + [0j]
    n = len(d)
    sqrt = cmath.sqrt
    sweeps = QL_SWEEPS * n
    for top in range(n - 1):
        while True:
            m = top  # the first m >= top whose e[m] is negligible, or n - 1
            while m < n - 1 and abs(e[m]) > EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == top:
                break  # d[top] is an eigenvalue
            sweeps -= 1
            if sweeps < 0:
                raise NoConvergence(f"QL found no eigenvalue of the {n} x {n} tridiagonal in {QL_SWEEPS * n} sweeps")
            g = (d[top + 1] - d[top]) / (2.0 * e[top])
            r = sqrt(g * g + 1.0)
            if g.real * r.real + g.imag * r.imag < 0:  # the root making |g + r| the larger
                r = -r
            g = d[m] - d[top] + e[top] / (g + r)  # d[m] less the Wilkinson shift
            s = c = 1.0
            p = 0j
            for i in range(m - 1, top - 1, -1):
                f, b = s * e[i], c * e[i]
                r = sqrt(f * f + g * g)
                if not r:  # f**2 + g**2 underflowed, or vanishes
                    k = max(abs(f), abs(g))
                    r = k and k * sqrt((f / k) ** 2 + (g / k) ** 2)
                    if not r:
                        raise NoConvergence(f"a QL rotation breaks down: f**2 + g**2 = 0 at f = {f!r}")
                e[i + 1] = r
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[top] -= p
            e[top] = g
            e[m] = 0j
    return d


def poly_roots(poly: Poly, recurrence: Sequence[RecurrenceCoeffs]) -> dict[complex, float]:
    """root -> root_certificate of each root of poly, the accessory polynomial of recurrence
    (the triples of indices 1..N+1), sorted by (real, imag).

    The roots are the eigenvalues of the tridiagonal M of the triples, with
    M[k, k] = -y_{k+1}, M[k, k+1] = x_{k+1} and M[k+1, k] = z_{k+2}, found by
    _ql_eigenvalues on M symmetrised by a diagonal similarity, whose off-diagonal is
    the principal square root of x_{k+1} z_{k+2}.  Unlike the monomial coefficients,
    the tridiagonal keeps the roots well determined as q -> 1.  Each eigenvalue then
    takes one _newton_step.  Raises NoConvergence where the tridiagonal is not finite,
    QL does not converge, two roots coincide or a certificate exceeds 1e-10.
    """
    if not recurrence:
        raise DomainError("root finding needs degree >= 1")
    if poly.degree != len(recurrence):
        raise DomainError(f"a degree-{poly.degree} polynomial is no continuant of {len(recurrence)} triples")
    d = [-rc.y for rc in recurrence]
    e = [cmath.sqrt(a.x * b.z) for a, b in zip(recurrence, recurrence[1:])]
    if not all(map(cmath.isfinite, d + e)):
        raise NoConvergence("the tridiagonal of the triples is not finite")
    roots = sorted((_newton_step(recurrence, r) for r in _ql_eigenvalues(d, e)), key=lambda r: (r.real, r.imag))
    if any(a == b for a, b in zip(roots, roots[1:])):
        raise NoConvergence(f"two accessory roots coincide after refinement at N = {len(roots) - 1}")
    return dict(zip(roots, _certified(poly.coeffs, roots)))


def _certified(cs: Sequence[complex], roots: Sequence[complex]) -> list[float]:
    """root_certificate of each of roots; NoConvergence where one exceeds 1e-10."""
    certs = [root_certificate(cs, r) for r in roots]
    for r, cert in zip(roots, certs):
        if not cert <= 1e-10:  # also fails a NaN certificate
            raise NoConvergence(f"root certificate failed at {r!r}: {cert:.3g}")
    return certs


def _newton_step(recurrence: Sequence[RecurrenceCoeffs], E: complex) -> complex:
    """E after one Newton step on the accessory polynomial, evaluated with its derivative at E by
    the continuant recurrence of run_poly_recursion, which forms its coefficients.

    E itself where the step is not finite or |step| >= 1e-6 max(1, |E|),
    which could land on a neighbouring root.
    """
    p, p_prev, d, d_prev, x_prev = 1.0 + 0j, 0j, 0j, 0j, 0j
    for rc in recurrence:
        b, w = E + rc.y, x_prev * rc.z
        p, p_prev, d, d_prev = b * p - w * p_prev, p, p + b * d - w * d_prev, d
        x_prev = rc.x
    step = p / d if d else math.inf
    return E - step if abs(step) < 1e-6 * max(1.0, abs(E)) else E


def _twisted_row(recurrence: Sequence[RecurrenceCoeffs], E: complex) -> tuple[complex, ...]:
    """c_0 = 1, ..., c_N at E, a root of the accessory polynomial of the triples of indices 1..N+1.

    Equation k is x_k c_k = (E + y_k) c_{k-1} - z_k c_{k-2}, with c_{-1} = c_{N+1} = 0.  A forward
    sweep from c_0 meets equations 1..r, a backward one from c_{N+1} meets r + 2..N+1; they join
    at the r that minimises the defect of equation r + 1 times max|c| / |c_r|**2 (Fernando, SIAM J.
    Matrix Anal. Appl. 18 (1997) 1013-1034).  Raises DegenerateRecurrence on a zero x_k or z_k.
    """
    N = len(recurrence) - 1
    fwd = _forward_rows(E, recurrence[:N])  # c_0..c_N from c_0 = 1
    bwd = [0j, 1.0 + 0j]  # c_{N+1}, c_N, then c_{N-1}..c_0
    for k in range(N + 1, 1, -1):  # equation k gives c_{k-2}
        rc = recurrence[k - 1]
        if rc.z == 0:
            raise DegenerateRecurrence(f"z_{k} vanishes: c_{k - 2} is undetermined by the closure")
        bwd.append(((E + rc.y) * bwd[-1] - rc.x * bwd[-2]) / rc.z)
    bwd.reverse()  # c_0..c_{N+1}
    head = list(itertools.accumulate((abs(c) for c in fwd), max))
    tail = list(itertools.accumulate((abs(c) for c in reversed(bwd)), max))[::-1]
    best, join = math.inf, None
    for r, rc in enumerate(recurrence):
        if fwd[r] == 0 or bwd[r] == 0:
            continue
        s = fwd[r] / bwd[r]
        defect = (E + rc.y) * fwd[r] - rc.z * (fwd[r - 1] if r else 0j) - rc.x * s * bwd[r + 1]
        size = abs(fwd[r])
        gamma = abs(defect) / size * max(head[r], abs(s) * tail[r]) / size
        if gamma < best:  # never a NaN
            best, join = gamma, (r, s)
    if join is None:  # no c_r is finite and nonzero
        raise NoConvergence(f"no finite nonzero c_r joins the sweeps at E = {E!r}")
    r, s = join
    return tuple(fwd[: r + 1] + [s * c for c in bwd[r + 1 : N + 1]])


def accessory_rows(
    recurrence: Sequence[RecurrenceCoeffs], roots: Sequence[complex]
) -> dict[complex, tuple[complex, ...]]:
    """root -> its _twisted_row, for each of roots."""
    return {r: _twisted_row(recurrence, r) for r in roots}


@dataclass(frozen=True)
class FamilySetup:
    """A family's recurrence triples at (params, N), their accessory polynomial and roots."""

    params: QHeunParams
    N: int
    lambda1: float
    recurrence: tuple[RecurrenceCoeffs, ...]  # indices 1..N+1
    accessory: Poly
    roots: tuple[complex, ...]
    certificates: tuple[float, ...]  # root_certificate of each root

    @property
    def lambda2(self) -> float:
        """The other exponent at the origin, lambda1 + beta."""
        return self.lambda1 + self.params.beta

    @cached_property
    def root_coeffs(self) -> dict[complex, tuple[complex, ...]]:
        """root -> c_0..c_N, formed by accessory_rows the first time something reads them."""
        return accessory_rows(self.recurrence, self.roots)


def family_setup(p: QHeunParams, N: int, triple: Callable[[QHeunParams, int, int], RecurrenceCoeffs]) -> FamilySetup:
    """The FamilySetup of the triples triple(p, N, n), n = 1..N+1, with the roots and
    certificates of poly_roots; the caller checks its family's relation."""
    recurrence = tuple(triple(p, N, n) for n in range(1, N + 2))
    cpoly = run_poly_recursion(recurrence)
    roots = poly_roots(cpoly, recurrence)
    return FamilySetup(p, N, exponent_at_origin(p), recurrence, cpoly, tuple(roots), tuple(roots.values()))


def coeff_values(root_coeffs: dict[complex, tuple[complex, ...]], E0: complex) -> tuple[complex, ...]:
    """c_0..c_N at the root nearest E0, from a FamilySetup's root_coeffs."""
    return root_coeffs[min(root_coeffs, key=lambda r: abs(r - E0))]


def _scaled_horner(cs: Sequence[complex], r: complex) -> tuple[complex, float]:
    """p(r) / m**deg and sum |c_k| |r|**k / m**deg, with m = max(1, |r|).

    Formed as sum c_k u**k t**(deg-k) with u = r/m and t = 1/m, in which
    no factor exceeds 1 in modulus, so neither overflows.
    """
    m = max(1.0, abs(r))
    u, t = r / m, 1.0 / m
    au = abs(u)
    acc, size, tk = cs[-1], abs(cs[-1]), 1.0
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


def coeff_row(setup: FamilySetup, E0: complex) -> tuple[complex, ...]:
    """c_0..c_N at the accessory root E0 of a family setup; NotARoot where require_root
    raises.  Every use of a root by a family goes through here, once per root and call."""
    require_root(setup.accessory, E0)
    return coeff_values(setup.root_coeffs, E0)


def one_root(results: Sequence) -> complex:
    """The single entry of a per-row result list: its value, or raise its error."""
    (value,) = results
    if isinstance(value, QHeunError):
        raise value
    return value


@typed(lambda p, E, M: f"in the local series at q = {p.q!r}, E = {E!r}, M = {M}")
def series_coefficients(p: QHeunParams, E: complex, M: int) -> list[complex]:
    """Numeric local-series coefficients c_0..c_M at a fixed eigenvalue (M = 0 gives c_0 = 1
    alone); DegenerateRecurrence where x_n vanishes for an n in {1..M} (beta an integer there)."""
    if M < 0:
        raise DomainError("M must be non-negative")
    triples = (recurrence_coeffs(p, n) for n in range(1, M + 1))
    return _forward_rows(complex(E), triples, abs(p.t1 * p.t2))


def polynomial_case_violation(p: QHeunParams, N: int) -> str | None:
    """Why p has no degree-N polynomial-type solution, or None: it needs
    -lambda - alpha_i = N for an alpha (within 1e-9) and beta off {1..N}."""
    lam = exponent_at_origin(p)
    if all(abs(-lam - alpha - N) >= INTEGER_TOL for alpha in (p.alpha1, p.alpha2)):
        return f"-lambda - alpha is not the integer {N}"
    for n in range(1, N + 1):
        if abs(p.beta - n) < INTEGER_TOL:
            return f"beta = {n} degenerates the recurrence"
    return None


@typed(lambda p, E, N: f"in the apparent-singularity check at q = {p.q!r}, E = {E!r}, N = {N}")
def apparent_singularity_check(p: QHeunParams, E: complex, N: int) -> bool:
    """Whether the origin is an apparent singularity at eigenvalue E.

    Requires beta = N + 1 (within 1e-9).  Runs the recurrence up to
    c_N and tests the closing relation at index N + 1, whose leading
    factor vanishes identically; the relation holds exactly when E is
    a root of the accessory polynomial.
    """
    if abs(p.beta - (N + 1)) > INTEGER_TOL:
        raise PreconditionError("beta != N+1")
    c_prev2, c_prev1 = ([0j] + series_coefficients(p, E, N))[-2:]  # c_{N-1}, c_N; c_{-1} = 0
    tail = recurrence_coeffs(p, N + 1)
    left = -c_prev1 * (complex(E) + tail.y) + c_prev2 * tail.z
    # Scale measured before the cancellation, so exact roots score ~eps.
    scale = max(
        abs(c_prev1) * max(abs(E), abs(tail.y)), abs(c_prev2 * tail.z), 1e-300
    )
    return abs(left) / scale < 1e-9
