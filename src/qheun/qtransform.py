"""q-integral transforms between q-Heun systems.

A solution h of a source system maps to a solution g of a target
system through a Jackson integral against one of two kernels.  The
target parameters follow a rigid affine map of the source exponents;
the transformed function satisfies the target eigen-equation up to two
boundary terms proportional to the spiral limits C1 and C2 of h.  The
integral stops by qcore's one rule and a limit walk settles at
SETTLE_FLOOR; no call chooses either.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

from ._bilateral import SpiralTerms, spiral_product
from .accessory import horner
from .errors import DomainError, NoLimit
from .qcore import MAX_TERMS, bilateral_sum, theta
from .qheun_op import QHeunParams

KernelName = Literal["P1", "P2"]

# Relative step at which _spiral_limit accepts a walk as settled, the
# smallest that is safe: each step of a limit walk multiplies in a few
# rounded factors, so successive values drift by a few ulps even once the
# sequence has converged.
SETTLE_FLOOR = 16 * sys.float_info.epsilon
# A limit walk whose magnitudes fall monotonically below this has limit 0.
LIMIT_ZERO = 1e-12


@dataclass(frozen=True)
class TransformSpec:
    """Data of one q-integral transform.

    source holds the parameters of the system the seed solves; mu0 and
    the kernel choice select the transform; alpha1 is the free exponent
    of the target system.  xi anchors the integration spiral; an anchor
    that moves with the point x is a spec per x.
    """

    source: QHeunParams
    mu0: float
    xi: complex
    kernel: KernelName = "P1"
    alpha1: float = 0.0

    def __post_init__(self) -> None:
        if self.xi == 0:
            raise DomainError("xi must be nonzero")
        if self.kernel not in ("P1", "P2"):
            raise DomainError("kernel must be 'P1' or 'P2'")


@dataclass(frozen=True)
class TransformResult:
    """Target system and mapped eigenvalue."""

    target: QHeunParams
    E_target: complex


def source_chi(src: QHeunParams) -> float:
    """Shift exponent computed from the source system."""
    return (src.l1 + src.l2 - src.h1 - src.h2 - src.alpha1 + src.alpha2 - src.beta) / 2.0


def target_chi(tgt: QHeunParams) -> float:
    """The same shift exponent computed from the target system."""
    return (tgt.h1 + tgt.h2 - tgt.l1 - tgt.l2 + tgt.alpha1 - tgt.alpha2 - tgt.beta) / 2.0


def seed_weight_exponent(src: QHeunParams) -> float:
    """Power of s dividing the seed inside the transform integrand."""
    return (src.h1 + src.h2 - src.l1 - src.l2 - src.alpha1 - src.alpha2 + src.beta + 2.0) / 2.0


def param_map(spec: TransformSpec, E_source: complex) -> TransformResult:
    """Target parameters and eigenvalue induced by the transform."""
    src = spec.source
    chi = source_chi(src)
    mu0 = spec.mu0
    a1 = spec.alpha1
    target = QHeunParams(
        h1=src.h1 + mu0 + chi,
        h2=src.h2 + mu0 + chi,
        l1=src.l1 + mu0,
        l2=src.l2 + mu0,
        alpha1=a1,
        alpha2=a1 - src.alpha1 + src.alpha2 - chi,
        beta=-src.beta - chi,
        t1=src.t1,
        t2=src.t2,
        q=src.q,
    )
    E_target = src.q ** (mu0 + a1 - src.alpha1) * complex(E_source)
    return TransformResult(target=target, E_target=E_target)


def source_system(target: QHeunParams, mu0: float = 0.0, alpha1_source: float | None = None) -> QHeunParams:
    """Invert the parameter map: source system producing the given target.

    alpha1_source is the free exponent of the source; it defaults to
    the target's alpha1 (the choice under which the eigenvalue is
    unchanged when mu0 = 0).
    """
    chi = target_chi(target)
    a1p = target.alpha1 if alpha1_source is None else alpha1_source
    return replace(
        target,
        h1=target.h1 - mu0 - chi,
        h2=target.h2 - mu0 - chi,
        l1=target.l1 - mu0,
        l2=target.l2 - mu0,
        alpha1=a1p,
        alpha2=a1p - target.alpha1 + target.alpha2 + chi,
        beta=-target.beta - chi,
    )


@dataclass(frozen=True)
class Seed:
    """A product-type seed h(s), callable pointwise.

    h(s) = s**exponent * V(s) * sum_k coeffs[k] s**k with
    V(s) = prod (c s; q)_inf [c in num] / prod (d s; q)_inf [d in den]
         * prod (c / s; q)_inf [c in inv_num] / prod (d / s; q)_inf [d in inv_den],
    i.e. spiral_product(s, num, den, inv_num, inv_den, q).

    Calling the record evaluates h directly; transform and
    boundary_limits read the fields to step h along a spiral instead.
    """

    q: float
    exponent: float
    coeffs: tuple[complex, ...]
    num: tuple[complex, ...] = ()
    den: tuple[complex, ...] = ()
    inv_num: tuple[complex, ...] = ()
    inv_den: tuple[complex, ...] = ()

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        ratio = spiral_product(s, self.num, self.den, self.inv_num, self.inv_den, self.q)
        return s**self.exponent * ratio * horner(self.coeffs, s)


def _kernel_factors(spec: TransformSpec, x: complex):
    """(num, den, inv_num, inv_den, power) of K(x, s) = (x/s)**power * V(s) in Seed's notation."""
    q = spec.source.q
    mu0 = spec.mu0
    mu = mu0 + 1.0 + source_chi(spec.source)
    if spec.kernel == "P1":
        return [q**mu / x], [q**mu0 / x], [], [], 0.0
    return [], [], [q ** (-mu0 + 1.0) * x], [q ** (-mu + 1.0) * x], mu - mu0


def kernel_value(spec: TransformSpec, x: complex, s: complex) -> complex:
    """Transform kernel at (x, s); both arguments must be nonzero.

    P1: (q^mu s/x; q)_inf / (q^mu0 s/x; q)_inf;
    P2: (x/s)^(mu - mu0) (q^(1-mu0) x/s; q)_inf / (q^(1-mu) x/s; q)_inf,
    with mu = mu0 + 1 + chi.
    """
    if x == 0 or s == 0:
        raise DomainError("kernel arguments must be nonzero")
    x, s = complex(x), complex(s)
    *factors, power = _kernel_factors(spec, x)
    return (x / s) ** power * spiral_product(s, *factors, spec.source.q)


def _spiral_terms(
    h: Callable[[complex], complex],
    xi: complex,
    q: float,
    shift: float,
    kernel: Sequence[Sequence[complex]] = ((), (), (), ()),
    weight: complex = 1.0,
    rate: float = 1.0,
) -> tuple[Callable[[int], complex], Callable[[int], complex]]:
    """(term, point) with point(n) = s = q**n xi and
    term(n) = weight * rate**n * s**shift * h(s) * V(s).

    V is the product of the kernel factors (num, den, inv_num, inv_den).
    A Seed on the same base q has its own factors, power and polynomial
    join the stepped product, since (q**n xi)**a == q**(n a) * xi**a for
    q > 0; any other h, a Seed on another base included, is evaluated at
    each point.
    """
    num, den, inv_num, inv_den = (list(f) for f in kernel)
    if isinstance(h, Seed) and h.q == q:
        e = h.exponent + shift
        weights = [weight * c * xi ** (e + k) for k, c in enumerate(h.coeffs)]
        rates = [rate * q ** (e + k) for k in range(len(h.coeffs))]
        terms = SpiralTerms(
            num + list(h.num), den + list(h.den), weights, rates, q, xi,
            inv_num + list(h.inv_num), inv_den + list(h.inv_den),
        )
        return terms, terms.point
    terms = SpiralTerms(num, den, [weight * xi**shift], [rate * q**shift], q, xi, inv_num, inv_den)
    return (lambda n: terms(n) * h(terms.point(n))), terms.point


def transform(
    spec: TransformSpec,
    h: Callable[[complex], complex],
    E_source: complex,
    x: complex,
) -> complex:
    """Jackson-integral image of the seed h, evaluated at x.

    Returns x^(-alpha1) times the q-integral over s of
    s^(-weight) h(s) K(x, s) along the spiral anchored at xi, i.e.
    (1 - q) sum_n s_n^(1-weight) h(s_n) K(x, s_n) with s_n = q^n xi.
    The kernel's products are computed once at s = xi and stepped along
    the spiral by one finite factor per term; a Seed record on the
    source's base q is stepped with them, while any other callable h is
    evaluated at each s_n.  Each side of the sum stops by qcore's rule.
    E_source is accepted for interface symmetry with param_map; the
    integral itself does not depend on it.
    """
    del E_source
    if x == 0:
        raise DomainError("kernel arguments must be nonzero")
    src = spec.source
    x = complex(x)
    xi = complex(spec.xi)
    *factors, power = _kernel_factors(spec, x)
    # (x / s_n)**power == (x / xi)**power * q**(-n * power) along the spiral.
    term, _ = _spiral_terms(
        h, xi, src.q, 1.0 - seed_weight_exponent(src), factors,
        (x / xi) ** power, src.q ** (-power),
    )
    return x ** (-spec.alpha1) * (1.0 - src.q) * bilateral_sum(term)


def _spiral_limit(values: Callable[[int], complex], point: Callable[[int], complex]) -> complex:
    """Limit of a sequence along the spiral index.

    Declares convergence when three successive values agree to
    SETTLE_FLOOR; zero when magnitudes decay monotonically below
    LIMIT_ZERO; raises NoLimit otherwise, including when a value
    overflows or is not finite (the message names the index k and the
    point s = point(k)), or when MAX_TERMS values have done neither.
    """
    window: list[complex] = []
    decay_run = 0
    prev_mag = None
    for k in range(MAX_TERMS):
        try:
            v = complex(values(k))
        except OverflowError as exc:
            raise NoLimit(f"spiral sequence overflows at k = {k}, s = {point(k)!r}") from exc
        if not cmath.isfinite(v):
            raise NoLimit(f"spiral sequence is not finite at k = {k}, s = {point(k)!r}: {v!r}")
        mag = abs(v)
        if prev_mag is not None and mag < LIMIT_ZERO and mag <= prev_mag:
            decay_run += 1
            if decay_run >= 3:
                return 0.0 + 0.0j
        else:
            decay_run = 0
        prev_mag = mag
        window.append(v)
        if len(window) > 3:
            window.pop(0)
        if len(window) == 3:
            scale = max(abs(w) for w in window)
            if scale > 0 and all(
                abs(window[i + 1] - window[i]) <= SETTLE_FLOOR * scale for i in range(2)
            ):
                return window[-1]
    raise NoLimit(f"spiral sequence neither settled nor decayed to zero by k = {MAX_TERMS - 1}")


def boundary_limits(
    spec: TransformSpec,
    h: Callable[[complex], complex],
) -> tuple[complex, complex]:
    """Numerical estimates of the two spiral limits (C1, C2) of the seed.

    C1 follows h(s) / s^weight as s = q^k xi runs down the spiral to 0,
    C2 follows h(s) * s^alpha1' as s = q^-k xi runs outward.  A Seed
    record on the source's base q is stepped along the spiral from xi as
    in transform; any other callable h is evaluated at each point.
    """
    src = spec.source
    xi = complex(spec.xi)
    inward, inward_at = _spiral_terms(h, xi, src.q, -seed_weight_exponent(src))
    outward, outward_at = _spiral_terms(h, xi, src.q, src.alpha1)
    return (
        _spiral_limit(inward, inward_at),
        _spiral_limit(lambda k: outward(-k), lambda k: outward_at(-k)),
    )


def boundary_terms(spec: TransformSpec, C1: complex, C2: complex, x: complex) -> tuple[complex, complex]:
    """Boundary contributions (k1(x), k2(x)) for the chosen kernel.

    The transformed function g satisfies
    Op g = E g + (1 - q)(k2 - k1) on the target system.
    """
    if x == 0:
        raise DomainError("boundary terms are singular at x = 0")
    src = spec.source
    q = src.q
    chi = source_chi(src)
    mu0 = spec.mu0
    a1 = spec.alpha1
    xi = spec.xi
    x = complex(x)
    shared1 = q ** (mu0 + a1 + src.h1 + src.h2 + chi) * (q ** src.beta - 1.0) * src.t1 * src.t2
    shared2 = q ** (mu0 + a1) * (q ** (src.alpha2 - src.alpha1) - 1.0)
    if spec.kernel == "P1":
        k1 = C1 * x ** (-a1) * shared1
        k2 = (
            C2
            * x ** (-a1)
            * theta(q ** (-mu0 - chi) * x / xi, q)
            / theta(q ** (-mu0 + 1.0) * x / xi, q)
            * xi ** (chi + 1.0)
            * shared2
        )
        return k1, k2
    k1 = (
        C1
        * x ** (-a1 + chi + 1.0)
        * xi ** (-chi - 1.0)
        * theta(q ** (-mu0 + 1.0) * x / xi, q)
        / theta(q ** (-mu0 - chi) * x / xi, q)
        * shared1
    )
    k2 = C2 * x ** (-a1 + chi + 1.0) * shared2
    return k1, k2
