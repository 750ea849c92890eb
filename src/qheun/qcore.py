"""q-series primitives with one fixed stop rule.

Conventions fixed for the whole package:

* the base q is a real number strictly between 0 and 1;
* general powers use the principal branch, and because q > 0 the
  identity (q**n * v)**c == q**(n*c) * v**c holds exactly, which keeps
  every series rewrite used elsewhere branch-consistent;
* infinite products are truncated once the remaining factors differ
  from 1 by less than ~1e-17, i.e. below double-precision resolution,
  with no tail correction.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from itertools import zip_longest
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError, PoleError

# Factors (1 - a q^k) with |a q^k| below this are numerically 1.
PRODUCT_CUTOFF = 1e-17
# Denominator factors closer to zero than this (relative) count as poles.
POLE_CUTOFF = 1e-12
# A parameter a of phi_series terminates it where |1 - a q**m| is below this.
TERMINATION_TOL = 16 * sys.float_info.epsilon
# The one stop rule of every infinite sum (phi_series, TailSum): a tail
# bound below REL_TOL times the partial sum ends it; DIVERGENCE_WINDOW terms
# in a row below that settle a sum without a bound, or, failing to decrease,
# diverge; MAX_TERMS terms (product levels, limit steps) end any of them.
REL_TOL = 1e-15
MAX_TERMS = 10000
DIVERGENCE_WINDOW = 50
_TINY = 1e-300




def check_q(q: float) -> float:
    """Validate the series base; q must lie strictly inside (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"base q must satisfy 0 < q < 1, got {q!r}")
    return q


def q_pochhammer(a: complex, q: float, n) -> complex:
    """Shifted factorial (a; q)_n for integer or infinite n.

    n = 0 is the empty product 1; positive n gives the finite product
    of (1 - a q^k) over k < n; negative n uses the reciprocal
    convention 1 / (a q^n; q)_{-n}; n = math.inf gives the truncated
    infinite product.

    Raises PoleError when a negative-n value divides by a factor
    1 - a q^k that vanishes to within POLE_CUTOFF (relative), as the
    product kernel does.
    """
    if n is math.inf or (isinstance(n, float) and math.isinf(n) and n > 0):
        return q_pochhammer_ratio([a], [], q)
    check_q(q)
    a = complex(a)
    if not isinstance(n, (int,)):
        raise DomainError(f"n must be an integer or math.inf, got {n!r}")
    if n == 0:
        return 1.0 + 0.0j
    if n > 0:
        prod = 1.0 + 0.0j
        ak = a
        for _ in range(n):
            prod *= 1.0 - ak
            ak *= q
        return prod
    # (a; q)_n = 1 / (a q^n; q)_{-n}
    denom = 1.0 + 0.0j
    ak = a * q ** n
    for _ in range(-n):
        f = 1.0 - ak
        if abs(f) < POLE_CUTOFF * (1.0 + abs(ak)):
            raise PoleError(f"(a; q)_n has a pole at a={a!r}, n={n}")
        denom *= f
        ak *= q
    return 1.0 / denom


def q_pochhammer_ratio(num: Sequence[complex], den: Sequence[complex], q: float) -> complex:
    """prod_i (num_i; q)_inf / prod_j (den_j; q)_inf, formed level by level.

    This is the one loop that forms infinite products.  Level k takes
    the factors (1 - a q**k) with a fresh power q**k, so rounding does
    not accumulate over the levels.  Multiplications and divisions are
    interleaved within each level so that balanced numerator/denominator
    lists with large arguments cancel before they can overflow.  Raises
    PoleError when a denominator factor vanishes.
    """
    check_q(q)
    # (numerator, denominator) argument pairs; a missing partner is 0,
    # whose factor is exactly 1.
    pairs = list(zip_longest(map(complex, num), map(complex, den), fillvalue=0j))
    value = 1.0 + 0.0j
    for k in range(MAX_TERMS):
        qk = q**k
        live = False
        for a, b in pairs:
            x, y = a * qk, b * qk
            if abs(x) >= PRODUCT_CUTOFF or abs(y) >= PRODUCT_CUTOFF:
                live = True
            f = 1.0 - y
            if abs(f) < POLE_CUTOFF * (1.0 + abs(y)):
                raise PoleError(f"denominator factor (1 - {y!r}) vanishes")
            value = value * (1.0 - x) / f
        if not live:
            return value
    raise ConvergenceError("infinite product did not settle within max_terms levels")


def theta(t: complex, q: float) -> complex:
    """Triple-product theta value (t; q)_inf (q/t; q)_inf (q; q)_inf."""
    check_q(q)
    t = complex(t)
    if t == 0:
        raise DomainError("theta is undefined at t = 0")
    return q_pochhammer_ratio([t, q / t, q], [], q)


def _termination_index(params: Sequence[complex], q: float) -> int | None:
    """Smallest m >= 0 with some parameter equal to q**(-m), else None.

    A parameter counts as q**(-m) only where the factor 1 - a q**m that
    ends the series is at rounding level; one merely near the lattice
    leaves a tail of relative size about |1 - a q**m| and is summed.
    """
    stops = []
    for a in params:
        if a == 0:
            continue
        m = -round(math.log(abs(a)) / math.log(q))
        if m >= 0 and abs(1.0 - a * q**m) <= TERMINATION_TOL:
            stops.append(m)
    return min(stops, default=None)


def phi_series(
    upper: Sequence[complex],
    lower: Sequence[complex],
    q: float,
    z: complex,
) -> complex:
    """Unilateral basic hypergeometric sum with r upper and r-1 lower parameters.

    Terms are (a_1;q)_n ... (a_r;q)_n / ((q;q)_n (b_1;q)_n ...) * z^n.
    A series terminates when some upper parameter equals q**(-m) for a
    non-negative integer m (the partial sum through n = m is then
    returned exactly); otherwise |z| < 1 is required.

    A non-terminating series stops at a certified tail bound.  With
    y = q**(n+1), every term ratio t_{k+1} / t_k for k > n is at most
    rho = |z| prod(1 + |a_i| y) / ((1 - q y) prod(1 - |b_j| y)) in
    modulus, wherever every 1 - |b_j| y is positive (Gasper & Rahman,
    Basic Hypergeometric Series, sec. 1.2).  So once rho < 1 and
    |t_{n+1}| / (1 - rho) <= REL_TOL |partial sum|, the sum through
    t_{n+1} is returned: the tail beyond it is smaller than that.

    Raises ConvergenceError for a non-terminating series with |z| >= 1
    or one that has not stopped within MAX_TERMS terms, and
    PoleError when a lower-parameter factor vanishes before termination.
    """
    check_q(q)
    ups = [complex(a) for a in upper]
    los = [complex(b) for b in lower]
    if len(ups) != len(los) + 1:
        raise DomainError("need exactly one more upper than lower parameter")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    stop = _termination_index(ups, q)
    if stop is None and abs(z) >= 1.0:
        raise ConvergenceError(f"non-terminating series with |z| = {abs(z)} >= 1")
    abs_ups = [abs(a) for a in ups]
    abs_los = [abs(b) for b in los]
    max_lo = max(abs_los, default=0.0)

    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    qn = 1.0  # q**n
    for n in range(MAX_TERMS):
        total += term
        if stop is not None and n == stop:
            return total
        ratio = z
        for a in ups:
            ratio *= 1.0 - a * qn
        den = 1.0 - q * qn
        for b in los:
            f = 1.0 - b * qn
            if abs(f) < POLE_CUTOFF * (1.0 + abs(b * qn)):
                raise PoleError(f"lower parameter {b!r} hits a pole at index {n}")
            den *= f
        term = term * ratio / den
        qn *= q
        if stop is None:
            # The tail bound is formed only once the term itself is negligible.
            mag = abs(term)
            limit = REL_TOL * max(abs(total + term), _TINY)
            if mag <= limit and max_lo * qn < 1.0:
                rho = (
                    abs(z)
                    * math.prod(1.0 + a * qn for a in abs_ups)
                    / ((1.0 - q * qn) * math.prod(1.0 - b * qn for b in abs_los))
                )
                if rho < 1.0 and mag <= limit * (1.0 - rho):
                    return total + term
    raise ConvergenceError("series did not reach the stopping rule within max_terms")


class TailSum:
    """Running total and stop rule of one one-sided sum, fed term by term.

    add(t, n, bound) adds the term t of index n and returns True once
    the sum is settled.  A term at most REL_TOL times the running
    total is negligible; at each negligible term bound(n), a bound on
    the sum of |term| over every index beyond n, is asked for, and the
    sum stops if it is strictly below REL_TOL times the total (so a
    zero or NaN total never certifies).  Without a bound, or where it
    certifies nothing, the sum stops after DIVERGENCE_WINDOW
    consecutive negligible terms.  add raises ConvergenceError once
    terms fail to decrease for that many consecutive indices, or once
    MAX_TERMS terms have not settled the sum.  Every one-sided sum,
    alone or sharing a walk with others, stops by this rule.
    """

    __slots__ = ("budget", "total", "small_run", "growth_run", "prev")

    def __init__(self) -> None:
        self.budget = MAX_TERMS  # terms left
        self.total = 0.0 + 0.0j
        self.small_run = 0
        self.growth_run = 0
        self.prev = math.inf

    def add(self, t: complex, n: int, bound: Callable[[int], float] | None = None) -> bool:
        self.total = total = self.total + t
        mag = abs(t)
        size = abs(total)
        if size < _TINY:  # max(|total|, _TINY), a NaN total kept
            size = _TINY
        if mag <= REL_TOL * size:
            self.small_run = small_run = self.small_run + 1
            self.growth_run = 0
            # Strictly below a nonzero total: an all-zero start never certifies.
            if small_run >= DIVERGENCE_WINDOW or (bound is not None and bound(n) < REL_TOL * abs(total)):
                return True
        else:
            self.small_run = 0
            if mag >= self.prev:
                self.growth_run = growth_run = self.growth_run + 1
                if growth_run >= DIVERGENCE_WINDOW:
                    raise ConvergenceError(f"terms fail to decay near n = {n}")
            else:
                self.growth_run = 0
        self.prev = mag
        self.budget = budget = self.budget - 1
        if not budget:
            raise ConvergenceError("one-sided tail did not converge within max_terms")
        return False


def _one_sided_sum(term: Callable[[int], complex], start: int, step: int) -> complex:
    tail = TailSum()
    add = tail.add
    bound = getattr(term, "tail_bound", None)
    n = start
    while not add(complex(term(n)), n, bound):
        n += step
    return tail.total


def bilateral_sum(term: Callable[[int], complex]) -> complex:
    """Two-sided sum of term(n) over all integers n.

    Evaluated as two independent one-sided sums (n >= 0 and n <= -1),
    each stopped by TailSum's rule.  A term with a tail_bound(n) method
    (a _bilateral.SpiralTerms walk) supplies the bound; any other
    callable stops by the DIVERGENCE_WINDOW rule.  Raises
    ConvergenceError if either tail fails to decay.
    """
    plus = _one_sided_sum(term, 0, +1)
    minus = _one_sided_sum(term, -1, -1)
    return plus + minus


def q_spiral(xi: complex, q: float) -> Callable[[int], complex]:
    """Cached map n -> q**n * xi, filled incrementally to avoid pow overflow."""
    cache = {0: complex(xi)}
    lo = [0]
    hi = [0]

    def point(n: int) -> complex:
        while hi[0] < n:
            cache[hi[0] + 1] = cache[hi[0]] * q
            hi[0] += 1
        while lo[0] > n:
            cache[lo[0] - 1] = cache[lo[0]] / q
            lo[0] -= 1
        return cache[n]

    return point


def jackson_integral(
    f: Callable[[complex], complex],
    xi: complex,
    q: float,
) -> complex:
    """q-integral of f along the spiral {q^n xi}: (1-q) sum_n q^n xi f(q^n xi)."""
    check_q(q)
    if xi == 0:
        raise DomainError("the anchor point xi must be nonzero")
    spiral = q_spiral(xi, q)

    def term(n: int) -> complex:
        s = spiral(n)
        return s * f(s)

    return (1.0 - q) * bilateral_sum(term)
