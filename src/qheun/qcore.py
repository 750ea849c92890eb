"""q-series primitives with one fixed stop rule.

Conventions fixed for the whole package:

* the base q is a real number strictly between 0 and 1;
* general powers use the principal branch, and because q > 0 the
  identity (q**n * v)**c == q**(n*c) * v**c holds exactly, which keeps
  every series rewrite used elsewhere branch-consistent;
* infinite products are truncated once the remaining factors differ
  from 1 by less than ~1e-17, i.e. below double-precision resolution,
  with no tail correction.

phi_series is one SeriesChain summed once.  A chain holds what a
series does not owe to its argument z (the factors, denominators and
pole checks of each term), so a caller that sums one parameter set at
many z, such as the N + 1 terms of a finite-sum form, forms that work
once and keeps the chain for as long as it needs it.  Every value it
gives is bit-for-bit the phi_series value.

bilateral_sum, by _one_sided_sum, is the package's one two-sided loop:
a side stops at the caller's tail bound, or without one by the window.

All functions are pure and safe to call concurrently; a SeriesChain
fills itself in as it is summed and belongs to one caller.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import zip_longest
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError, PoleError, typed

# Factors (1 - a q^k) with |a q^k| below this are numerically 1.
PRODUCT_CUTOFF = 1e-17
# Denominator factors closer to zero than this (relative) count as poles.
POLE_CUTOFF = 1e-12
# A parameter a of phi_series terminates it where |1 - a q**m| is below this.
TERMINATION_TOL = 16 * sys.float_info.epsilon
# The one stop rule of every infinite sum (phi_series, _one_sided_sum): a tail
# bound below REL_TOL times the partial sum ends it; DIVERGENCE_WINDOW terms
# in a row below that settle a sum without a bound, or, failing to decrease,
# diverge; MAX_TERMS terms (product levels, limit steps) end any of them.
REL_TOL = 1e-15
MAX_TERMS = 10000
DIVERGENCE_WINDOW = 50
_TINY = 1e-300
# A denominator factor 1 - b q**k with |b| q**k <= POLE_FREE cannot
# vanish, so its pole check is skipped there.
POLE_FREE = 0.5


def check_q(q: float) -> float:
    """Validate the series base; q must lie strictly inside (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"base q must satisfy 0 < q < 1, got {q!r}")
    return q


@typed(lambda a, q, n: f"in (a; q)_n at a = {a!r}, n = {n!r}")
def q_pochhammer(a: complex, q: float, n) -> complex:
    """Shifted factorial (a; q)_n for integer or infinite n.

    n = 0 is the empty product 1; positive n gives the finite product
    of (1 - a q^k) over k < n; negative n uses the reciprocal
    convention 1 / (a q^n; q)_{-n}; n = math.inf gives the truncated
    infinite product.

    Raises PoleError when a negative-n value divides by a factor
    1 - a q^k that vanishes to within POLE_CUTOFF (relative), as the
    product kernel does, and a float overflow or division by zero as
    a DomainError at (a, n).
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


def _top_modulus(values: Sequence[complex]) -> float:
    """The largest |v| of values, formed without an overflow error; inf where one is NaN.

    It feeds only the pole-check bound, which then keeps every check.
    """
    moduli = [math.hypot(v.real, v.imag) for v in values]
    if math.isnan(sum(moduli)):
        return math.inf
    return max(moduli, default=0.0)


def q_pochhammer_ratio(num: Sequence[complex], den: Sequence[complex], q: float) -> complex:
    """prod_i (num_i; q)_inf / prod_j (den_j; q)_inf, formed level by level.

    This is the one loop that forms infinite products.  Level k takes
    the factors (1 - a q**k) with a fresh power q**k, so rounding does
    not accumulate over the levels.  Multiplications and divisions are
    interleaved within each level so that balanced numerator/denominator
    lists with large arguments cancel before they can overflow.  Raises
    PoleError when a denominator factor vanishes; a level is tested for
    poles only where M q**k > POLE_FREE, with M the largest denominator
    argument modulus, since below that no factor can vanish.  Raises
    OverflowError where the product is not finite: the inputs are
    finite, so some level left the float range.
    """
    check_q(q)
    # (numerator, denominator) argument pairs; a missing partner is 0,
    # whose factor is exactly 1.
    pairs = list(zip_longest(map(complex, num), map(complex, den), fillvalue=0j))
    top_den = _top_modulus([b for _, b in pairs])
    value = 1.0 + 0.0j
    for k in range(MAX_TERMS):
        qk = q**k
        check = top_den * qk > POLE_FREE
        live = False
        for a, b in pairs:
            x, y = a * qk, b * qk
            if abs(x) >= PRODUCT_CUTOFF or abs(y) >= PRODUCT_CUTOFF:
                live = True
            f = 1.0 - y
            if check and abs(f) < POLE_CUTOFF * (1.0 + abs(y)):
                raise PoleError(f"denominator factor (1 - {y!r}) vanishes")
            value = value * (1.0 - x) / f
        if not live:
            if not cmath.isfinite(value):
                raise OverflowError(f"infinite product is not finite: {value!r}")
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


@typed(lambda upper, lower, q, z: f"in phi_series at z = {z!r}")
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
    or one that has not stopped within MAX_TERMS terms,
    PoleError when a lower-parameter factor vanishes before termination,
    and DomainError for a parameter that is not finite or, through
    errors.typed, for a float overflow or division by zero.
    This is the one-chain call: SeriesChain(upper, lower, q).sum(z).
    """
    return SeriesChain(upper, lower, q).sum(z)


class SeriesChain:
    """The z-free part of phi_series(upper, lower, q, z), summed at any number of z.

    The constructor forms the termination index and the parameter
    moduli.  Level n holds the upper factors (1 - a q**n), the
    denominator (1 - q**(n+1)) prod (1 - b q**n), whose pole check it
    has passed, and q**(n+1).  Levels are formed on first use, so a
    chain holds as many as its longest sum needed, and a level is kept
    only once it is formed: every sum that reaches a pole raises a
    PoleError of its own.  The two products of the tail bound are formed
    where a term is negligible, and not kept.  sum(z) runs the series
    loop and stop rule of phi_series on these levels, with the same
    floating-point operations in the same order, so its value does not
    depend on what the chain held before.
    """

    __slots__ = ("q", "ups", "los", "stop", "moduli", "factors", "dens", "powers")

    def __init__(self, upper: Sequence[complex], lower: Sequence[complex], q: float) -> None:
        check_q(q)
        self.ups = [complex(a) for a in upper]
        self.los = [complex(b) for b in lower]
        if len(self.ups) != len(self.los) + 1:
            raise DomainError("need exactly one more upper than lower parameter")
        for a in self.ups + self.los:
            if not cmath.isfinite(a):
                raise DomainError(f"series parameter {a!r} is not finite")
        self.q = q
        self.stop = _termination_index(self.ups, q)  # the termination index, or None
        # |a| per upper and |b| per lower parameter, and max |b|; an overflowing modulus raises
        abs_ups, abs_los = [abs(a) for a in self.ups], [abs(b) for b in self.los]
        self.moduli = (abs_ups, abs_los, max(abs_los, default=0.0))
        self.factors: list[list[complex]] = []  # level n: the upper factors
        self.dens: list[complex] = []  # level n: the denominator
        self.powers = [1.0]  # q**n for n = 0 .. the number of levels

    def sum(self, z: complex) -> complex:
        """phi_series(upper, lower, q, z)."""
        z = complex(z)
        if z == 0:
            return 1.0 + 0.0j
        stop = self.stop
        if stop is None and abs(z) >= 1.0:
            raise ConvergenceError(f"non-terminating series with |z| = {abs(z)} >= 1")
        q, ups, (abs_ups, abs_los, max_lo) = self.q, self.ups, self.moduli
        lower = list(zip(self.los, abs_los))
        all_factors, dens, powers = self.factors, self.dens, self.powers
        formed = len(dens)
        prod, rel_tol, tiny, inf = math.prod, REL_TOL, _TINY, math.inf
        total = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for n in range(MAX_TERMS):
            total += term
            if n == stop:
                return total
            if n < formed:
                factors, den = all_factors[n], dens[n]
            else:
                qn = powers[n]
                factors = [1.0 - a * qn for a in ups]
                den = 1.0 - q * qn
                for b, mb in lower:
                    f = 1.0 - b * qn
                    if mb * qn > POLE_FREE and abs(f) < POLE_CUTOFF * (1.0 + abs(b * qn)):
                        raise PoleError(f"lower parameter {b!r} hits a pole at index {n}")
                    den *= f
                all_factors.append(factors)
                dens.append(den)
                powers.append(qn * q)
                formed += 1
            # z times the factors in order: the ratio of term n + 1 to term n.
            term = term * prod(factors, start=z) / den
            if stop is None:
                mag = abs(term)
                if not mag < inf:  # the inputs are finite, so some level left the float range
                    raise OverflowError(f"series term at n = {n + 1} is not finite: {term!r}")
                size = abs(total + term)
                limit = rel_tol * (tiny if tiny > size else size)  # max(size, _TINY), a NaN kept
                # The tail bound, at y = q**(n+1), is formed only once the term is negligible,
                # and only where every 1 - |b_j| y is positive.
                if mag <= limit:
                    y = powers[n + 1]
                    if max_lo * y < 1.0:
                        rho = abs(z) * prod(1.0 + a * y for a in abs_ups) / (
                            (1.0 - q * y) * prod(1.0 - b * y for b in abs_los)
                        )
                        if rho < 1.0 and mag <= limit * (1.0 - rho):
                            return total + term
        raise ConvergenceError("series did not reach the stopping rule within max_terms")


def _one_sided_sum(
    term: Callable[[int], complex], bound: Callable[[int], float] | None, start: int, step: int
) -> complex:
    """The sum of term(n) over n = start, start + step, ... by the one stop rule.

    A term at most REL_TOL times the running total is negligible; at
    each negligible term bound(n), a bound on the sum of |term| over
    every index beyond n, is asked for, and the sum stops if it is
    strictly below REL_TOL times the total (so a zero or NaN total
    never certifies).  Without a bound, or where it certifies nothing,
    the sum stops after DIVERGENCE_WINDOW consecutive negligible terms.
    Raises ConvergenceError once terms fail to decrease for that many
    consecutive indices, or once MAX_TERMS terms have not settled the
    sum, and OverflowError at a term whose modulus is NaN: the inputs
    are finite, so such a term means that some step left the float range.
    """
    total = 0.0 + 0.0j
    small_run = growth_run = 0
    prev = math.inf
    n = start
    for _ in range(MAX_TERMS):
        t = term(n)
        total += t
        mag = abs(t)
        size = abs(total)
        if size < _TINY:  # max(|total|, _TINY), a NaN total kept
            size = _TINY
        if mag <= REL_TOL * size:
            small_run += 1
            growth_run = 0
            # Strictly below a nonzero total: an all-zero start never certifies.
            if small_run >= DIVERGENCE_WINDOW or (bound is not None and bound(n) < REL_TOL * abs(total)):
                return total
        elif mag != mag:
            raise OverflowError(f"term at n = {n} is not a number")
        else:
            small_run = 0
            if mag >= prev:
                growth_run += 1
                if growth_run >= DIVERGENCE_WINDOW:
                    raise ConvergenceError(f"terms fail to decay near n = {n}")
            else:
                growth_run = 0
        prev = mag
        n += step
    raise ConvergenceError("one-sided tail did not converge within max_terms")


def bilateral_sum(term: Callable[[int], complex], bound: Callable[[int], float] | None) -> complex:
    """Two-sided sum of term(n) over all integers n.

    Evaluated as two independent one-sided sums (n >= 0 and n <= -1),
    each stopped by _one_sided_sum's rule with the tail bound bound(n),
    such as a _bilateral.SpiralTerms row gives; with bound None a side
    stops by the DIVERGENCE_WINDOW rule.  Raises ConvergenceError if
    either tail fails to decay, and OverflowError at a NaN term.
    """
    plus = _one_sided_sum(term, bound, 0, +1)
    minus = _one_sided_sum(term, bound, -1, -1)
    return plus + minus


@typed(lambda f, xi, q: f"at xi = {xi!r}")
def jackson_integral(
    f: Callable[[complex], complex],
    xi: complex,
    q: float,
) -> complex:
    """q-integral of f along the spiral {q^n xi}: (1-q) sum_n q^n xi f(q^n xi).

    Each point is stepped from its neighbour toward n = 0, s_{n-1} * q above
    and s_{n+1} / q below, which bilateral_sum's order n = 0, 1, ... then
    -1, -2, ... always asks for just before.  An overflow, a NaN term
    included, raises a DomainError at xi.
    """
    check_q(q)
    if xi == 0:
        raise DomainError("the anchor point xi must be nonzero")
    anchor = complex(xi)
    last = [anchor]  # the point asked for last

    def term(n: int) -> complex:
        if n > 0:
            s = last[0] * q
        else:
            s = anchor if n == 0 else (anchor if n == -1 else last[0]) / q
        last[0] = s
        return complex(s * f(s))

    return (1.0 - q) * bilateral_sum(term, None)
