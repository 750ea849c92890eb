"""Products of infinite shifted factorials stepped along a q-spiral.

Along the spiral s_n = q**n * xi every factor (c s; q)_inf or
(c / s; q)_inf changes by one finite factor per step, e.g.

    (c q s; q)_inf = (c s; q)_inf / (1 - c s),
    (c / (q s); q)_inf = (1 - c / (q s)) (c / s; q)_inf

(Gasper & Rahman, Basic Hypergeometric Series, ch. 1).  SpiralTerms
anchors a product of such factors once at n = 0 and then steps it both
ways, which costs O(1) per term instead of a full infinite product.
The same stepping gives the two-sided series of both solution families,

    sum_n  [ prod_i (u_i; q)_n / prod_j (v_j; q)_n ] * sum_k w_k r_k^n,

whose coefficient is the stepped product relative to its n = 0 value.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from operator import mul
from typing import Sequence

from .errors import PoleError
from .qcore import DEFAULT_CONTROL, POLE_CUTOFF, SeriesControl, bilateral_sum, q_pochhammer_ratio

# A step factor (1 - y) closer to zero than this would divide out, or
# multiply in, a zero or pole of the anchored value; the value at the
# new index is then recomputed from the full products instead.
RECOMPUTE_CUTOFF = 1e-3
# Powers r_k**n beyond this magnitude (or below its inverse) are
# renormalised, their scale moving into the product value, so that long
# walks do not overflow one part while the term itself stays finite.
RESCALE_AT = 1e150


def spiral_product(
    s: complex,
    num: Sequence[complex],
    den: Sequence[complex],
    inv_num: Sequence[complex],
    inv_den: Sequence[complex],
    q: float,
) -> complex:
    """V(s) = prod (c s; q)_inf / prod (d s; q)_inf * prod (c/s; q)_inf / prod (d/s; q)_inf.

    Numerator coefficients c come from num and inv_num, denominator
    coefficients d from den and inv_den; formed directly by
    q_pochhammer_ratio.
    """
    return q_pochhammer_ratio(
        [c * s for c in num] + [c / s for c in inv_num],
        [d * s for d in den] + [d / s for d in inv_den],
        q,
    )


class SpiralTerms:
    """term(n) = V(s_n) * sum_k w_k r_k**n along s_n = q**n * xi.

    V is spiral_product(s, num, den, inv_num, inv_den, q).

    V(xi) is computed once with q_pochhammer_ratio; every other index is
    reached by stepping from n = 0.  A step factor near zero means a
    zero crossing or a near-pole, where stepping would cancel digits;
    the value there is recomputed directly, which also raises PoleError
    at a pole exactly where the direct product does.

    With ``anchor`` given, it replaces V(xi): term(n) then carries the
    ratio V(s_n) / V(xi), i.e. the shifted-factorial coefficient
    (u; q)_n / (v; q)_n for xi = 1, num = v, den = u.  That ratio stays
    finite where V(xi) itself vanishes or is infinite (terminating or
    truncated series), so nothing can be recomputed; a vanishing divisor
    is a pole of the coefficient, and a coefficient that reached zero
    stays zero.

    Only the states at n = 0 and at the two walk fronts are kept.  A
    state holds V(s_n) * c and r_k**n / c for a scale c that keeps the
    powers near 1.
    """

    def __init__(
        self,
        num: Sequence[complex],
        den: Sequence[complex],
        weights: Sequence[complex],
        rates: Sequence[complex],
        q: float,
        xi: complex = 1.0,
        inv_num: Sequence[complex] = (),
        inv_den: Sequence[complex] = (),
        anchor: complex | None = None,
    ) -> None:
        self.num = [complex(u) for u in num]
        self.den = [complex(v) for v in den]
        self.inv_num = [complex(u) for u in inv_num]
        self.inv_den = [complex(v) for v in inv_den]
        self.weights = [complex(w) for w in weights]
        self.rates = [complex(r) for r in rates]
        self.q = q
        self.exact = anchor is None
        # Interleaved (multiplied, divided) coefficient pairs per direction,
        # so that large factors cancel before they overflow; a missing
        # partner is 0, whose factor is exactly 1.
        self.pairs_up = list(zip_longest(self.den, self.num, fillvalue=0j))
        self.pairs_down = [(b, a) for a, b in self.pairs_up]
        self.inv_pairs_up = list(zip_longest(self.inv_num, self.inv_den, fillvalue=0j))
        self.inv_pairs_down = [(b, a) for a, b in self.inv_pairs_up]
        s0 = complex(xi)
        value = self._direct(s0) if self.exact else complex(anchor)
        # A state is [n, s_n, value * c, powers r_k**n / c, c].
        self.origin = (0, s0, value, [1.0 + 0.0j] * len(self.rates), 1.0)
        self.up = list(self.origin)
        self.down = list(self.origin)

    def _direct(self, s: complex) -> complex:
        return spiral_product(s, self.num, self.den, self.inv_num, self.inv_den, self.q)

    def _step(self, state: list, upward: bool) -> None:
        n, s, value, powers, scale = state
        # Factor pairs (a, b) step V by (1 - a y) / (1 - b y), with y = s_n
        # or s_(n-1) for s-factors and 1/s_(n+1) or 1/s_n for 1/s-factors.
        if upward:
            n1, s1 = n + 1, s * self.q
            y, pairs, inv_pairs = s, self.pairs_up, self.inv_pairs_up
            powers = [p * r for p, r in zip(powers, self.rates)]
        else:
            n1, s1 = n - 1, s / self.q
            y, pairs, inv_pairs = s1, self.pairs_down, self.inv_pairs_down
            powers = [p / r for p, r in zip(powers, self.rates)]
        factors = [(1.0 - a * y, 1.0 - b * y) for a, b in pairs]
        if inv_pairs:
            t = 1.0 / (s1 if upward else s)
            factors += [(1.0 - a * t, 1.0 - b * t) for a, b in inv_pairs]
        if self.exact:
            for f, g in factors:
                if abs(f) < RECOMPUTE_CUTOFF or abs(g) < RECOMPUTE_CUTOFF:
                    value = self._direct(s1) * scale
                    break
                value = value * f / g
        elif value != 0:
            for f, g in factors:
                if abs(g) < POLE_CUTOFF * (1.0 + abs(1.0 - g)):
                    raise PoleError(f"coefficient ratio has a pole at index {n1}")
                value = value * f / g
        m = max(map(abs, powers), default=1.0)
        if not 1.0 / RESCALE_AT < m < RESCALE_AT and 0.0 < m < math.inf:
            # A power of two, so that rescaling rounds nothing.
            c = 2.0 ** -math.frexp(m)[1]
            powers = [p * c for p in powers]
            value /= c
            scale /= c
        state[:] = n1, s1, value, powers, scale

    def _seek(self, n: int) -> list:
        state = self.up if n >= 0 else self.down
        if abs(n) < abs(state[0]):
            state[:] = self.origin
        while state[0] != n:
            self._step(state, n > 0)
        return state

    def point(self, n: int) -> complex:
        """The spiral point s_n = q**n * xi, as reached by stepping."""
        return self._seek(n)[1]

    def __call__(self, n: int) -> complex:
        _, _, value, powers, _ = self._seek(n)
        return value * sum(map(mul, self.weights, powers))


def weighted_bilateral(
    num: Sequence[complex],
    den: Sequence[complex],
    weights: Sequence[complex],
    rates: Sequence[complex],
    q: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Evaluate the two-sided sum described in the module docstring."""
    return bilateral_sum(SpiralTerms(den, num, weights, rates, q, anchor=1.0), ctl)
