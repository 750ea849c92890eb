"""Products of infinite shifted factorials stepped along a q-spiral.

Along the spiral s_n = q**n * xi every factor (c s; q)_inf or
(c / s; q)_inf changes by one finite factor per step, e.g.

    (c q s; q)_inf = (c s; q)_inf / (1 - c s),
    (c / (q s); q)_inf = (1 - c / (q s)) (c / s; q)_inf

(Gasper & Rahman, Basic Hypergeometric Series, ch. 1).  SpiralTerms
anchors a product of such factors once at n = 0 and then steps it both
ways, which costs O(1) per term instead of a full infinite product.
The same stepping gives the two-sided series of both solution families,

    sum_n  [ prod_j (v_j q^n; q)_inf / prod_i (u_i q^n; q)_inf ] * sum_k w_k r_k^n,

i.e. (v; q)_inf / (u; q)_inf times the shifted-factorial coefficient
(u; q)_n / (v; q)_n.  The products and the powers r_k**n do not depend
on the weights w_k, so weighted_bilateral walks once for a list of
weight vectors: a form's N + 1 accessory roots differ only in their
weights, and a single root is the one-row case.

The step factors also bound the tail.  Once the moduli of the factors
of a step are bounded by F, and F |r_k| < 1 (F / |r_k| downward), the
terms beyond n are dominated by geometric series in those ratios, so
SpiralTerms.tail_bound certifies the rest of a side in closed form, as
qcore.phi_series does for its series; each side stops at its first
negligible term whose bound is below REL_TOL times the partial sum.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import zip_longest
from operator import mul
from typing import Sequence

from .errors import ConvergenceError, QHeunError
from .qcore import TailSum, q_pochhammer_ratio

# A step factor (1 - y) closer to zero than this would divide out, or
# multiply in, a zero or pole of the anchored value; the value at the
# new index is then recomputed from the full products instead.
RECOMPUTE_CUTOFF = 1e-3
# Powers r_k**n beyond this magnitude (or below its inverse) are
# renormalised, their scale moving into the product value, so that long
# walks do not overflow one part while the term itself stays finite.
RESCALE_AT = 1e150
# Far out every step factor is 1 to rounding and the tail is a plain
# geometric series, which the tail bound matches to about 1e-15.  The
# stepped value it starts from carries up to ~|n| * 1e-15 of rounding, so
# the bound is widened by this factor to stay above the exact tail.
BOUND_MARGIN = 1.0 + 1e-9


def _moduli(pairs: Sequence[tuple[complex, complex]]) -> list[tuple[float, float]]:
    return [(abs(a), abs(b)) for a, b in pairs]


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
    ) -> None:
        self.num = [complex(u) for u in num]
        self.den = [complex(v) for v in den]
        self.inv_num = [complex(u) for u in inv_num]
        self.inv_den = [complex(v) for v in inv_den]
        self.weights = [complex(w) for w in weights]
        self.rates = [complex(r) for r in rates]
        self.q = q
        # Interleaved (multiplied, divided) coefficient pairs per direction,
        # so that large factors cancel before they overflow; a missing
        # partner is 0, whose factor is exactly 1.
        self.pairs_up = list(zip_longest(self.den, self.num, fillvalue=0j))
        self.pairs_down = [(b, a) for a, b in self.pairs_up]
        self.inv_pairs_up = list(zip_longest(self.inv_num, self.inv_den, fillvalue=0j))
        self.inv_pairs_down = [(b, a) for a, b in self.inv_pairs_up]
        # Per direction, the moduli (|a|, |b|) of the pairs whose argument
        # shrinks along the walk, then of those whose argument grows.
        self.bound_pairs = {
            True: (_moduli(self.pairs_up), _moduli(self.inv_pairs_up)),
            False: (_moduli(self.inv_pairs_down), _moduli(self.pairs_down)),
        }
        s0 = complex(xi)
        # A state is [n, s_n, value * c, powers r_k**n / c, c].
        self.origin = (0, s0, self._direct(s0), [1.0 + 0.0j] * len(self.rates), 1.0)
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
            s_inv = s1 if upward else s
            if s_inv == 0:
                raise ConvergenceError(f"spiral point s_{n1} underflows to 0, where its 1/s factors are undefined")
            t = 1.0 / s_inv
            factors += [(1.0 - a * t, 1.0 - b * t) for a, b in inv_pairs]
        for f, g in factors:
            if abs(f) < RECOMPUTE_CUTOFF or abs(g) < RECOMPUTE_CUTOFF:
                value = self._direct(s1) * scale
                break
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

    def _gains(self, n: int, s: complex) -> list[float] | None:
        """g_k with sum over m beyond n of |V(s_m) r_k**m| <= |V(s_n) r_k**n| g_k.

        F bounds |V(s_(m+1)) / V(s_m)| at every step beyond n: a pair
        (a, b) steps V by (1 - a u) / (1 - b u).  An argument u that
        shrinks along the walk gives at most (1 + |a| u) / (1 - |b| u)
        where |b| u < 1; the growing ones give at most
        prod (1 + |a| u) / prod (|b| u - 1) over nonzero a and b, where
        every |b| u > 1 and no fewer b than a are nonzero.  Each factor
        is non-increasing as u moves on, so its value at the first step
        bounds all later ones.  With rho_k = F |r_k|**(+-1) < 1 the
        geometric tail gives g_k = rho_k / (1 - rho_k); g_k is inf where
        rho_k >= 1, and None means no F exists.
        """
        upward = n >= 0
        shrinking, growing = self.bound_pairs[upward]
        # The first step's arguments, as _step forms them.
        u = abs(s) if upward else 1.0 / abs(s)
        F = 1.0
        for a, b in shrinking:
            d = 1.0 - b * u
            if not d > 0.0:
                return None
            F *= (1.0 + a * u) / d
        if growing:
            if sum(1 for _, b in growing if b) < sum(1 for a, _ in growing if a):
                return None
            if upward and s * self.q == 0:
                return None  # the next point underflows, where _step raises
            u = 1.0 / abs(s * self.q) if upward else abs(s / self.q)
            for a, b in growing:
                if b:
                    d = b * u - 1.0
                    if not d > 0.0:
                        return None
                    F /= d
                F *= 1.0 + a * u
        gains = []
        for r in self.rates:
            rho = F * abs(r) if upward else F / abs(r)
            gains.append(rho / (1.0 - rho) if rho < 1.0 else math.inf)
        return gains

    def tail_bound(self, n: int, weights: Sequence[complex] | None = None) -> float:
        """A bound on sum |term(m)| over every m beyond n, away from 0.

        term uses weights in place of the walk's own when given.  The
        bound is |V(s_n)| sum_k |w_k r_k**n| g_k with _gains' g_k, and
        is inf (or NaN) where no bound is certified.
        """
        n, s, value, powers, _ = self._seek(n)
        gains = self._gains(n, s)
        if gains is None:
            return math.inf
        total = 0.0
        for w, p, g in zip(self.weights if weights is None else weights, powers, gains):
            if w:
                total += abs(w) * abs(p) * g
        return abs(value) * total * BOUND_MARGIN


def weighted_bilateral(
    num: Sequence[complex],
    den: Sequence[complex],
    weight_rows: Sequence[Sequence[complex]],
    rates: Sequence[complex],
    q: float,
) -> list[complex | QHeunError]:
    """The two-sided sum of the module docstring, with u = num and v = den,
    for each weight vector of weight_rows: its value or its QHeunError.

    The terms of one row are SpiralTerms(den, num, row, rates, q) along
    s_n = q**n, summed as qcore.bilateral_sum sums them: the side n >= 0,
    then the side n <= -1, each stopped by its own TailSum with the
    walk's tail_bound for that row.  The
    products and powers at each index are stepped once for all rows;
    each row forms its terms, partial sums and stop decisions as it
    would alone.  PoleError is raised where (num q**n; q)_inf vanishes,
    the anchor n = 0 included; an error of a step goes only to the rows
    whose walks reach that index.
    """
    try:
        terms = SpiralTerms(den, num, (), rates, q)
    except QHeunError as exc:
        return [exc] * len(weight_rows)
    rows = [[complex(w) for w in row] for row in weight_rows]
    # Per row: its error once it failed, else its plus side, then its sum.
    results: list = [None] * len(rows)
    for start, step in ((0, +1), (-1, -1)):
        live = [
            (j, rows[j], TailSum(), partial(terms.tail_bound, weights=rows[j]))
            for j, r in enumerate(results)
            if not isinstance(r, QHeunError)
        ]
        n = start
        while live:
            try:
                _, _, value, powers, _ = terms._seek(n)
            except QHeunError as exc:
                for j, *_ in live:
                    results[j] = exc
                break
            ended = []
            for j, row, tail, bound in live:
                try:
                    if not tail.add(value * sum(map(mul, row, powers)), n, bound):
                        continue
                except QHeunError as exc:
                    results[j] = exc
                else:
                    results[j] = tail.total if step > 0 else results[j] + tail.total
                ended.append(j)
            if ended:
                live = [entry for entry in live if entry[0] not in ended]
            n += step
    return results


def bilateral_form(parts: tuple, coeff_rows: Sequence[Sequence[complex]], q: float) -> list[complex | QHeunError]:
    """factor * weighted_bilateral(num, den, rows, rates, q) for the parts
    (factor, num, den, xi_powers, rates) of a family's g1/g2, one row
    xi_powers[k] * coeffs[k] per coefficient vector of coeff_rows."""
    factor, num, den, xi_powers, rates = parts
    rows = [[w * c for w, c in zip(xi_powers, coeffs)] for coeffs in coeff_rows]
    sums = weighted_bilateral(num, den, rows, rates, q)
    return [s if isinstance(s, QHeunError) else factor * s for s in sums]
