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
on the weights w_k, so one SpiralTerms walk, which keeps its entries
by index, serves every weight row: a form's N + 1 accessory roots
differ only in their weights, and weighted_bilateral sums their rows
one after another through qcore.bilateral_sum.  A row's weighted sum
sum_k w_k r_k**n depends on u and v no more than the powers do, so the
PowerWalk shared by the walks of one evaluator holds its weight rows
and keeps each row's sums per index, by the row's position: the walk
that first reaches an index forms them, and the walks of the other
points read them.  bilateral_table writes g1/g2 of both families once,
over a family's list of singular pairs (h_i, l_i, t_i).

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
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError, PreconditionError, QHeunError, typed_at_point
from .qcore import bilateral_sum, q_pochhammer_ratio

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


class PowerWalk:
    """The rates r_k of a walk, the scaled powers r_k**n / c_n at each index n
    and the weighted sums sum_k w_k r_k**n / c_n of its weight rows.

    The powers and their rescale steps depend on the rates alone, so
    every SpiralTerms walks on a PowerWalk (one of its own, or one
    shared by walks of the same rates) and reads them from here: the
    entry at an index is formed once, by the first walk that steps
    towards it, with the operations of a step from the previous entry.
    A walk reaches index n only from n -+ 1, so each side holds one
    entry per index walked, at most MAX_TERMS.

    memos[j] holds the weighted sums of rows[j] the same way, per side
    (down, up): entry i of a side is the sum at n = -1 - i downward and
    n = i upward, extended in index order by the terms of
    SpiralTerms.row(j).
    """

    __slots__ = ("rates", "sides", "rows", "memos")

    def __init__(self, rates: Sequence[complex], rows: Sequence[Sequence[complex]]) -> None:
        self.rates = [complex(r) for r in rates]
        # Per direction (down, up): (powers, c) at |n| = 1, 2, ...; c is the
        # rescale factor applied at that step, or None.
        self.sides: tuple[list, list] = ([], [])
        self.rows = [[complex(w) for w in row] for row in rows]
        self.memos: list[tuple[list, list]] = [([], []) for _ in self.rows]

    def step(self, i: int, powers: list[complex], upward: bool) -> tuple[list[complex], float | None]:
        """(powers, c) at |n| = i + 1 on the side of upward, formed from the
        powers at |n| = i by the first walk that asks."""
        side = self.sides[upward]
        if i == len(side):
            if upward:
                powers = [p * r for p, r in zip(powers, self.rates)]
            else:
                powers = [p / r for p, r in zip(powers, self.rates)]
            c = None
            m = max(map(abs, powers), default=1.0)
            if not 1.0 / RESCALE_AT < m < RESCALE_AT and 0.0 < m < math.inf:
                # A power of two, so that rescaling rounds nothing.
                c = 2.0 ** -math.frexp(m)[1]
                powers = [p * c for p in powers]
            side.append((powers, c))
        return side[i]


class SpiralTerms:
    """The terms V(s_n) * sum_k w_k r_k**n along s_n = q**n * xi of each
    weight row w of a PowerWalk.

    V is spiral_product(s, num, den, inv_num, inv_den, q).

    V(xi) is computed once with q_pochhammer_ratio; every other index is
    reached by stepping from its neighbour towards n = 0.  A step factor
    near zero means a zero crossing or a near-pole, where stepping would
    cancel digits; the value there is recomputed directly, which also
    raises PoleError at a pole exactly where the direct product does.

    Each side keeps one entry per index walked, so the rows of the walk
    share every step.  The entry at n holds s_n, V(s_n) * c, the powers
    r_k**n / c of the PowerWalk and c, for a scale c that keeps the
    powers near 1.
    """

    def __init__(
        self,
        num: Sequence[complex],
        den: Sequence[complex],
        walk: PowerWalk,
        q: float,
        xi: complex = 1.0,
        inv_num: Sequence[complex] = (),
        inv_den: Sequence[complex] = (),
    ) -> None:
        self.num = [complex(u) for u in num]
        self.den = [complex(v) for v in den]
        self.inv_num = [complex(u) for u in inv_num]
        self.inv_den = [complex(v) for v in inv_den]
        self.walk = walk
        self.q = q
        # Interleaved (multiplied, divided) coefficient pairs per direction,
        # so that large factors cancel before they overflow; a missing
        # partner is 0, whose factor is exactly 1.
        self.pairs_up = list(zip_longest(self.den, self.num, fillvalue=0j))
        self.pairs_down = [(b, a) for a, b in self.pairs_up]
        self.inv_pairs_up = list(zip_longest(self.inv_num, self.inv_den, fillvalue=0j))
        self.inv_pairs_down = [(b, a) for a, b in self.inv_pairs_up]
        # Per direction, every pair in stepping order, flagged True for a 1/s-factor.
        self.steps_up = [(a, b, False) for a, b in self.pairs_up] + [(a, b, True) for a, b in self.inv_pairs_up]
        self.steps_down = [(a, b, False) for a, b in self.pairs_down] + [(a, b, True) for a, b in self.inv_pairs_down]
        # Per direction, the moduli (|a|, |b|) of the pairs whose argument
        # shrinks along the walk, then of those whose argument grows.
        self.bound_pairs = {
            True: (_moduli(self.pairs_up), _moduli(self.inv_pairs_up)),
            False: (_moduli(self.inv_pairs_down), _moduli(self.pairs_down)),
        }
        s0 = complex(xi)
        origin = (s0, self._direct(s0), [1.0 + 0.0j] * len(walk.rates), 1.0)
        # Per side (down, up): the entry (s_n, value * c, powers, c) at |n| = i is side[i].
        self.sides = ([origin], [origin])

    def _direct(self, s: complex) -> complex:
        return spiral_product(s, self.num, self.den, self.inv_num, self.inv_den, self.q)

    def _step(self, i: int, entry: tuple, upward: bool) -> tuple:
        """The entry at |n| = i + 1 on the side of upward, stepped from entry, the one at |n| = i."""
        s, value, powers, scale = entry
        # Factor pairs (a, b) step V by (1 - a u) / (1 - b u), with u = y,
        # that is s_n or s_(n-1), for s-factors and u = t, 1/s_(n+1) or
        # 1/s_n, for 1/s-factors.
        if upward:
            n1, s1 = i + 1, s * self.q
            y, steps = s, self.steps_up
        else:
            n1, s1 = -i - 1, s / self.q
            y, steps = s1, self.steps_down
        powers, c = self.walk.step(i, powers, upward)
        t = None
        if self.inv_pairs_up:
            s_inv = s1 if upward else s
            if s_inv == 0:
                raise ConvergenceError(f"spiral point s_{n1} underflows to 0, where its 1/s factors are undefined")
            t = 1.0 / s_inv
        for a, b, inverse in steps:
            u = t if inverse else y
            f, g = 1.0 - a * u, 1.0 - b * u
            if abs(f) < RECOMPUTE_CUTOFF or abs(g) < RECOMPUTE_CUTOFF:
                value = self._direct(s1) * scale
                break
            value = value * f / g
        if c is not None:
            value /= c
            scale /= c
        return s1, value, powers, scale

    def _at(self, n: int) -> tuple:
        """The entry at n, stepping the side of n out to it in index order."""
        upward = n >= 0
        side = self.sides[upward]
        while len(side) <= abs(n):
            side.append(self._step(len(side) - 1, side[-1], upward))
        return side[abs(n)]

    def point(self, n: int) -> complex:
        """The spiral point s_n = q**n * xi, as reached by stepping."""
        return self._at(n)[0]

    def row(self, j: int) -> tuple[Callable[[int], complex], Callable[[int], float]]:
        """(term, bound) of the weight row walk.rows[j], for qcore.bilateral_sum.

        term(n) = V(s_n) * sum_k w_k r_k**n, its weighted sum read from
        walk.memos[j], or formed and appended there in index order;
        bound(n) = tail_bound(j, n).
        """
        weights, (memo_down, memo_up) = self.walk.rows[j], self.walk.memos[j]
        down, up = self.sides
        step = self._step

        def term(n: int) -> complex:
            # The entry at n is side[k]; the weighted sum at n is memo[i].
            if n >= 0:
                side, memo, k, i = up, memo_up, n, n
            else:
                side, memo, k, i = down, memo_down, -n, -1 - n
            if k < len(side):
                entry = side[k]
            elif k == len(side):
                entry = step(k - 1, side[-1], n >= 0)
                side.append(entry)
            else:
                entry = self._at(n)
            if i < len(memo):
                return entry[1] * memo[i]
            while len(memo) < i:  # an index read out of order: fill in index order
                memo.append(sum(map(mul, weights, side[len(memo) + k - i][2])))
            dot = sum(map(mul, weights, entry[2]))
            memo.append(dot)
            return entry[1] * dot

        return term, partial(self.tail_bound, j)

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
        for r in self.walk.rates:
            rho = F * abs(r) if upward else F / abs(r)
            gains.append(rho / (1.0 - rho) if rho < 1.0 else math.inf)
        return gains

    def tail_bound(self, j: int, n: int) -> float:
        """A bound on sum |term(m)| over every m beyond n, away from 0, for
        the terms of the weight row walk.rows[j].

        The bound is |V(s_n)| sum_k |w_k r_k**n| g_k with _gains' g_k, and
        is inf (or NaN) where no bound is certified.
        """
        s, value, powers, _ = self._at(n)
        gains = self._gains(n, s)
        if gains is None:
            return math.inf
        total = 0.0
        for w, p, g in zip(self.walk.rows[j], powers, gains):
            if w:
                total += abs(w) * abs(p) * g
        return abs(value) * total * BOUND_MARGIN


def weighted_bilateral(
    num: Sequence[complex],
    den: Sequence[complex],
    walk: PowerWalk,
    live: Sequence[int],
    q: float,
) -> list[complex | QHeunError]:
    """The two-sided sum of the module docstring, with u = num and v = den,
    for each weight row walk.rows[j], j in live: its value or its QHeunError.

    One SpiralTerms(den, num, walk, q) walks s_n = q**n for all rows, and
    qcore.bilateral_sum sums each row's terms with its tail bound, row
    after row; the products and powers at each index are stepped once,
    by the first row to reach it.  A row's weighted sums are read from
    walk.memos[j], where sums of other (num, den) on the walk left them,
    and extended there.  PoleError is raised where (num q**n; q)_inf
    vanishes, the anchor n = 0 included; an error of a step goes only to
    the rows whose sums reach that index.
    """
    try:
        terms = SpiralTerms(den, num, walk, q)
    except QHeunError as exc:
        return [exc] * len(live)
    results: list[complex | QHeunError] = []
    for j in live:
        try:
            results.append(bilateral_sum(*terms.row(j)))
        except QHeunError as exc:
            results.append(exc)
    return results


def bilateral_table(setup, pairs: Sequence[tuple], g1_exponent: float, which: str, xi: complex, x: complex) -> tuple:
    """(power, num, den, xi_powers, rates) of a family's g1 or g2 at the nonzero (xi, x).

    The form is (1 - q) x**power times the sum of the module docstring
    with u = num, v = den, r_k = rates[k] and w_k = xi_powers[k] c_k.
    Both solution families share these formulas and differ only in the
    singular pairs (h_i, l_i, t_i) of pairs (family 1 the t1 pair,
    family 2 both) and in g1's weight exponent (family 1
    lambda1 + alpha1 + beta, family 2 1); setup gives params, lambda1
    and N.
    """
    p = setup.params
    q = p.q
    lam1 = setup.lambda1
    N = setup.N
    if which == "g1":
        num = [q ** (lam1 - h + p.alpha1 - 0.5) * xi / t for h, _, t in pairs] + [xi / x]
        den = [q ** (-l + 0.5) * xi / t for _, l, t in pairs] + [q ** (lam1 + p.alpha1) * xi / x]
        xi_powers = [xi ** (g1_exponent + k) for k in range(N + 1)]
        rates = [q ** (g1_exponent + k) for k in range(N + 1)]
        return -p.alpha1, num, den, xi_powers, rates
    if which == "g2":
        num = [q ** (l + 0.5) * t / xi for _, l, t in pairs] + [q ** (-lam1 - p.alpha1 + 1.0) * x / xi]
        den = [q ** (-lam1 + h - p.alpha1 + 1.5) * t / xi for h, _, t in pairs] + [q * x / xi]
        xi_powers = [xi ** (-lam1 - p.alpha2 - N + k) for k in range(N + 1)]
        rates = [q ** (lam1 + p.alpha2 + N - k) for k in range(N + 1)]
        return lam1, num, den, xi_powers, rates
    raise DomainError("which must be 'g1' or 'g2'")


def bilateral_evaluator(
    setup, pairs: Sequence[tuple], g1_exponent: float, which: str, xi: complex, hypothesis: str | None,
    rows: Sequence[Sequence[complex]],
) -> Callable[[Sequence[int], complex], list[complex | QHeunError]]:
    """at(live, x): g1 or g2 of bilateral_table at (xi, x) for each coefficient
    row c_0..c_N of rows at a position in live, its value or its error.

    The products are stepped along one walk per side for all rows
    (weighted_bilateral, with the weight rows xi_powers[k] * c_k).  The
    rates r_k and the weight rows depend on neither x nor live, so the
    first point to form its table forms one PowerWalk of them for every
    point; everything else is formed per point.  hypothesis, the message
    of the family's failed bilateral hypothesis or None, is raised as a
    PreconditionError at every point.
    """
    walk = None

    @typed_at_point
    def at(live: Sequence[int], x: complex) -> list[complex | QHeunError]:
        nonlocal walk
        if hypothesis is not None:
            raise PreconditionError(hypothesis)
        if xi == 0 or x == 0:
            raise DomainError("xi and x must be nonzero")
        x = complex(x)
        q = setup.params.q
        power, num, den, xi_powers, rates = bilateral_table(setup, pairs, g1_exponent, which, complex(xi), x)
        if walk is None:
            walk = PowerWalk(rates, [[w * c for w, c in zip(xi_powers, coeffs)] for coeffs in rows])
        factor = (1.0 - q) * x ** power
        sums = weighted_bilateral(num, den, walk, live, q)
        return [s if isinstance(s, QHeunError) else factor * s for s in sums]

    return at
