"""Finite sums of basic hypergeometric series: one kernel for every form.

Each finite-sum solution of both families has the shape

    prefactor(x) * sum_{k=0}^{N} c_k base**(k + shift) R_k phi(upper_k; lower_k; q, z_k),

with phi the unilateral series of qcore.phi_series (Gasper & Rahman,
Basic Hypergeometric Series, ch. 1-2).  A form is a FiniteSum table at
its point x: a parameter that moves with k is a QPower, every other one
a plain number.  R_k = prod (num_k; q)_inf / prod (den_k; q)_inf is
optional (family 1 has one), and the prefactor is x**power times an
optional constant times an optional product ratio.

A field that holds a QPower does not depend on x.  So one evaluator of
a form (one TermTable) forms the values of such fields in each term,
R_k, and, where the series parameters move with k, the qcore.SeriesChain
of each term once, and every point after the first reads them.  Where
the series parameters move with x instead (family 2), the N + 1 series
of a point share one chain and differ only in z_k.

finite_sum_rows is the finite-sum counterpart of
_bilateral.weighted_bilateral: the pieces of term k do not depend on
the coefficient row c_0..c_N, so they are formed once per k and
combined per row in the single-row order.  finite_evaluator, made with
the rows it sums and given their live positions at each point, is the
one evaluator of every finite-sum form, as _bilateral.bilateral_evaluator is of g1/g2.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import typed_at_point
from .qcore import SeriesChain, q_pochhammer_ratio


class QPower(NamedTuple):
    """q**(e + step * k + tail) in term k, with step +1 or -1.

    The tail keeps the rounding of an exponent such as beta + k + 1.0,
    which is (beta + k) + 1.0.
    """

    e: float
    step: int
    tail: float = 0.0


class FiniteSum(NamedTuple):
    """One finite-sum form at the point x; see the module docstring.

    Fields that hold a QPower (and ratio, which always does) must not
    depend on x.  The series parameters either include a QPower and do
    not depend on x, or include none and may.
    """

    q: float
    N: int
    x: complex
    base: complex
    shift: int
    upper: tuple
    lower: tuple
    z: complex | QPower
    power: float
    constant: float | None = None
    prefactor_ratio: tuple[tuple, tuple] | None = None  # (num, den), plain numbers
    ratio: tuple[tuple, tuple] | None = None  # (num_k, den_k) of R_k


def _moves(params: Sequence) -> bool:
    return QPower in map(type, params)


class TermTable:
    """What one evaluator of a form forms once: see the module docstring.

    Each entry is formed by the first point that needs it and kept only
    once formed, so a point that meets an error raises its own, in the
    order the single-point evaluation would.  Entries are indexed by
    field and by k, so the table holds at most N + 1 of each, however
    many points it serves.
    """

    __slots__ = ("values", "ratios", "chains")

    def __init__(self) -> None:
        self.values: dict[str, list] = {}  # field -> its parameters in each term k
        self.ratios: dict[int, complex] = {}  # k -> R_k
        self.chains: dict[int, SeriesChain] = {}  # k -> the series chain of term k

    def terms(self, field: str, params: Sequence, q: float, N: int) -> list:
        """The parameters' values in each term k = 0..N (one shared list when none moves)."""
        if not _moves(params):
            return [params] * (N + 1)
        values = self.values.get(field)
        if values is None:
            values = self.values[field] = [
                [q ** (v.e + v.step * k + v.tail) if type(v) is QPower else v for v in params] for k in range(N + 1)
            ]
        return values

    def ratio(self, k: int, num: Sequence, den: Sequence, q: float) -> complex:
        value = self.ratios.get(k)
        if value is None:
            value = self.ratios[k] = q_pochhammer_ratio(num, den, q)
        return value

    def chain(self, k: int, upper: Sequence, lower: Sequence, q: float) -> SeriesChain:
        chain = self.chains.get(k)
        if chain is None:
            chain = self.chains[k] = SeriesChain(upper, lower, q)
        return chain


def finite_sum_rows(spec: FiniteSum, rows: Sequence[Sequence[complex]], table: TermTable) -> list[complex]:
    """The form of spec for each coefficient row c_0..c_N of rows.

    table is the evaluator's TermTable (a fresh one for a single point).
    Per k the scalar, R_k and the series are formed in that order; the
    prefactor follows the k-sum, so errors surface in that order too.
    """
    q, N = spec.q, spec.N
    uppers, lowers = table.terms("upper", spec.upper, q, N), table.terms("lower", spec.lower, q, N)
    zs = table.terms("z", (spec.z,), q, N)
    if spec.ratio is not None:
        nums, dens = table.terms("num", spec.ratio[0], q, N), table.terms("den", spec.ratio[1], q, N)
    per_term = _moves(spec.upper) or _moves(spec.lower)
    chain = None  # the chain every term of this point shares, once formed
    totals = [0.0 + 0.0j] * len(rows)
    for k in range(N + 1):
        scalar = spec.base ** (k + spec.shift)
        ratio = None if spec.ratio is None else table.ratio(k, nums[k], dens[k], q)
        if per_term:
            chain = table.chain(k, uppers[k], lowers[k], q)
        elif chain is None:
            chain = SeriesChain(spec.upper, spec.lower, q)
        series = chain.sum(zs[k][0])
        if ratio is None:
            totals = [total + scalar * c[k] * series for total, c in zip(totals, rows)]
        else:
            totals = [total + scalar * c[k] * ratio * series for total, c in zip(totals, rows)]
    pref = spec.x ** spec.power
    if spec.constant is not None:
        pref = spec.constant * pref
    if spec.prefactor_ratio is not None:
        pref = pref * q_pochhammer_ratio(*spec.prefactor_ratio, q)
    return [pref * total for total in totals]


def finite_evaluator(
    table_at: Callable[[complex], FiniteSum], rows: Sequence[Sequence[complex]]
) -> Callable[[Sequence[int], complex], list[complex]]:
    """at(live, x): finite_sum_rows of table_at(x), the form's table at x after its
    checks, for the coefficient rows c_0..c_N of rows at the positions in live,
    with one TermTable for every point of at."""
    table = TermTable()
    return typed_at_point(lambda live, x: finite_sum_rows(table_at(x), [rows[j] for j in live], table))
