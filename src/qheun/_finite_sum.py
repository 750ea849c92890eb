"""Finite sums of basic hypergeometric series: one kernel for every form.

Each finite-sum solution of both families has the shape

    prefactor(x) * sum_{k=0}^{N} c_k base**(k + shift) R_k phi(upper_k; lower_k; q, z_k),

with phi the unilateral series of qcore.phi_series (Gasper & Rahman,
Basic Hypergeometric Series, ch. 1-2).  A form is a FiniteSum table at
its point x: a parameter that moves with k is a QPower, every other one
a plain number.  R_k = prod (num_k; q)_inf / prod (den_k; q)_inf is
optional (family 1 has one), and the prefactor is x**power times an
optional constant times an optional product ratio.

finite_sum_rows is the finite-sum counterpart of
_bilateral.bilateral_form: the pieces of term k do not depend on the
coefficient row c_0..c_N, so they are formed once per k and combined per
row in the single-row order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .qcore import phi_series, q_pochhammer_ratio


class QPower(NamedTuple):
    """q**(e + step * k + tail) in term k, with step +1 or -1.

    The tail keeps the rounding of an exponent such as beta + k + 1.0,
    which is (beta + k) + 1.0.
    """

    e: float
    step: int
    tail: float = 0.0


class FiniteSum(NamedTuple):
    """One finite-sum form at the point x; see the module docstring."""

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


def _terms(params: Sequence, q: float, N: int) -> list[list]:
    """The parameters' values in each term k = 0..N (one shared list when none moves)."""
    if QPower not in map(type, params):
        return [params] * (N + 1)
    return [[q ** (v.e + v.step * k + v.tail) if type(v) is QPower else v for v in params] for k in range(N + 1)]


def finite_sum_rows(spec: FiniteSum, rows: Sequence[Sequence[complex]]) -> list[complex]:
    """The form of spec for each coefficient row c_0..c_N of rows.

    Per k the scalar, R_k and the series are formed in that order; the
    prefactor follows the k-sum, so errors surface in that order too.
    """
    q, N = spec.q, spec.N
    uppers, lowers, zs = _terms(spec.upper, q, N), _terms(spec.lower, q, N), _terms((spec.z,), q, N)
    if spec.ratio is not None:
        nums, dens = _terms(spec.ratio[0], q, N), _terms(spec.ratio[1], q, N)
    totals = [0.0 + 0.0j] * len(rows)
    for k in range(N + 1):
        scalar = spec.base ** (k + spec.shift)
        ratio = None if spec.ratio is None else q_pochhammer_ratio(nums[k], dens[k], q)
        series = phi_series(uppers[k], lowers[k], q, zs[k][0])
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
