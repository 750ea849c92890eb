"""Random but admissible parameter draws for tests and self-checks.

The draws keep exponents in a moderate band (so powers of q stay well
inside double range), keep scalar series parameters away from the
integer lattice points where terms terminate or pole, and solve the
relevant integer relation exactly.
"""

from __future__ import annotations

import cmath

import numpy as np

from .qheun_op import QHeunParams


def _complex_scale(rng: np.random.Generator, lo: float = 0.6, hi: float = 1.6) -> complex:
    mod = rng.uniform(lo, hi)
    phase = rng.uniform(0.3, 2.4) * rng.choice([-1.0, 1.0])
    return mod * cmath.exp(1j * phase)


def random_generic_params(rng: np.random.Generator) -> QHeunParams:
    """Unconstrained draw with exponents in [-1.5, 1.5]."""
    e = rng.uniform(-1.5, 1.5, size=7).tolist()
    return QHeunParams(
        h1=e[0],
        h2=e[1],
        l1=e[2],
        l2=e[3],
        alpha1=e[4],
        alpha2=e[5],
        beta=e[6],
        t1=_complex_scale(rng),
        t2=_complex_scale(rng),
        q=rng.uniform(0.35, 0.75),
    )


def random_admissible_params(rng: np.random.Generator, N: int, which_alpha: int | None = None) -> QHeunParams:
    """Draw satisfying the polynomial-solution relation -lambda1 - alpha = N.

    which_alpha selects which of the two alpha exponents carries the
    integer relation (1, 2, or None for a random choice).  beta is kept
    at least 0.05 away from the integers 1..N.
    """
    if which_alpha is None:
        which_alpha = int(rng.choice([1, 2]))
    for _ in range(1000):
        h1, h2, l1, l2 = rng.uniform(-1.5, 1.5, size=4).tolist()
        beta = rng.uniform(-1.5, 1.5)
        if any(abs(beta - m) < 0.05 for m in range(1, N + 1)):
            continue
        free_alpha = rng.uniform(-1.5, 1.5)
        # lambda1 + alpha = (h1+h2-l1-l2-alpha_other+alpha-beta+2)/2 = -N
        solved = -2.0 * N - (h1 + h2 - l1 - l2 - free_alpha - beta + 2.0)
        if which_alpha == 1:
            a1, a2 = solved, free_alpha
        else:
            a1, a2 = free_alpha, solved
        return QHeunParams(
            h1=h1,
            h2=h2,
            l1=l1,
            l2=l2,
            alpha1=a1,
            alpha2=a2,
            beta=beta,
            t1=_complex_scale(rng),
            t2=_complex_scale(rng),
            q=rng.uniform(0.35, 0.75),
        )
    raise RuntimeError("failed to draw admissible parameters")


def random_family1_params(rng: np.random.Generator, N: int) -> QHeunParams:
    """Draw with h2 = l2 - 1 - N and both bilateral inequalities satisfied.

    lambda1 + alpha2 lands in [1.05, 1.6]; alpha1 - alpha2 stays inside
    (0.15, 0.85) so that no scalar series parameter sits near the
    integer lattice.
    """
    s = rng.uniform(1.05, 1.6)
    du = rng.uniform(0.15, 0.85)
    beta = rng.uniform(0.3, 0.9)
    l1, l2 = rng.uniform(-1.0, 1.0, size=2).tolist()
    alpha2 = rng.uniform(-1.0, 1.0)
    alpha1 = alpha2 + du
    lam1 = s - alpha2
    h2 = l2 - 1.0 - N
    h1 = 2.0 * lam1 + l1 + alpha1 + alpha2 + beta + N - 1.0
    return QHeunParams(
        h1=h1,
        h2=h2,
        l1=l1,
        l2=l2,
        alpha1=alpha1,
        alpha2=alpha2,
        beta=beta,
        t1=_complex_scale(rng),
        t2=_complex_scale(rng),
        q=rng.uniform(0.35, 0.7),
    )


def random_family2_params(rng: np.random.Generator, N: int) -> QHeunParams:
    """Draw with beta = N + 1 exactly and lambda1 + alpha2 in [1.05, 1.3].

    Rejection keeps alpha1 - alpha2 inside [-1.6, 1.6] and lambda1 +
    alpha1 at least 0.1 from every integer (no degenerate recurrence,
    no scalar pole in the finite-sum forms), and keeps the two scale
    points well separated in phase.
    """
    beta = float(N + 1)
    for _ in range(2000):
        s = rng.uniform(1.05, 1.3)
        h1, h2 = rng.uniform(0.3 + 0.5 * N, 2.0 + 0.5 * N, size=2).tolist()
        l1, l2 = rng.uniform(-1.0, 0.5, size=2).tolist()
        # lambda1 + alpha2 = s forces the alpha gap.
        du = (h1 + h2 - l1 - l2 - beta + 2.0) - 2.0 * s  # alpha1 - alpha2
        if not -1.6 <= du <= 1.6:
            continue
        la1 = s + du  # lambda1 + alpha1
        if abs(la1 - round(la1)) < 0.1:
            continue
        alpha2 = rng.uniform(-0.7, 0.7)
        t1 = _complex_scale(rng)
        t2 = _complex_scale(rng)
        if abs(cmath.phase(t2 / t1)) < 0.25:
            continue
        return QHeunParams(
            h1=h1,
            h2=h2,
            l1=l1,
            l2=l2,
            alpha1=alpha2 + du,
            alpha2=alpha2,
            beta=beta,
            t1=t1,
            t2=t2,
            q=rng.uniform(0.35, 0.7),
        )
    raise RuntimeError("failed to draw family-2 parameters")
