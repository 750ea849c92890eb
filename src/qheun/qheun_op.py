"""The q-Heun difference operator: parameters, application, residuals.

The operator acts on functions of one complex variable through the
three-point stencil g(x/q), g(x), g(qx).  Its eigen-equation, cleared
of the 1/x factor, is the classical second-order q-difference equation
with quadratic polynomial coefficients; ``hahn_coefficients`` returns
those nine polynomial coefficients with the eigenvalue folded into the
linear middle coefficient.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, QHeunError, typed_at_point
from .qcore import _TINY, check_q

# Grid phases stay inside (-MAX_PHASE, MAX_PHASE), off the branch cut.
MAX_PHASE = 0.9 * math.pi

# numpy's SeedSequence hash constants and the PCG64 multiplier
# (numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


@dataclass(frozen=True)
class QHeunParams:
    """Exponents, scale points and base of the q-Heun operator.

    h1, h2, l1, l2 are the exponents attached to the two singular
    q-spirals through t1 and t2; alpha1, alpha2 and beta fix the
    exponents at 0 and infinity.  t1 and t2 must be nonzero and q must
    lie strictly inside (0, 1).
    """

    h1: float
    h2: float
    l1: float
    l2: float
    alpha1: float
    alpha2: float
    beta: float
    t1: complex
    t2: complex
    q: float

    def __post_init__(self) -> None:
        check_q(self.q)
        if self.t1 == 0 or self.t2 == 0:
            raise DomainError("t1 and t2 must be nonzero")

    @property
    def pairs(self) -> tuple[tuple[float, float, complex], tuple[float, float, complex]]:
        """The exponents and scale point (h_i, l_i, t_i) of each singular spiral, i = 1, 2."""
        return (self.h1, self.l1, self.t1), (self.h2, self.l2, self.t2)


@dataclass(frozen=True)
class HahnCoefficients:
    """Quadratic coefficients of the cleared q-difference equation.

    The equation reads (a2 x^2 + a1 x + a0) g(x/q)
    - (b2 x^2 + b1 x + b0) g(x) + (c2 x^2 + c1 x + c0) g(qx) = 0,
    with the eigenvalue stored in b1.
    """

    a2: complex
    a1: complex
    a0: complex
    b2: complex
    b1: complex
    b0: complex
    c2: complex
    c1: complex
    c0: complex

    def __post_init__(self) -> None:
        if self.a2 * self.a0 * self.c2 * self.c0 == 0:
            raise DomainError("a2, a0, c2, c0 must all be nonzero")


@dataclass(frozen=True)
class ResidualReport:
    points: tuple[complex, ...]
    residuals: tuple[float, ...]
    max_residual: float


def _b0(p: QHeunParams) -> complex:
    """Constant term b0 of the middle coefficient (b2 x^2 + b1 x + b0)."""
    q = p.q
    return (
        q ** ((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2.0)
        * (q ** (p.beta / 2.0) + q ** (-p.beta / 2.0))
        * p.t1
        * p.t2
    )


@typed_at_point
def stencil_weights(p: QHeunParams, x: complex) -> tuple[complex, complex, complex]:
    """Factors w of the operator's three summands at x.

    Op g(x) = down + up + mid with down = w[0] g(x/q) (the downward
    shift), up = w[1] g(qx) (the upward shift) and mid = w[2] g(x) (the
    multiplication part).  Raises DomainError at x = 0, and where x is
    a number no complex can hold.
    """
    if x == 0:
        raise DomainError("the operator is singular at x = 0")
    q = p.q
    x = complex(x)
    a, b = q ** (p.h1 + 0.5) * p.t1, q ** (p.h2 + 0.5) * p.t2
    down = (x - a) * (x - b) / x
    if not cmath.isfinite(down):  # |x|**2 left the float range
        down = (x - a) * ((x - b) / x)
    c, a, b = q ** (p.alpha1 + p.alpha2), q ** (p.l1 - 0.5) * p.t1, q ** (p.l2 - 0.5) * p.t2
    up = c * (x - a) * (x - b) / x
    if not cmath.isfinite(up):
        up = c * (x - a) * ((x - b) / x)
    mid = -((q ** p.alpha1 + q ** p.alpha2) * x + _b0(p) / x)
    return down, up, mid


def hahn_coefficients(p: QHeunParams, E: complex) -> HahnCoefficients:
    """Nine polynomial coefficients of the cleared eigen-equation.

    Obtained by multiplying the eigen-equation through by x and
    collecting quadratic coefficients; the eigenvalue E lands in b1.
    """
    q = p.q
    a1 = -(q ** (p.h1 + 0.5) * p.t1 + q ** (p.h2 + 0.5) * p.t2)
    a0 = q ** (p.h1 + p.h2 + 1.0) * p.t1 * p.t2
    c2 = q ** (p.alpha1 + p.alpha2)
    c1 = -c2 * (q ** (p.l1 - 0.5) * p.t1 + q ** (p.l2 - 0.5) * p.t2)
    c0 = c2 * q ** (p.l1 + p.l2 - 1.0) * p.t1 * p.t2
    return HahnCoefficients(
        a2=1.0 + 0.0j,
        a1=a1,
        a0=a0,
        b2=q ** p.alpha1 + q ** p.alpha2,
        b1=complex(E),
        b0=_b0(p),
        c2=c2,
        c1=c1,
        c0=c0,
    )


def hahn_combination(h: HahnCoefficients, g: Callable[[complex], complex], x: complex, q: float) -> complex:
    """Left-hand side of the cleared equation at x (zero on solutions)."""
    x = complex(x)
    return (
        (h.a2 * x * x + h.a1 * x + h.a0) * g(x / q)
        - (h.b2 * x * x + h.b1 * x + h.b0) * g(x)
        + (h.c2 * x * x + h.c1 * x + h.c0) * g(q * x)
    )


def residual_report(
    p: QHeunParams,
    E: complex,
    g: Callable[[complex], complex],
    xs: Iterable[complex],
    inhomogeneity: Callable[[complex], complex] | None = None,
) -> ResidualReport:
    """Relative eigen-equation residuals of g over a point list.

    The residual at x is |Op g - E g - T| / scale with T the optional
    additive inhomogeneity and scale the largest magnitude among the
    three operator terms, E g and T.  Evaluation errors of g are
    re-raised with the offending point attached as exc.point.
    """

    def values(y: complex, live: list[int]) -> list:
        try:
            return [g(y)]
        except QHeunError as exc:
            return [exc]

    (report,) = residual_reports(p, [E], values, xs, inhomogeneity)
    if isinstance(report, QHeunError):
        raise report
    return report


def residual_reports(
    p: QHeunParams,
    Es: Sequence[complex],
    g: Callable[[complex, list[int]], Sequence],
    xs: Iterable[complex],
    inhomogeneity: Callable[[complex], complex] | None = None,
) -> list[ResidualReport | QHeunError]:
    """residual_report at several eigenvalues Es in one pass over the points.

    g(y, live) gives, for each index j in live, the value at y of the
    solution that belongs to Es[j], or the QHeunError its evaluation
    raised.  At each point x, g runs once per stencil point (x/q, qx, x,
    in that order) for the eigenvalues not yet failed, and T(x) once
    for all.  Entry j is the report residual_report gives for Es[j], or
    the error it raises there, with exc.point set.  A point where every
    term of Es[j]'s equation is exactly 0 ends entry j in a DomainError,
    and an empty xs raises one: a check there would pass any g.
    """
    xs = list(xs)
    if not xs:
        raise DomainError("a residual check needs at least one point")
    failed: dict[int, QHeunError] = {}
    residuals: list[list[float]] = [[] for _ in Es]
    points: list[complex] = []
    for x in xs:
        live = [j for j in range(len(Es)) if j not in failed]
        if not live:
            break
        stencil: dict[int, list] = {j: [] for j in live}  # g at x/q, qx, x
        try:
            weights = stencil_weights(p, x)
            y = complex(x)
            for point in (y / p.q, p.q * y, y):
                for j, v in zip(live, g(point, live)):
                    if isinstance(v, QHeunError):
                        failed[j] = v
                    else:
                        stencil[j].append(v)
                live = [j for j in live if j not in failed]
                if not live:
                    break
            extra = inhomogeneity(x) if inhomogeneity is not None and live else 0.0
        except QHeunError as exc:
            failed.update((j, exc) for j in live)
            live = []
        for j in stencil:
            if j in failed:
                failed[j].point = x
        for j in live:
            down, up, mid = (w * v for w, v in zip(weights, stencil[j]))
            eg = Es[j] * stencil[j][2]
            if not (down or up or mid or eg or extra):  # a check of zeros would pass any g
                failed[j] = DomainError("every term of the equation is zero, so the residual checks nothing")
                failed[j].point = x
                continue
            defect = down + up + mid - eg - extra
            scale = max(abs(down), abs(up), abs(mid), abs(eg), abs(extra), _TINY)
            residuals[j].append(abs(defect) / scale)
        if live:  # a report's points are those its entry was checked at
            points.append(complex(x))
    return [
        failed[j] if j in failed else ResidualReport(
            points=tuple(points), residuals=tuple(rs), max_residual=max(rs)
        )
        for j, rs in enumerate(residuals)
    ]


def singular_spirals(p: QHeunParams) -> list[complex]:
    """Base points of the four singular q-spirals of the operator."""
    q = p.q
    return [q ** (h + 0.5) * t for h, _, t in p.pairs] + [q ** (l - 0.5) * t for _, l, t in p.pairs]


def spiral_distance(x: complex, bases: Sequence[complex], q: float) -> float:
    """Smallest relative distance from x to any spiral {base * q^k, k integer}."""
    best = math.inf
    ax = abs(x)
    if ax == 0:
        return 0.0
    lnq = math.log(q)
    for b in filter(None, bases):  # a zero base is no spiral
        k0 = (math.log(ax) - math.log(abs(b))) / lnq  # ax / |b| may leave the float range
        for k in range(math.floor(k0) - 1, math.floor(k0) + 3):
            s = b * q ** k
            if s:  # a point that underflowed to 0 stands for no point of the spiral
                best = min(best, abs(x - s) / abs(s))
    return best


def _hashmix(hash_const: int, mult: int) -> Callable[[int], int]:
    """numpy SeedSequence's hashmix from the hash constant hash_const: each call hashes one
    32-bit word and steps the constant by mult."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int) -> list[int]:
    """The eight 32-bit words of numpy's SeedSequence(seed).generate_state(4, uint64).

    seed, a non-negative int, enters as its 32-bit words, least
    significant first, hashed into a pool of four words and mixed.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hashmix(0x8B51F9DD, 0x58F38DED)
    return [generate(value) for value in itertools.islice(itertools.cycle(pool), 8)]


def _uniform_draws(seed: int, low: float, high: float) -> Iterator[float]:
    """The draws of numpy.random.default_rng(seed).uniform(low, high), called once per
    draw, bit for bit: numpy's PCG64 (128-bit LCG, XSL-RR output) seeded by _seed_words,
    its top 53 bits scaled into [0, 1) and then into [low, high)."""
    words = _seed_words(seed)
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian uint64 pairs
    state, inc = w[0] << 64 | w[1], (w[2] << 64 | w[3]) << 1 & _MASK128 | 1
    state = ((inc + state) * _PCG_MULT + inc) & _MASK128
    span = high - low
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot, word = state >> 122, (state >> 64 ^ state) & _MASK64
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        yield low + span * ((word >> 11) * (1.0 / 9007199254740992.0))


def _log_radii(rmin: float, rmax: float, count: int) -> list[float]:
    """count moduli log-spaced on [rmin, rmax] as numpy.geomspace forms them:
    rmin, then 10**(log10 rmin + i step), then rmax."""
    if count == 1:
        return [float(rmin)]
    lo = math.log10(rmin)
    step = (math.log10(rmax) - lo) / (count - 1)
    return [float(rmin), *(10.0 ** (i * step + lo) for i in range(1, count - 1)), float(rmax)]


def grid_points(
    q: float,
    spirals: Sequence[complex],
    count: int,
    rmin: float,
    rmax: float,
    seed: int = 0,
    min_rel_dist: float = 1e-6,
) -> list[complex]:
    """Deterministic sample points with moduli log-spaced on [rmin, rmax].

    Phases are drawn uniformly and redrawn until the point keeps the
    requested relative distance from every listed q-spiral; phases stay
    inside (-MAX_PHASE, MAX_PHASE) so that scaling by q never crosses
    the branch cut of principal powers.  The draws are those of
    numpy.random.default_rng(seed), and the moduli those of
    numpy.geomspace up to an ulp, formed without numpy.
    """
    if count < 1:
        raise DomainError("grid count must be at least 1")
    if not (0 < rmin <= rmax):
        raise DomainError("need 0 < rmin <= rmax")
    phases = _uniform_draws(seed, -MAX_PHASE, MAX_PHASE)
    pts: list[complex] = []
    for r in _log_radii(rmin, rmax, count):
        for _ in range(200):
            phase = next(phases)
            x = r * cmath.exp(1j * phase)
            if not spirals or spiral_distance(x, spirals, q) > min_rel_dist:
                pts.append(x)
                break
        else:
            raise DomainError("could not place a grid point off the singular spirals")
    return pts
