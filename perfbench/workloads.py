"""The three benchmark workloads: seeded job streams and their output checks.

A workload is an endless stream of steps generated from one seed.  A
step is either a job (one unit whose latency is timed: a CLI call, a
transform point or a boundary-limit estimate) or preparation the
harness needs between jobs (writing a config file, building a family
setup).  Every job returns an Outcome: the checks it attempted, which
of them failed and why, the residuals of the checks that completed,
and how many work units it finished.

Streams are made of rounds that cover every (family, N) of the
workload; parameters are drawn from ``qheun.sampling`` with a generator
seeded from ``--seed`` only, so the same seed gives the same jobs.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Library functions are called as module attributes, looked up at call
# time, so that the wrappers a traced run installs see these calls too.
from qheun import accessory, family_one, family_two, qtransform
from qheun import cli as qcli
from qheun.qheun_op import QHeunParams, singular_spirals, spiral_distance
from qheun.sampling import random_family1_params, random_family2_params, random_generic_params

VERIFY_TOL = 1e-8  # the CLI's default verify threshold
TRANSFORM_TOL = 1e-8  # acceptance criterion 7 holds transforms to the same
ACCESSORY_TOL = 1e-10  # poly_roots' own certificate bound

VERIFY_NS = (1, 2, 4, 6, 8)
VERIFY_GRID = 4
FAMILY1_FORMS = ("g1", "g2", "g3", "g4", "g5", "g6")
FAMILY2_FORMS = ("g1", "g2", "g3", "g4", "g5", "g6-g7", "g7-g8", "g6", "g7", "g8")
TRANSFORM_NS = (1, 2, 4)
TRANSFORM_POINTS = 2
ACCESSORY_NS = tuple(range(13))

DRAWS = {"family1": random_family1_params, "family2": random_family2_params}
# The base-q ranges qheun.sampling draws from, per family.
Q_RANGE = {"generic": (0.35, 0.75), "family1": (0.35, 0.7), "family2": (0.35, 0.7)}
Q_STRATA = 4


class QStrata:
    """Stratified redraw of the base q of each draw, cycled per job kind.

    A job's cost grows steeply as q approaches 1 (products and spiral
    sums need about 1/|log q| levels each), so a few unlucky draws would
    move a whole run.  Every kind instead walks through Q_STRATA equal
    slices of the sampler's own q range in shuffled order, one uniform
    draw per slice.  No constraint of the families involves q, so the
    draw stays admissible.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.cycles: dict = {}

    def __call__(self, kind, family: str, p: QHeunParams) -> QHeunParams:
        cycle = self.cycles.get(kind)
        if not cycle:
            cycle = self.cycles[kind] = self.rng.permutation(Q_STRATA).tolist()
        lo, hi = Q_RANGE[family]
        return replace(p, q=lo + (hi - lo) * (cycle.pop() + float(self.rng.uniform())) / Q_STRATA)


@dataclass
class Outcome:
    """Result of one job as seen by its checks."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    messages: dict = field(default_factory=dict)
    values: list = field(default_factory=list)
    units: int = 0
    inconsistent: list = field(default_factory=list)

    def passed(self, value: float, units: int = 0) -> None:
        self.attempted += 1
        self.values.append(value)
        self.units += units

    def failed(self, kind: str, message: str, count: int = 1, value: float | None = None, units: int = 0) -> None:
        """Count failed checks; a check that completed but missed its
        tolerance passes its value and the work units it finished."""
        self.attempted += count
        self.failures[kind] += count
        self.messages.setdefault(kind, message[:200])
        if value is not None and math.isfinite(value):
            self.values.append(value)
        self.units += units

    def raised(self, exc: BaseException, count: int = 1) -> None:
        self.failed(type(exc).__name__, str(exc), count)


@dataclass(frozen=True)
class Step:
    """One item of a workload stream; ``job`` steps are timed as jobs.

    ``inputs`` holds the generated data the step hands to the program
    (a config, or a parameter draw), so streams can be compared.
    """

    job: bool
    run: Callable[["Env"], Outcome | None]
    label: str
    inputs: object = None


@dataclass
class Env:
    """What steps need from the runner: how to call the CLI, and a clock.

    A job calls ``check_start`` once the program has answered; its
    latency ends there, and the harness's own checking after it is
    excluded.
    """

    clock: Callable[[], float]
    cli: Callable = qcli.main
    checked_at: float | None = None

    def check_start(self) -> None:
        self.checked_at = self.clock()


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _config(p: QHeunParams, **extra) -> dict:
    cfg = {k: float(getattr(p, k)) for k in qcli.PARAM_KEYS + ("q",)}
    cfg["t1"] = _pair(p.t1)
    cfg["t2"] = _pair(p.t2)
    cfg.update(extra)
    return cfg


def call_cli(env: Env, argv: list[str]) -> tuple[int | None, str, BaseException | None]:
    """Run one ``qheun`` command in-process: (exit code, stdout, escaped exception)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            env.cli(argv, prog_name="qheun")
    except SystemExit as stop:
        return (stop.code if isinstance(stop.code, int) else 1), buf.getvalue(), None
    except Exception as exc:  # untyped escapes (e.g. OverflowError) are counted, not raised
        return None, buf.getvalue(), exc
    return 0, buf.getvalue(), None


def _cli_failure(out: Outcome, code, text: str, exc, count: int) -> bool:
    """Count a CLI call that produced no report; True when that happened."""
    if exc is not None:
        out.raised(exc, count)
        return True
    if code == 2:
        try:
            reason = json.loads(text)["error"]["reason"]
        except (ValueError, KeyError, TypeError):
            out.inconsistent.append("exit 2 without a qheun/1 error reason")
            out.failed("ConfigError", text, count)
            return True
        kind, _, message = reason.partition(": ")
        out.failed("PreconditionError" if kind == "precondition" else kind, message, count)
        return True
    return False


def _stream_rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) for c in workload)
    return np.random.default_rng([seed, tag])


# -- verify-sweep ---------------------------------------------------------


def _verify_job(path: Path, family: str, N: int, form: str) -> Callable[[Env], Outcome]:
    expected = N + 1  # one result per accessory root

    def run(env: Env) -> Outcome:
        out = Outcome()
        code, text, exc = call_cli(env, ["verify", "--config", str(path), "--solution", form])
        env.check_start()
        if _cli_failure(out, code, text, exc, expected):
            return out
        check_verify_report(out, code, text, family, N, form)
        return out

    return run


def check_verify_report(out: Outcome, code, text: str, family: str, N: int, form: str) -> None:
    """Check one ``qheun verify --solution form`` report and score its results."""
    try:
        rep = json.loads(text)
        results = rep["results"]
        roots = rep["accessory"]["roots"]
        all_pass = rep["all_pass"]
        schema = rep["schema"]
    except (ValueError, KeyError, TypeError) as exc:
        out.inconsistent.append(f"verify report unreadable: {exc}")
        out.failed("MalformedReport", str(exc), N + 1)
        return
    if schema != qcli.SCHEMA or rep.get("command") != "verify" or rep.get("family") != family:
        out.inconsistent.append(f"verify report header {schema!r}/{rep.get('command')!r}")
    if len(roots) != N + 1:
        out.inconsistent.append(f"{len(roots)} roots for N = {N}")
    keys = [(r.get("form"), r.get("root_index")) for r in results]
    if keys != [(form, i) for i in range(len(roots))]:
        out.inconsistent.append(f"results {keys} do not cover ({form}, root) once each")
    statuses = [r.get("status") for r in results]
    if all_pass != all(s == "pass" for s in statuses) or (code == 0) != bool(all_pass):
        out.inconsistent.append(f"exit {code} with all_pass={all_pass} and statuses {statuses}")
    for r in results:
        status = r["status"]
        if status.startswith("error: "):
            out.failed(status[len("error: "):], f"{form} root {r['root_index']}")
            continue
        residuals = [float(v) for v in r["residuals"]]
        finite = bool(residuals) and all(math.isfinite(v) for v in residuals)
        worst = max(residuals) if finite else math.inf
        ok = finite and worst < VERIFY_TOL
        if ok != (status == "pass"):
            out.inconsistent.append(f"{form} root {r['root_index']}: status {status} at {worst:.3g}")
        if len(residuals) != VERIFY_GRID:
            out.inconsistent.append(f"{form}: {len(residuals)} residual points")
        if ok:
            out.passed(worst, len(residuals))
        elif not finite:
            out.failed("NonFinite", f"{form} root {r['root_index']}", units=len(residuals))
        else:
            out.failed("ToleranceMiss", f"{form} residual {worst:.3g}", value=worst, units=len(residuals))


def verify_sweep(seed: int, workdir: Path) -> Iterator[Step]:
    """Blocks of one job per N for a (family, form), each job on its own draw.

    Blocks come in shuffled order, so a run cut off mid-round still
    holds every N in equal measure (N sets the cost of a job).
    """
    rng = _stream_rng(seed, "verify-sweep")
    strata = QStrata(rng)
    path = workdir / "verify.json"
    blocks = [(fam, form) for fam, forms in (("family1", FAMILY1_FORMS), ("family2", FAMILY2_FORMS)) for form in forms]
    while True:
        for b in rng.permutation(len(blocks)):
            family, form = blocks[b]
            for N in rng.permutation(VERIFY_NS).tolist():
                p = strata((family, N), family, DRAWS[family](rng, N))
                xi = float(rng.uniform(0.7, 0.95)) * abs(p.t1)
                cfg = _config(
                    p, family=family, N=N, xi=[xi, 0.0], tol=VERIFY_TOL,
                    grid_count=VERIFY_GRID, seed=int(rng.integers(2**31)),
                )
                yield _writer(path, cfg)
                yield Step(True, _verify_job(path, family, N, form), f"verify {family} N={N} {form}")


def _writer(path: Path, cfg: dict) -> Step:
    def run(env: Env) -> None:
        path.write_text(json.dumps(cfg))

    return Step(False, run, f"write {path.name}", cfg)


# -- jackson-transform ----------------------------------------------------


def _off_spiral_points(rng, xi: float, q: float, bases) -> list[float]:
    """Real points beyond the anchor, kept 1e-3 away from every listed spiral."""
    pts: list[float] = []
    while len(pts) < TRANSFORM_POINTS:
        x = xi * q ** (-float(rng.uniform(0.3, 3.0)))
        if spiral_distance(x, bases, q) > 1e-3:
            pts.append(x)
    return pts


FAMILY_MODULE = {"family1": family_one, "family2": family_two}


def _family_fn(family: str, what: str) -> Callable:
    """The current binding of ``<family>_<what>``, e.g. family2_setup."""
    return getattr(FAMILY_MODULE[family], f"{family}_{what}")


def _transform_draw(
    family: str, N: int, seed: str, p: QHeunParams, xi: float, root_pick: float, point_seed: int
) -> list[Step]:
    """Steps for one (family, N, seed) draw: prepare, one limit job, the point jobs."""
    kernel, form = {"h1": ("P1", "g1"), "h2": ("P2", "g2")}[seed]
    ctx: dict = {}

    def prepare(env: Env) -> None:
        ctx.clear()
        try:
            st = _family_fn(family, "setup")(p, N)
            E0 = st.roots[int(root_pick * len(st.roots))]
            src = _family_fn(family, "source_params")(st)
            spec = qtransform.TransformSpec(source=src, mu0=0.0, xi=xi, kernel=kernel, alpha1=p.alpha1)
            poles = family_two.family2_pole_spirals(st) if family == "family2" else singular_spirals(p)
            ctx["xs"] = _off_spiral_points(np.random.default_rng(point_seed), xi, p.q, poles + [complex(xi)])
            ctx.update(st=st, E0=E0, spec=spec, h=_family_fn(family, "seed")(st, seed, E0))
        except Exception as exc:  # counted against every job of this draw
            ctx["error"] = exc

    label = f"{family} N={N} {seed}/{kernel}"
    steps = [
        Step(False, prepare, f"prepare {label}", (p, xi, root_pick, point_seed)),
        Step(True, _limit_job(ctx, family, seed), f"limits {label}"),
    ]
    steps += [Step(True, _point_job(ctx, family, form, xi, i), f"transform {label}") for i in range(TRANSFORM_POINTS)]
    return steps


def _point_job(ctx: dict, family: str, form: str, xi: float, i: int) -> Callable[[Env], Outcome]:
    def run(env: Env) -> Outcome:
        out = Outcome()
        if "error" in ctx:
            out.raised(ctx["error"])
            return out
        spec, h, x = ctx["spec"], ctx["h"], ctx["xs"][i]
        try:
            got = qtransform.transform(spec, h, ctx["E0"], x)
        except Exception as exc:
            out.raised(exc)
            return out
        env.check_start()
        try:
            want = _family_fn(family, "bilateral")(ctx["st"], form, ctx["E0"], xi, x)
        except Exception as exc:
            out.raised(exc)
            return out
        score_agreement(out, got, want, TRANSFORM_TOL, "TransformMismatch")
        return out

    return run


def score_agreement(out: Outcome, got: complex, want: complex, tol: float, kind: str) -> None:
    """One check: got agrees with want to tol, relative to |want|; non-finite fails."""
    if not (np.isfinite(got) and np.isfinite(want)) or want == 0:
        out.failed("NonFinite", f"got {got!r}, want {want!r}")
        return
    rel = abs(got - want) / abs(want)
    if rel <= tol:
        out.passed(rel, 1)
    else:
        out.failed(kind, f"relative disagreement {rel:.3g}", value=rel, units=1)


def _limit_job(ctx: dict, family: str, seed: str) -> Callable[[Env], Outcome]:
    """boundary_limits for one (spec, seed), checked through the boundary identity.

    The transform of the seed satisfies Op g = E g + (1 - q)(k2 - k1).
    Family-1 bilateral forms are homogeneous, so both limits must vanish;
    family-2 g1/g2 carry the explicit inhomogeneities, which the boundary
    terms built from the estimated limits must reproduce at the draw's
    first transform point.
    """

    def run(env: Env) -> Outcome:
        out = Outcome()
        if "error" in ctx:
            out.raised(ctx["error"])
            return out
        spec, h = ctx["spec"], ctx["h"]
        try:
            C1, C2 = qtransform.boundary_limits(spec, h)
        except Exception as exc:
            out.raised(exc)
            return out
        env.check_start()
        if not (np.isfinite(C1) and np.isfinite(C2)):
            out.failed("NonFinite", f"C1={C1!r}, C2={C2!r}")
            return out
        if family == "family1":
            worst = max(abs(C1), abs(C2))
            if worst <= TRANSFORM_TOL:
                out.passed(worst, 1)
            else:
                out.failed("LimitMismatch", f"nonzero limit {worst:.3g}", value=worst, units=1)
            return out
        st, x = ctx["st"], ctx["xs"][0]
        q = st.params.q
        try:
            k1, k2 = qtransform.boundary_terms(spec, C1, C2, x)
            if seed == "h1":
                want = family_two.g1_inhomogeneity(st, x)
            else:
                want = family_two.g2_inhomogeneity(st, spec.xi, x)
        except Exception as exc:
            out.raised(exc)
            return out
        score_agreement(out, (1.0 - q) * (k2 - k1), want, TRANSFORM_TOL, "LimitMismatch")
        return out

    return run


def jackson_transform(seed: int, workdir: Path) -> Iterator[Step]:
    """Rounds of one draw per (family, N, seed), in shuffled order."""
    rng = _stream_rng(seed, "jackson-transform")
    strata = QStrata(rng)
    kinds = [(family, N, h) for family in ("family1", "family2") for N in TRANSFORM_NS for h in ("h1", "h2")]
    while True:
        for k in rng.permutation(len(kinds)):
            family, N, h = kinds[k]
            p = strata(kinds[k], family, DRAWS[family](rng, N))
            xi = float(rng.uniform(0.7, 0.95)) * abs(p.t1)
            yield from _transform_draw(family, N, h, p, xi, float(rng.uniform()), int(rng.integers(2**31)))


# -- accessory-scan -------------------------------------------------------


def _accessory_job(path: Path, family: str, N: int, p: QHeunParams) -> Callable[[Env], Outcome]:
    def run(env: Env) -> Outcome:
        out = Outcome()
        code, text, exc = call_cli(env, ["accessory", "--config", str(path)])
        env.check_start()
        if _cli_failure(out, code, text, exc, 1):
            return out
        check_accessory_report(out, code, text, family, N, p)
        return out

    return run


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _coeff_gap(a: list[complex], b: list[complex]) -> float:
    scale = max(max(abs(v) for v in a), max(abs(v) for v in b))
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def check_accessory_report(out: Outcome, code, text: str, family: str, N: int, p: QHeunParams) -> None:
    """Check one ``qheun accessory`` report: certificates and the second route."""
    try:
        rep = json.loads(text)
        acc = rep["accessory"]
        coeffs = [complex(*c) for c in acc["coeffs"]]
        roots = [complex(*r) for r in acc["roots"]]
        certs = [float(c) for c in acc["certificates"]]
    except (ValueError, KeyError, TypeError) as exc:
        out.inconsistent.append(f"accessory report unreadable: {exc}")
        out.failed("MalformedReport", str(exc))
        return
    if code != 0 or rep.get("schema") != qcli.SCHEMA or len(coeffs) != N + 2 or len(roots) != N + 1:
        out.inconsistent.append(f"exit {code}: {len(coeffs)} coefficients, {len(roots)} roots for N = {N}")
    if len(certs) != len(roots):
        out.inconsistent.append("one certificate per root expected")
    scale = max(abs(c) for c in coeffs)
    for r, claimed in zip(roots, certs):
        mine = abs(_horner(coeffs, r)) / (scale * max(1.0, abs(r)) ** (len(coeffs) - 1))
        both_nan = math.isnan(mine) and math.isnan(claimed)
        if not (both_nan or abs(mine - claimed) <= 1e-9 * max(mine, claimed, 1e-300)):
            out.inconsistent.append(f"certificate {claimed!r} recomputes as {mine!r}")
    if family == "family2":
        gap = _coeff_gap(coeffs, [complex(*c) for c in acc["d_coeffs"]])
    elif family == "generic":
        gap = _coeff_gap(coeffs, list(accessory.accessory_poly_expanded(p, N).coeffs))
    else:
        gap = 0.0
    worst = max(certs + [gap])
    certified = sum(c <= ACCESSORY_TOL for c in certs)
    if not all(math.isfinite(v) for v in certs + [gap]):
        out.failed("NonFinite", f"certificates {certs}, route gap {gap!r}")
    elif gap > ACCESSORY_TOL:
        out.failed("RouteMismatch", f"routes differ by {gap:.3g}", value=worst)
    elif certified < len(certs):
        out.failed("CertificateMiss", f"worst certificate {max(certs):.3g}", value=worst)
    else:
        out.passed(worst, certified)


def accessory_scan(seed: int, workdir: Path) -> Iterator[Step]:
    """Rounds of one job per (family, N), each on its own draw, in shuffled order."""
    rng = _stream_rng(seed, "accessory-scan")
    strata = QStrata(rng)
    path = workdir / "accessory.json"
    jobs = [(family, N) for family in ("generic", "family1", "family2") for N in ACCESSORY_NS]
    while True:
        for j in rng.permutation(len(jobs)):
            family, N = jobs[j]
            p = strata(jobs[j], family, random_generic_params(rng) if family == "generic" else DRAWS[family](rng, N))
            yield _writer(path, _config(p, family=family, N=N))
            yield Step(True, _accessory_job(path, family, N, p), f"accessory {family} N={N}")


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "jackson-transform": jackson_transform,
    "accessory-scan": accessory_scan,
}
