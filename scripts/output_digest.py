#!/usr/bin/env python3
"""Print one SHA-256 per section of qheun's answers on seeded draws.

Two checkouts give the same answers on a seed exactly when they print
the same lines, so a refactor that claims unchanged output can show it:

    PYTHONPATH=<checkout>/src python scripts/output_digest.py --seed 1

Sections, per family (family1, family2):

* accessory: the JSON of in-process ``qheun accessory`` on the
  ``qheun.sampling`` draw at each N of VERIFY_NS;
* verify: the JSON and exit code of ``qheun verify`` over every form of
  the same draws, with an anchor xi and a grid of GRID_COUNT points;
* eval: ``qheun eval`` of every form of the same draws at root 0;
* rows: the ``root_coeffs`` of the same draws' setups, the coefficients
  c_0..c_N at each accessory root;
* transform: ``qtransform.transform`` of both seeds h1 (kernel P1) and
  h2 (P2) at the draws of TRANSFORM_NS, at POINTS points;
* limits: ``qtransform.boundary_limits`` of the same seeds;
* defects (family2 only): ``g1_inhomogeneity`` and ``g2_inhomogeneity``
  at the transform points;
* replay: ``qheun verify`` of g1 and of g2 on a draw at REPLAY_N, at the
  explicit points 1.1 |t1| e^{0.7i}, xi q**2 and 1.3 |t1| e^{-0.5i},
  where every root of g1 meets a pole in the stencil of the second
  point, so the line pins the order in which a report reads its
  stencil;
* evaluate: ``Form.evaluate`` of every form on a draw at each N of
  EVALUATE_NS, from a generator of the section's own, over the roots,
  the first root once more and the first root + 0.1 (no root), at the
  stencil x/q, qx, x of a grid of EVALUATE_POINTS points, with the E0s
  asked for shrinking from all of them to the last one;
* pointwise: transform and limits as above, on draws at TRANSFORM_NS
  from a generator of the section's own, with each seed wrapped as the
  plain callable ``lambda s: h(s)``, which transform and
  boundary_limits evaluate at each spiral point instead of stepping;
* edges: ``Form.evaluate`` of every finite-sum form on a draw at
  EDGES_N, from a generator of the section's own, over the roots and
  the first root + 0.1 (no root), at the EDGE_POINTS (x = 0 among
  them), half the low end of the form's band, twice its high end and
  one in-band point; for family2 also on the same draw with alpha2
  lowered by 3, where lambda1 + alpha2 <= 0; and the family's
  finite-sum evaluator with the unknown form name "g0" at EDGE_POINTS.

Then the generic family, on ``random_admissible_params`` draws at each
N of GENERIC_NS: accessory, verify and eval as above, each of verify
and eval also with ``e_offset`` E_OFFSET and at EXPLICIT_POINTS (x = 0
among them).  Then qcore, on draws from a generator of its own, at
each q of QCORE_QS:

* qcore.phi_series: ``phi_series`` at each z of QCORE_ZS on a seeded
  2phi1 and 3phi2, and on 2phi1s with the terminating parameter q**-3,
  the near-lattice one q**-3 (1 + 1e-9) and the lower parameter q**-2,
  which meets a pole;
* qcore.chain: one ``SeriesChain`` per parameter set above, summed at
  QCORE_ZS forwards, backwards and forwards once more, so a value that
  depends on what the chain held before shows;
* qcore.jackson_integral: ``jackson_integral`` of s, s**2, the
  non-decaying 1/s and two decaying rational integrands at a seeded
  anchor.

Parameter moduli stay far below the float range.  Then recurrence, on
draws from a generator of its own: for generic
(``random_generic_params``), family1 and family2, one draw at each N of
RECURRENCE_NS and one at EXTREME_N taken once with each q of
EXTREME_QS, plus for generic one N = 2 draw at beta = 1, where x_1
vanishes; each with the setup's accessory polynomial, roots and
``root_coeffs`` (or the error forming them raises),
``accessory_poly`` and ``accessory_poly_expanded``, family2's
``d_poly`` and, for generic, ``series_coefficients`` up to c_N at each
root.  Then errors: one line per entry point typed by
``errors.typed`` (and ``transform`` for ``typed_at_point``), with the
class and message it raises on the extreme finite input of
tests/test_errors.py.  Then scripts.transform_demo: the stdout of
scripts/transform_demo.py at each N of DEMO_NS.  Last, acceptance:
each criterion of ``acceptance.run_all`` with its pass flag and detail,
not its timing.

Values are hashed by repr, which round-trips a float exactly, and an
error by its class and message, so a changed bit or message changes
the line.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import hashlib
import io
import json
import runpy
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from qheun import acceptance, family_one, family_two
from qheun import cli as qcli
from qheun.accessory import accessory_poly, accessory_poly_expanded, apparent_singularity_check, series_coefficients
from qheun.forms import FAMILIES
from qheun.qcore import SeriesChain, jackson_integral, phi_series, q_pochhammer
from qheun.qheun_op import QHeunParams
from qheun.qtransform import TransformSpec, boundary_limits, kernel_value, transform
from qheun.sampling import (
    random_admissible_params,
    random_family1_params,
    random_family2_params,
    random_generic_params,
)

VERIFY_NS = (1, 2, 4, 6, 8)
GENERIC_NS = (0, 1, 2, 4)
E_OFFSET = 1e-12
EXPLICIT_POINTS = [[0.0, 0.0], [0.5, 0.0], [1.2, 0.3]]
TRANSFORM_NS = (1, 2, 4)
REPLAY_N = 2
EVALUATE_NS = (1, 4)
EVALUATE_POINTS = 2
EDGES_N = 2
EDGE_POINTS = (0.0, 1e-300, 1e300, 1e-30)
GRID_COUNT = 4
POINTS = 2
RECURRENCE_NS = range(13)
EXTREME_N = 6
EXTREME_QS = (0.02, 0.98)
QCORE_QS = (0.3, 0.6, 0.9)
QCORE_ZS = (0.0, 0.3 + 0.2j, -0.7j, 0.95, 1.0, 1.5 - 0.5j)
INTEGRANDS = (
    lambda s: s,
    lambda s: s * s,
    lambda s: 1 / s,
    lambda s: s / (1 + s**4),
    lambda s: 1 / (1 + s * s) ** 2,
)
DEMO_NS = (1, 2)
DRAWS = {"family1": random_family1_params, "family2": random_family2_params}
MODULES = {"family1": family_one, "family2": family_two}
SEEDS = {"h1": "P1", "h2": "P2"}


def run_cli(argv: list[str]) -> str:
    """stdout and exit code of one in-process ``qheun`` command."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            qcli.main(argv, prog_name="qheun")
        code = 0
    except SystemExit as stop:
        code = stop.code
    return f"{buf.getvalue()}exit {code}\n"


def attempt(fn, *args) -> str:
    """repr of fn(*args), or the class and message of the error it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # every outcome is hashed, an untyped error included
        return f"{type(exc).__name__}: {exc}"


def config(p, **extra) -> dict:
    cfg = {k: getattr(p, k) for k in qcli.PARAM_KEYS + ("q",)}
    cfg.update(t1=[p.t1.real, p.t1.imag], t2=[p.t2.real, p.t2.imag], **extra)
    return cfg


def cli_sections(family: str, rng: np.random.Generator, workdir: Path, verify_ns) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"accessory": [], "verify": [], "eval": [], "rows": []}
    path = workdir / "job.json"
    for N in verify_ns:
        p = DRAWS[family](rng, N)
        xi = 0.8 * abs(p.t1)
        path.write_text(json.dumps(config(p, family=family, N=N, xi=[xi, 0.0], grid_count=GRID_COUNT)))
        for command in ("accessory", "verify"):
            out[command].append(run_cli([command, "--config", str(path)]))
        for form in FAMILIES[family].forms:
            out["eval"].append(run_cli(["eval", "--config", str(path), "--solution", form.name]))
        out["rows"].append(attempt(lambda: FAMILIES[family].setup(p, N).root_coeffs))
    return out


def generic_sections(rng: np.random.Generator, workdir: Path, generic_ns) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"accessory": [], "verify": [], "eval": []}
    path = workdir / "job.json"
    for N in generic_ns:
        p = random_admissible_params(rng, N)
        variants = ({}, {"e_offset": E_OFFSET}, {"points": EXPLICIT_POINTS})
        for index, extra in enumerate(variants):
            path.write_text(json.dumps(config(p, family="generic", N=N, grid_count=GRID_COUNT, **extra)))
            for command in out if index == 0 else ("verify", "eval"):
                out[command].append(run_cli([command, "--config", str(path)]))
    return out


def acceptance_section() -> list[str]:
    return [f"{r.index} {r.name} {r.passed} {r.detail}" for r in acceptance.run_all()]


def transform_draw(family: str, rng: np.random.Generator, N: int) -> tuple:
    """(st, E0, xi, xs, [(spec, h) of seed h1 with P1 and h2 with P2]) of one draw at N."""
    module = MODULES[family]
    p = DRAWS[family](rng, N)
    st = getattr(module, f"{family}_setup")(p, N)
    E0 = st.roots[0]
    xi = 0.8 * abs(p.t1)
    xs = [xi * p.q ** -(0.53 + 0.61 * k) * complex(1.0, 0.1 * k) for k in range(POINTS)]
    source = getattr(module, f"{family}_source_params")(st)
    seed_of = getattr(module, f"{family}_seed")
    seeds = [
        (TransformSpec(source=source, mu0=0.0, xi=xi, kernel=kernel, alpha1=p.alpha1), seed_of(st, which, E0))
        for which, kernel in SEEDS.items()
    ]
    return st, E0, xi, xs, seeds


def transform_sections(family: str, rng: np.random.Generator, transform_ns) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"transform": [], "limits": []}
    if family == "family2":
        out["defects"] = []
    for N in transform_ns:
        st, E0, xi, xs, seeds = transform_draw(family, rng, N)
        for spec, h in seeds:
            out["transform"] += [attempt(transform, spec, h, E0, x) for x in xs]
            out["limits"].append(attempt(boundary_limits, spec, h))
        if family == "family2":
            out["defects"] += [attempt(family_two.g1_inhomogeneity, st, x) for x in xs]
            out["defects"] += [attempt(family_two.g2_inhomogeneity, st, xi, x) for x in xs]
    return out


def pointwise_section(family: str, rng: np.random.Generator, transform_ns) -> list[str]:
    out = []
    for N in transform_ns:
        _, E0, _, xs, seeds = transform_draw(family, rng, N)
        for spec, seed in seeds:
            h = lambda s, seed=seed: seed(s)
            out += [attempt(transform, spec, h, E0, x) for x in xs]
            out.append(attempt(boundary_limits, spec, h))
    return out


def replay_section(family: str, rng: np.random.Generator, workdir: Path) -> list[str]:
    p = DRAWS[family](rng, REPLAY_N)
    r, xi = abs(p.t1), 0.8 * abs(p.t1)
    points = [1.1 * r * cmath.exp(0.7j), complex(xi * p.q**2), 1.3 * r * cmath.exp(-0.5j)]
    path = workdir / "job.json"
    path.write_text(json.dumps(config(p, family=family, N=REPLAY_N, xi=[xi, 0.0], points=[[x.real, x.imag] for x in points])))
    return [run_cli(["verify", "--config", str(path), "--solution", form]) for form in ("g1", "g2")]


def evaluate_section(family: str, rng: np.random.Generator, evaluate_ns) -> list[str]:
    out = []
    for N in evaluate_ns:
        p = DRAWS[family](rng, N)
        st = FAMILIES[family].setup(p, N)
        xi = 0.8 * abs(p.t1) + 0j
        E0s = list(st.roots) + [st.roots[0], st.roots[0] + 0.1]
        for form in FAMILIES[family].forms:
            pts = [y for x in form.grid(st, xi, EVALUATE_POINTS, seed=N) for y in (x / p.q, p.q * x, x)]
            g = form.evaluate(st, E0s, xi)
            for i, x in enumerate(pts):
                live = list(range(i * (len(E0s) - 1) // (len(pts) - 1), len(E0s)))
                out.append(f"{form.name} {x!r} {live} {outcomes(g(x, live))}")
    return out


def edges_section(family: str, rng: np.random.Generator) -> list[str]:
    out = []
    p = DRAWS[family](rng, EDGES_N)
    draws = [p] + ([dataclasses.replace(p, alpha2=p.alpha2 - 3.0)] if family == "family2" else [])
    evaluator = {"family1": family_one.family1_unilateral_evaluator, "family2": family_two.family2_finite_evaluator}
    for params in draws:
        st = FAMILIES[family].setup(params, EDGES_N)
        E0s = list(st.roots) + [st.roots[0] + 0.1]
        everyone = list(range(len(E0s)))
        for form in FAMILIES[family].forms:
            if form.needs_xi:
                continue
            lo, hi = form.band(st)
            g = form.evaluate(st, E0s, None)
            for x in [*EDGE_POINTS, lo / 2, 2 * hi, *form.grid(st, None, 1, seed=EDGES_N)]:
                out.append(f"{form.name} {x!r} {attempt(lambda: outcomes(g(x, everyone)))}")
        unknown = evaluator[family](st, "g0", [st.root_coeffs[st.roots[0]]])
        out += [f"g0 {x!r} {attempt(unknown, [0], x)}" for x in EDGE_POINTS]
    return out


def qcore_sections(rng: np.random.Generator) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"phi_series": [], "chain": [], "jackson_integral": []}

    def draw(count: int) -> list[complex]:
        return [complex(*v) for v in rng.uniform(-1.2, 1.2, (count, 2))]

    for q in QCORE_QS:
        (a, b), (c,) = draw(2), draw(1)
        params = [
            (draw(2), draw(1)),
            (draw(3), draw(2)),
            ([q**-3, a], [c]),
            ([q**-3 * (1 + 1e-9), a], [c]),
            ([a, b], [q**-2]),
        ]
        for upper, lower in params:
            out["phi_series"] += [f"{q!r} {z!r} {attempt(phi_series, upper, lower, q, z)}" for z in QCORE_ZS]
            chain = SeriesChain(upper, lower, q)
            zs = [*QCORE_ZS, *reversed(QCORE_ZS), *QCORE_ZS]
            out["chain"] += [f"{q!r} {z!r} {attempt(chain.sum, z)}" for z in zs]
        (xi,) = draw(1)
        out["jackson_integral"] += [attempt(jackson_integral, f, xi, q) for f in INTEGRANDS]
    return out


def recurrence_section(rng: np.random.Generator) -> list[str]:
    out = []
    draws = {"generic": lambda rng, N: random_generic_params(rng), **DRAWS}
    for family, draw in draws.items():
        cases = [(draw(rng, N), N) for N in RECURRENCE_NS]
        extreme = draw(rng, EXTREME_N)
        cases += [(dataclasses.replace(extreme, q=q), EXTREME_N) for q in EXTREME_QS]
        if family == "generic":  # x_1 = 0: the polynomial and roots are defined, the rows are not
            cases.append((dataclasses.replace(draw(rng, 2), beta=1.0), 2))
        for p, N in cases:
            routes = [attempt(accessory_poly, p, N), attempt(accessory_poly_expanded, p, N)]
            out.append(f"{family} {N} {p.q!r} {routes} {attempt(setup_outputs, family, p, N)}")
    return out


def setup_outputs(family: str, p, N: int) -> list:
    """A setup's accessory, roots and rows; family2's d_poly; the generic series at each root."""
    st = FAMILIES[family].setup(p, N)
    values = [st.accessory, st.roots, attempt(getattr, st, "root_coeffs")]
    if family == "family2":
        values.append(st.d_poly)
    if family == "generic":
        values += [attempt(series_coefficients, p, r, N) for r in st.roots]
    return values


def errors_sections() -> dict[str, list[str]]:
    """Each typed entry point on the extreme input of tests/test_errors.py: its outcome."""
    rng = np.random.default_rng(7)
    f1, f2, g = [draw(rng, 2) for draw in (random_family1_params, random_family2_params, random_admissible_params)]
    s1, s2 = FAMILIES["family1"].setup(f1, 2), FAMILIES["family2"].setup(f2, 2)
    flat = dict(h1=0.0, h2=0.0, l1=0.0, l2=0.0, alpha1=0.0, alpha2=0.0, t1=1.0, t2=1.0, q=0.02)

    def jackson(family: str, st, kernel: str, xi: complex) -> tuple:
        module = MODULES[family]
        source = getattr(module, f"{family}_source_params")(st)
        spec = TransformSpec(source=source, mu0=0.0, xi=xi, kernel=kernel, alpha1=st.params.alpha1)
        return spec, getattr(module, f"{family}_seed")(st, {"P1": "h1", "P2": "h2"}[kernel], st.roots[0])

    cases = {
        "Family.setup": lambda: FAMILIES["generic"].setup(dataclasses.replace(g, q=1e-80), 2),
        "Form.grid": lambda: FAMILIES["family1"].form("g5").grid(
            FAMILIES["family1"].setup(dataclasses.replace(f1, q=1e-40), 2), None, 3, 0
        ),
        "q_pochhammer": lambda: q_pochhammer(1.5e308 + 1.5e308j, 0.9, -1),
        "phi_series": lambda: phi_series([1e6, 1e6], [0.5], 0.9, 0.5),
        "jackson_integral": lambda: jackson_integral(lambda s: cmath.exp(1 / s), 1.0, 0.5),
        "kernel_value": lambda: kernel_value(jackson("family2", s2, "P2", 1.0)[0], 1e300, 1.0),
        "boundary_limits": lambda: boundary_limits(*jackson("family1", s1, "P1", 1e300)),
        "transform": lambda: transform(*jackson("family2", s2, "P2", 1.0), s2.roots[0], 1e-300),
        "accessory_poly": lambda: accessory_poly(QHeunParams(beta=1.0, **flat), 200),
        "accessory_poly_expanded": lambda: accessory_poly_expanded(dataclasses.replace(g, q=1e-80), 2),
        "series_coefficients": lambda: series_coefficients(QHeunParams(beta=0.5, **flat), 1.0, 200),
        "apparent_singularity_check": lambda: apparent_singularity_check(QHeunParams(beta=201.0, **flat), 1.0, 200),
    }
    return {name: [name, attempt(call)] for name, call in cases.items()}


def demo_section() -> list[str]:
    """The stdout of scripts/transform_demo.py at each N of DEMO_NS."""
    out = []
    argv = sys.argv
    try:
        for N in DEMO_NS:
            sys.argv = ["transform_demo.py", "--N", str(N)]
            buf = io.StringIO()
            with redirect_stdout(buf):
                runpy.run_path(str(Path(__file__).with_name("transform_demo.py")), run_name="__main__")
            out.append(buf.getvalue())
    finally:
        sys.argv = argv
    return out


def outcomes(values: list) -> list[str]:
    """repr of each value, or the class and message of each error."""
    return [f"{type(v).__name__}: {v}" if isinstance(v, Exception) else repr(v) for v in values]


def digest_line(name: str, texts: list[str]) -> str:
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return f"{name} {digest}"


def digests(
    seed: int, verify_ns=VERIFY_NS, transform_ns=TRANSFORM_NS, generic_ns=GENERIC_NS, evaluate_ns=EVALUATE_NS
) -> list[str]:
    """The `<section> <sha256>` lines for one seed."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, family in enumerate(DRAWS):
            rng = np.random.default_rng([seed, index])
            sections = cli_sections(family, rng, Path(tmp), verify_ns)
            sections.update(transform_sections(family, rng, transform_ns))
            sections["replay"] = replay_section(family, rng, Path(tmp))
            sections["evaluate"] = evaluate_section(family, np.random.default_rng([seed, index, 1]), evaluate_ns)
            sections["pointwise"] = pointwise_section(family, np.random.default_rng([seed, index, 2]), transform_ns)
            sections["edges"] = edges_section(family, np.random.default_rng([seed, index, 3]))
            lines += [digest_line(f"{family}.{name}", texts) for name, texts in sections.items()]
        rng = np.random.default_rng([seed, len(DRAWS)])
        for name, texts in generic_sections(rng, Path(tmp), generic_ns).items():
            lines.append(digest_line(f"generic.{name}", texts))
    for name, texts in qcore_sections(np.random.default_rng([seed, len(DRAWS) + 1])).items():
        lines.append(digest_line(f"qcore.{name}", texts))
    lines.append(digest_line("recurrence", recurrence_section(np.random.default_rng([seed, len(DRAWS) + 2]))))
    lines += [digest_line(f"errors.{name}", texts) for name, texts in errors_sections().items()]
    lines.append(digest_line("scripts.transform_demo", demo_section()))
    lines.append(digest_line("acceptance", acceptance_section()))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for line in digests(args.seed):
        print(line)


if __name__ == "__main__":
    main()
