"""Command-line front end: accessory reports, evaluation, verification.

A job is described by a flat JSON config whose keys mirror the
parameter field names; complex values are [re, im] pairs.  Flags
override config values.  Exit codes: 0 all checks passed, 1 checks ran
and failed, 2 configuration or precondition error.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import click

from . import acceptance
from .accessory import accessory_poly, poly_roots, polynomial_solution, root_certificate
from .errors import PreconditionError, QHeunError
from .family_one import (
    family1_bilateral,
    family1_residual_band,
    family1_setup,
    family1_unilateral,
)
from .family_two import (
    family2_bilateral,
    family2_homogeneous,
    family2_inhomogeneous_triple,
    family2_pole_spirals,
    family2_setup,
    g1_inhomogeneity,
    g2_inhomogeneity,
)
from .qheun_op import QHeunParams, grid_points, residual_report, singular_spirals

SCHEMA = "qheun/1"

PARAM_KEYS = ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta")


@dataclass
class JobConfig:
    params: QHeunParams
    family: str = "generic"
    N: int = 0
    solution: str | None = None
    grid_count: int = 20
    grid_rmin: float | None = None
    grid_rmax: float | None = None
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    tol: float = 1e-8
    xi: complex | None = None
    root_index: int = 0
    e_offset: float = 0.0
    points: list[complex] = field(default_factory=list)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise PreconditionError("complex values must be [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def load_config(path: str, **overrides) -> JobConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    missing = [k for k in PARAM_KEYS + ("q", "t1", "t2") if k not in raw]
    if missing:
        raise PreconditionError(f"config lacks required keys: {', '.join(missing)}")
    params = QHeunParams(
        **{k: float(raw[k]) for k in PARAM_KEYS},
        t1=_as_complex(raw["t1"]),
        t2=_as_complex(raw["t2"]),
        q=float(raw["q"]),
    )
    family = str(raw.get("family", "generic"))
    if family not in ("generic", "family1", "family2"):
        raise PreconditionError(f"unknown family {family!r}")
    fmt = str(raw.get("format", "json"))
    if fmt not in ("json", "csv"):
        raise PreconditionError(f"unknown format {fmt!r}")
    return JobConfig(
        params=params,
        family=family,
        N=int(raw.get("N", 0)),
        solution=raw.get("solution"),
        grid_count=int(raw.get("grid_count", 20)),
        grid_rmin=None if raw.get("grid_rmin") is None else float(raw["grid_rmin"]),
        grid_rmax=None if raw.get("grid_rmax") is None else float(raw["grid_rmax"]),
        seed=int(raw.get("seed", 0)),
        fmt=fmt,
        out=raw.get("out"),
        tol=float(raw.get("tol", 1e-8)),
        xi=None if raw.get("xi") is None else _as_complex(raw["xi"]),
        root_index=int(raw.get("root_index", 0)),
        e_offset=float(raw.get("e_offset", 0.0)),
        points=[_as_complex(v) for v in raw.get("points", [])],
    )


def _params_dict(p: QHeunParams) -> dict:
    d = {k: getattr(p, k) for k in PARAM_KEYS}
    d["t1"] = _pair(p.t1)
    d["t2"] = _pair(p.t2)
    d["q"] = p.q
    return d


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail_config(exc: Exception) -> "SystemExit":
    if isinstance(exc, PreconditionError):
        reason = f"precondition: {exc}"
    else:
        reason = f"{type(exc).__name__}: {exc}"
    click.echo(json.dumps({"schema": SCHEMA, "error": {"reason": reason}}))
    return SystemExit(2)


def _accessory_data(cfg: JobConfig) -> dict:
    p, N = cfg.params, cfg.N
    d_coeffs = None
    if cfg.family == "family1":
        st = family1_setup(p, N)
        cpoly, roots = st.accessory, list(st.roots)
    elif cfg.family == "family2":
        st = family2_setup(p, N)
        cpoly, roots = st.accessory, list(st.roots)
        d_coeffs = [_pair(c) for c in st.d_poly.coeffs]
    else:
        cpoly = accessory_poly(p, N)
        roots = poly_roots(cpoly)
    certs = [root_certificate(cpoly.coeffs, r) for r in roots]
    data = {
        "coeffs": [_pair(c) for c in cpoly.coeffs],
        "roots": [_pair(r) for r in roots],
        "certificates": certs,
    }
    if d_coeffs is not None:
        data["d_coeffs"] = d_coeffs
    return data


def _solution_forms(cfg: JobConfig) -> list[str]:
    if cfg.family == "generic":
        return ["poly"]
    if cfg.family == "family1":
        forms = ["g3", "g4", "g5", "g6"]
        if cfg.xi is not None:
            forms = ["g1", "g2"] + forms
        return forms
    forms = ["g3", "g4", "g5", "g6-g7", "g7-g8", "g6", "g7", "g8"]
    if cfg.xi is not None:
        forms = ["g1", "g2"] + forms
    return forms


def _form_machinery(cfg: JobConfig, form: str):
    """(setup, roots, evaluate(E, x), inhomogeneity(E) or None, grid points)."""
    p, N = cfg.params, cfg.N
    count, seed = cfg.grid_count, cfg.seed
    if count < 1:
        raise PreconditionError("grid count must be at least 1")
    m = min(abs(p.t1), abs(p.t2))

    def band(lo_default: float, hi_default: float) -> tuple[float, float]:
        lo = cfg.grid_rmin if cfg.grid_rmin is not None else lo_default
        hi = cfg.grid_rmax if cfg.grid_rmax is not None else hi_default
        if not (0 < lo <= hi):
            raise PreconditionError("grid radius range must be positive")
        return lo, hi

    if cfg.family == "generic":
        cpoly = accessory_poly(p, N)
        roots = poly_roots(cpoly)
        lo, hi = band(0.1 * m, 10.0 * m)
        pts = cfg.points or grid_points(p.q, singular_spirals(p), count, lo, hi, seed=seed)
        return roots, (lambda E, x: polynomial_solution(p, E, N)(x)), None, pts

    if cfg.family == "family1":
        st = family1_setup(p, N)
        if form in ("g1", "g2"):
            if cfg.xi is None:
                raise PreconditionError(f"form {form} needs an xi value in the config")
            lo, hi = band(0.6 * m, 2.5 * m)
            spirals = singular_spirals(p) + [cfg.xi]
            pts = cfg.points or grid_points(p.q, spirals, count, lo, hi, seed=seed, min_rel_dist=1e-4)
            return (
                list(st.roots),
                lambda E, x: family1_bilateral(st, form, E, cfg.xi, x),
                None,
                pts,
            )
        if form not in ("g3", "g4", "g5", "g6"):
            raise PreconditionError(f"unknown family1 form {form!r}")
        lo, hi = band(*family1_residual_band(st, form))
        pts = cfg.points or grid_points(p.q, singular_spirals(p), count, lo, hi, seed=seed)
        return (
            list(st.roots),
            lambda E, x: family1_unilateral(st, form, E, x),
            None,
            pts,
        )

    st = family2_setup(p, N)
    spirals = family2_pole_spirals(st) + ([cfg.xi] if cfg.xi is not None else [])
    lo, hi = band(0.4 * m, 3.0 * m)
    pts = cfg.points or grid_points(p.q, spirals, count, lo, hi, seed=seed, min_rel_dist=1e-3)
    roots = list(st.roots)
    if form in ("g1", "g2"):
        if cfg.xi is None:
            raise PreconditionError(f"form {form} needs an xi value in the config")
        if form == "g1":
            return (
                roots,
                lambda E, x: family2_bilateral(st, "g1", E, cfg.xi, x),
                lambda E: (lambda x: g1_inhomogeneity(st, x)),
                pts,
            )
        return (
            roots,
            lambda E, x: family2_bilateral(st, "g2", E, cfg.xi, x),
            lambda E: (lambda x: g2_inhomogeneity(st, cfg.xi, x)),
            pts,
        )
    if form in ("g3", "g4", "g5"):
        return roots, (lambda E, x: family2_homogeneous(st, form, E, x)), None, pts
    if form in ("g6", "g7", "g8"):
        return (
            roots,
            lambda E, x: family2_inhomogeneous_triple(st, form, E, x),
            lambda E: (lambda x: g1_inhomogeneity(st, x)),
            pts,
        )
    if form in ("g6-g7", "g7-g8"):
        a, b = form.split("-")
        return (
            roots,
            lambda E, x: family2_inhomogeneous_triple(st, a, E, x)
            - family2_inhomogeneous_triple(st, b, E, x),
            None,
            pts,
        )
    raise PreconditionError(f"unknown family2 form {form!r}")


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x_re", "x_im", "value_re", "value_im", "residual", "status"])
    for r in rows:
        value = r.get("value")
        writer.writerow(
            [
                r["x"][0],
                r["x"][1],
                "" if value is None else value[0],
                "" if value is None else value[1],
                r.get("residual", ""),
                r["status"],
            ]
        )
    return buf.getvalue()


@click.group()
def main() -> None:
    """Numerical reports for special solutions of the q-Heun equation."""


_shared_options = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--family", type=click.Choice(["generic", "family1", "family2"]), default=None),
    click.option("--N", "N", type=int, default=None),
    click.option("--solution", type=str, default=None),
    click.option("--grid-count", "grid_count", type=int, default=None),
    click.option("--grid-rmin", "grid_rmin", type=float, default=None),
    click.option("--grid-rmax", "grid_rmax", type=float, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None),
    click.option("--out", type=str, default=None),
    click.option("--tol", type=float, default=None),
]


def _with_shared_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


def _load(config_path, **overrides) -> JobConfig:
    renames = {"fmt": "format"}
    raw = {renames.get(k, k): v for k, v in overrides.items()}
    return load_config(config_path, **raw)


@main.command()
@_with_shared_options
def accessory(config_path, **overrides) -> None:
    """Report accessory-polynomial coefficients, roots and certificates."""
    try:
        cfg = _load(config_path, **overrides)
        data = _accessory_data(cfg)
    except (QHeunError, OSError, json.JSONDecodeError, ValueError) as exc:
        raise _fail_config(exc)
    if cfg.fmt == "csv":
        rows = [
            {"x": r, "value": None, "residual": c, "status": "root"}
            for r, c in zip(data["roots"], data["certificates"])
        ]
        _emit(cfg, _rows_to_csv(rows))
    else:
        report = {
            "schema": SCHEMA,
            "command": "accessory",
            "params": _params_dict(cfg.params),
            "family": cfg.family,
            "N": cfg.N,
            "accessory": data,
        }
        _emit(cfg, json.dumps(report, indent=2) + "\n")


@main.command(name="eval")
@_with_shared_options
def eval_cmd(config_path, **overrides) -> None:
    """Evaluate one solution form on a point grid."""
    try:
        cfg = _load(config_path, **overrides)
        form = cfg.solution or _solution_forms(cfg)[0]
        if form not in _solution_forms(cfg):
            raise PreconditionError(f"solution {form!r} not available for {cfg.family}")
        roots, evaluate, _, pts = _form_machinery(cfg, form)
        if not 0 <= cfg.root_index < len(roots):
            raise PreconditionError(f"root_index {cfg.root_index} out of range")
    except (QHeunError, OSError, json.JSONDecodeError, ValueError) as exc:
        raise _fail_config(exc)
    E0 = roots[cfg.root_index] + cfg.e_offset
    rows = []
    for x in pts:
        try:
            value = evaluate(E0, x)
            rows.append({"x": _pair(x), "value": _pair(value), "status": "ok"})
        except QHeunError as exc:
            rows.append({"x": _pair(x), "value": None, "status": type(exc).__name__})
    if cfg.fmt == "csv":
        _emit(cfg, _rows_to_csv(rows))
    else:
        report = {
            "schema": SCHEMA,
            "command": "eval",
            "params": _params_dict(cfg.params),
            "family": cfg.family,
            "N": cfg.N,
            "solution": form,
            "root_index": cfg.root_index,
            "E": _pair(E0),
            "rows": rows,
        }
        _emit(cfg, json.dumps(report, indent=2) + "\n")


@main.command()
@_with_shared_options
def verify(config_path, **overrides) -> None:
    """Residual-check every available form at every accessory root."""
    try:
        cfg = _load(config_path, **overrides)
        forms = [cfg.solution] if cfg.solution else _solution_forms(cfg)
        unknown = [f for f in forms if f not in _solution_forms(cfg)]
        if unknown:
            raise PreconditionError(f"solution {unknown[0]!r} not available for {cfg.family}")
        acc = _accessory_data(cfg)
        machinery = {form: _form_machinery(cfg, form) for form in forms}
    except (QHeunError, OSError, json.JSONDecodeError, ValueError) as exc:
        raise _fail_config(exc)
    results = []
    all_pass = True
    for form in forms:
        roots, evaluate, inhom_factory, pts = machinery[form]
        for idx, root in enumerate(roots):
            E0 = root + cfg.e_offset
            status = "pass"
            try:
                inhom = inhom_factory(E0) if inhom_factory is not None else None
                rep = residual_report(
                    cfg.params, E0, lambda x: evaluate(E0, x), pts, inhomogeneity=inhom
                )
                max_res = rep.max_residual
                points = [_pair(x) for x in rep.points]
                residuals = list(rep.residuals)
                if max_res >= cfg.tol:
                    status = "fail"
            except QHeunError as exc:
                max_res = float("inf")
                points, residuals = [], []
                status = f"error: {type(exc).__name__}"
            if status != "pass":
                all_pass = False
            results.append(
                {
                    "form": form,
                    "root_index": idx,
                    "points": points,
                    "residuals": residuals,
                    "max_residual": max_res,
                    "status": status,
                }
            )
    if cfg.fmt == "csv":
        rows = []
        for res in results:
            for xpair, r in zip(res["points"], res["residuals"]):
                rows.append(
                    {
                        "x": xpair,
                        "value": None,
                        "residual": r,
                        "status": f"{res['form']}[{res['root_index']}]:{res['status']}",
                    }
                )
        _emit(cfg, _rows_to_csv(rows))
    else:
        report = {
            "schema": SCHEMA,
            "command": "verify",
            "params": _params_dict(cfg.params),
            "family": cfg.family,
            "N": cfg.N,
            "tol": cfg.tol,
            "accessory": acc,
            "results": results,
            "all_pass": all_pass,
        }
        _emit(cfg, json.dumps(report, indent=2) + "\n")
    raise SystemExit(0 if all_pass else 1)


@main.command()
def selftest() -> None:
    """Run the full acceptance suite; exit 0 only if every criterion passes."""
    results = acceptance.run_all()
    for r in results:
        click.echo(r.line())
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
