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
from .accessory import root_certificate
from .errors import PreconditionError, QHeunError
from .family_two import Family2Setup
from .forms import FAMILIES, Form
from .qheun_op import QHeunParams

SCHEMA = "qheun/1"

PARAM_KEYS = ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta")

# Errors that end a command with exit 2 before any check runs
# (json.JSONDecodeError is a ValueError; a setup or grid that overflows
# or divides by zero at extreme parameters raises a DomainError).
CONFIG_ERRORS = (QHeunError, OSError, ValueError)


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


def _integer(value) -> int:
    """An integral JSON number; a bool, a string or a fraction is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, not {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, not {value!r}")
    return int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {type(value).__name__}")
    return value


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

    def read(key: str, convert, default=None):
        """convert(raw[key]), or default when the key is absent."""
        if key not in raw:
            return default
        try:
            return convert(raw[key])
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"config key {key!r} is malformed: {exc}") from exc

    def nullable(convert):
        return lambda value: None if value is None else convert(value)

    params = QHeunParams(
        **{k: read(k, float) for k in PARAM_KEYS},
        t1=read("t1", _as_complex),
        t2=read("t2", _as_complex),
        q=read("q", float),
    )
    family = read("family", str, "generic")
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    fmt = read("format", str, "json")
    if fmt not in ("json", "csv"):
        raise PreconditionError(f"unknown format {fmt!r}")
    return JobConfig(
        params=params,
        family=family,
        N=read("N", _integer, 0),
        solution=raw.get("solution"),
        grid_count=read("grid_count", _integer, 20),
        grid_rmin=read("grid_rmin", nullable(float)),
        grid_rmax=read("grid_rmax", nullable(float)),
        seed=read("seed", _integer, 0),
        fmt=fmt,
        out=read("out", nullable(_text)),
        tol=read("tol", float, 1e-8),
        xi=read("xi", nullable(_as_complex)),
        root_index=read("root_index", _integer, 0),
        e_offset=read("e_offset", float, 0.0),
        points=read("points", lambda values: [_as_complex(v) for v in values], []),
    )


def _emit(cfg: JobConfig, command: str, csv_rows: list[dict], **fields) -> None:
    """Write the report: csv_rows as CSV, or the JSON header followed by fields."""
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x_re", "x_im", "value_re", "value_im", "residual", "status"])
        for r in csv_rows:
            writer.writerow([*r["x"], *(r.get("value") or ("", "")), r.get("residual", ""), r["status"]])
        text = buf.getvalue()
    else:
        p = cfg.params
        params = {k: getattr(p, k) for k in PARAM_KEYS}
        params.update(t1=_pair(p.t1), t2=_pair(p.t2), q=p.q)
        report = {"schema": SCHEMA, "command": command, "params": params, "family": cfg.family, "N": cfg.N}
        text = json.dumps({**report, **fields}, indent=2) + "\n"
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


def _accessory_data(st) -> dict:
    data = {
        "coeffs": [_pair(c) for c in st.accessory.coeffs],
        "roots": [_pair(r) for r in st.roots],
        "certificates": [root_certificate(st.accessory.coeffs, r) for r in st.roots],
    }
    if isinstance(st, Family2Setup):
        data["d_coeffs"] = [_pair(c) for c in st.d_poly.coeffs]
    return data


def _forms(cfg: JobConfig) -> list[Form]:
    """The requested form, or every form available to the config, in report order."""
    forms = [f for f in FAMILIES[cfg.family].forms if cfg.xi is not None or not f.needs_xi]
    if not cfg.solution:
        return forms
    chosen = [f for f in forms if f.name == cfg.solution]
    if not chosen:
        raise PreconditionError(f"solution {cfg.solution!r} not available for {cfg.family}")
    return chosen


def _grid(cfg: JobConfig, form: Form, st) -> list[complex]:
    return cfg.points or form.grid(st, cfg.xi, cfg.grid_count, cfg.seed, cfg.grid_rmin, cfg.grid_rmax)


@click.group()
def main() -> None:
    """Numerical reports for special solutions of the q-Heun equation."""


_shared_options = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--family", type=click.Choice(list(FAMILIES)), default=None),
    click.option("--N", "N", type=int, default=None),
    click.option("--solution", type=str, default=None),
    click.option("--grid-count", "grid_count", type=int, default=None),
    click.option("--grid-rmin", "grid_rmin", type=float, default=None),
    click.option("--grid-rmax", "grid_rmax", type=float, default=None),
    click.option("--seed", type=int, default=None),
    click.option("--format", type=click.Choice(["json", "csv"]), default=None),
    click.option("--out", type=str, default=None),
    click.option("--tol", type=float, default=None),
]


def _with_shared_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@main.command()
@_with_shared_options
def accessory(config_path, **overrides) -> None:
    """Report accessory-polynomial coefficients, roots and certificates."""
    try:
        cfg = load_config(config_path, **overrides)
        data = _accessory_data(FAMILIES[cfg.family].setup(cfg.params, cfg.N))
    except CONFIG_ERRORS as exc:
        raise _fail_config(exc)
    rows = [
        {"x": r, "residual": c, "status": "root"}
        for r, c in zip(data["roots"], data["certificates"])
    ]
    _emit(cfg, "accessory", rows, accessory=data)


@main.command(name="eval")
@_with_shared_options
def eval_cmd(config_path, **overrides) -> None:
    """Evaluate one solution form on a point grid."""
    try:
        cfg = load_config(config_path, **overrides)
        form = _forms(cfg)[0]
        st = FAMILIES[cfg.family].setup(cfg.params, cfg.N)
        pts = _grid(cfg, form, st)
        if not 0 <= cfg.root_index < len(st.roots):
            raise PreconditionError(f"root_index {cfg.root_index} out of range")
    except CONFIG_ERRORS as exc:
        raise _fail_config(exc)
    E0 = st.roots[cfg.root_index] + cfg.e_offset
    g = form.solution(st, E0, cfg.xi)
    rows = []
    for x in pts:
        try:
            rows.append({"x": _pair(x), "value": _pair(g(x)), "status": "ok"})
        except QHeunError as exc:
            rows.append({"x": _pair(x), "value": None, "status": type(exc).__name__})
    _emit(cfg, "eval", rows, solution=form.name, root_index=cfg.root_index, E=_pair(E0), rows=rows)


@main.command()
@_with_shared_options
def verify(config_path, **overrides) -> None:
    """Residual-check every available form at every accessory root."""
    try:
        cfg = load_config(config_path, **overrides)
        forms = _forms(cfg)
        st = FAMILIES[cfg.family].setup(cfg.params, cfg.N)
        acc = _accessory_data(st)
        grids = [_grid(cfg, form, st) for form in forms]
    except CONFIG_ERRORS as exc:
        raise _fail_config(exc)
    results = []
    E0s = [root + cfg.e_offset for root in st.roots]
    for form, pts in zip(forms, grids):
        # Every root in one pass: each form's root-independent pieces are
        # evaluated once per stencil point.
        for idx, rep in enumerate(form.root_residuals(st, E0s, cfg.xi, pts)):
            result = {"form": form.name, "root_index": idx}
            if isinstance(rep, QHeunError):
                point = getattr(rep, "point", None)
                result.update(
                    points=[], residuals=[], max_residual=float("inf"),
                    status=f"error: {type(rep).__name__}",
                    error={"message": str(rep), "point": None if point is None else _pair(complex(point))},
                )
            else:
                result.update(
                    points=[_pair(x) for x in rep.points],
                    residuals=list(rep.residuals),
                    max_residual=rep.max_residual,
                    status="fail" if rep.max_residual >= cfg.tol else "pass",
                )
            results.append(result)
    all_pass = all(r["status"] == "pass" for r in results)
    rows = [
        {"x": x, "residual": r, "status": f"{res['form']}[{res['root_index']}]:{res['status']}"}
        for res in results
        for x, r in zip(res["points"], res["residuals"])
    ]
    _emit(cfg, "verify", rows, tol=cfg.tol, accessory=acc, results=results, all_pass=all_pass)
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
