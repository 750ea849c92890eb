"""Command-line front end: accessory reports, evaluation, verification.

A job is described by a flat JSON config whose keys mirror the
parameter field names; complex values are [re, im] pairs.  Each flag
overrides the config key of its name and is checked as that key is.
Exit codes: 0 all checks passed, 1 checks ran and failed, 2
configuration or precondition error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
from dataclasses import dataclass

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
    family: str
    N: int
    solution: str | None
    grid_count: int
    grid_rmin: float | None
    grid_rmax: float | None
    seed: int
    fmt: str
    out: str | None
    tol: float
    xi: complex | None
    root_index: int
    e_offset: float
    points: list[complex]


class _NotFinite(ValueError):
    """A config number that is NaN or infinite."""


def _real(value) -> float:
    """A finite real number; _NotFinite names a NaN or an infinity."""
    x = float(value)
    if not math.isfinite(x):
        raise _NotFinite
    return x


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError("complex values must be [re, im] pairs")
        return complex(_real(value[0]), _real(value[1]))
    return complex(_real(value), 0.0)


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
    if not isinstance(raw, dict):
        raise PreconditionError("config must be a JSON object")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    missing = [k for k in PARAM_KEYS + ("q", "t1", "t2") if k not in raw]
    if missing:
        raise PreconditionError(f"config lacks required keys: {', '.join(missing)}")

    def read(key: str, convert, default=None):
        """convert(raw[key]), or default when the key is absent; every
        number of a real or complex value must be finite."""
        if key not in raw:
            return default
        try:
            return convert(raw[key])
        except _NotFinite:
            raise PreconditionError(f"config key {key!r} must be finite") from None
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"config key {key!r} is malformed: {exc}") from exc

    def nullable(convert):
        return lambda value: None if value is None else convert(value)

    params = QHeunParams(
        **{k: read(k, _real) for k in PARAM_KEYS},
        t1=read("t1", _as_complex),
        t2=read("t2", _as_complex),
        q=read("q", _real),
    )
    family = read("family", _text, "generic")
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    fmt = read("format", _text, "json")
    if fmt not in ("json", "csv"):
        raise PreconditionError(f"unknown format {fmt!r}")
    cfg = JobConfig(
        params=params,
        family=family,
        N=read("N", _integer, 0),
        solution=read("solution", nullable(_text)),
        grid_count=read("grid_count", _integer, 20),
        grid_rmin=read("grid_rmin", nullable(_real)),
        grid_rmax=read("grid_rmax", nullable(_real)),
        seed=read("seed", _integer, 0),
        fmt=fmt,
        out=read("out", nullable(_text)),
        tol=read("tol", _real, 1e-8),
        xi=read("xi", nullable(_as_complex)),
        root_index=read("root_index", _integer, 0),
        e_offset=read("e_offset", _real, 0.0),
        points=read("points", lambda values: [_as_complex(v) for v in values], []),
    )
    for key, ok, rule in (
        ("xi", cfg.xi != 0, "must be nonzero"),
        ("tol", cfg.tol > 0.0, "must be positive"),
        ("seed", cfg.seed >= 0, "must be non-negative"),
    ):
        if not ok:
            raise PreconditionError(f"config key {key!r} {rule}")
    return cfg


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
    if not cfg.out:
        print(text, end="")
        return
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _fail_config(exc)


def _fail_config(exc: Exception) -> "SystemExit":
    if isinstance(exc, PreconditionError):
        reason = f"precondition: {exc}"
    else:
        reason = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"schema": SCHEMA, "error": {"reason": reason}}))
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


def accessory(config: str, **overrides) -> None:
    """Report accessory-polynomial coefficients, roots and certificates."""
    try:
        cfg = load_config(config, **overrides)
        data = _accessory_data(FAMILIES[cfg.family].setup(cfg.params, cfg.N))
    except CONFIG_ERRORS as exc:
        raise _fail_config(exc)
    rows = [{"x": r, "residual": c, "status": "root"} for r, c in zip(data["roots"], data["certificates"])]
    _emit(cfg, "accessory", rows, accessory=data)


def eval_cmd(config: str, **overrides) -> None:
    """Evaluate one solution form on a point grid."""
    try:
        cfg = load_config(config, **overrides)
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


def verify(config: str, **overrides) -> None:
    """Residual-check every available form at every accessory root."""
    try:
        cfg = load_config(config, **overrides)
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
                    # A NaN residual meets no tolerance.
                    status="pass" if rep.max_residual < cfg.tol else "fail",
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


def selftest() -> None:
    """Run the full acceptance suite; exit 0 only if every criterion passes."""
    from . import acceptance  # the suite and its samplers, loaded by this command only

    results = acceptance.run_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    raise SystemExit(1 if failed else 0)


# --config names the config file; every other flag overrides a config key.
FLAGS = (
    ("--config", str), ("--family", str), ("--N", int), ("--solution", str),
    ("--grid-count", int), ("--grid-rmin", float), ("--grid-rmax", float),
    ("--seed", int), ("--format", str), ("--out", str), ("--tol", float),
)

COMMANDS = {  # name -> (function, its flags)
    "accessory": (accessory, FLAGS), "eval": (eval_cmd, FLAGS),
    "verify": (verify, FLAGS), "selftest": (selftest, ()),
}


@functools.cache
def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of every command, built once per program name."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        for flag, kind in flags:
            sub.add_argument(flag, type=kind, required=flag == "--config")
    return parser


def main(argv: list[str] | None = None, prog_name: str = "qheun") -> None:
    """Run one command; a malformed command line exits 2 with a usage message."""
    args = vars(_parser(prog_name).parse_args(argv))
    COMMANDS[args.pop("command")][0](**args)


if __name__ == "__main__":
    main()
