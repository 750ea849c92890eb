"""Every public function of the package has a caller outside the tests,
and every defaulted parameter of one is set by such a caller.

A public top-level function of src/qheun is live when the program
reaches it: the scripts or the benchmark harness name it (a call, an
import or a traced-name string), or a live function or a statement of
a module other than a def or an import (a class, a registry, a table
such as the CLI's COMMANDS) names it.  Anything else is on ALLOWED with the reason it is kept.

A defaulted parameter is a knob a caller can turn.  One that no call in
src/, scripts/ or perfbench/ sets, by keyword or by position, holds one
value for the whole program and belongs in a module constant; anything
else is on KNOBS_ALLOWED with the reason it is kept.  The scans read the
files with ``ast`` and import nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qheun"
CALLERS = ("scripts", "perfbench")

# Public functions that only tests call, each with the reason it stays.
ALLOWED = {
    "hahn_coefficients": "reference transcription of the cleared equation that tests check the stencil against",
    "hahn_combination": "left side of the cleared equation, the tests' oracle for the operator",
    "param_map": "forward parameter map that tests check source_system against",
    "polynomial_solution": "public entry to one polynomial-type solution, with its accessory polynomial built",
}

# Defaulted parameters that no program caller sets, each with the reason it stays.
KNOBS_ALLOWED = {
    "residual_report(inhomogeneity)": "the benchmark traces residual_report, whose callers may pass T of Op g = E g + T",
    "source_system(alpha1_source)": "the free source exponent of the paper's transform, which tests vary",
    "random_admissible_params(which_alpha)": "selects which exponent relation a test draw satisfies",
}


def names(node: ast.AST) -> set[str]:
    """Every identifier, attribute, imported name and string constant under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def scan() -> tuple[dict[str, str], set[str]]:
    """(public function -> its module, names the program reaches)."""
    public: dict[str, str] = {}
    bodies: dict[str, list[ast.FunctionDef]] = {}
    live: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not callers
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public[node.name] = path.stem
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):  # an import alone is no call
                live |= names(node)
    for folder in CALLERS:
        for path in sorted((ROOT / folder).glob("*.py")):
            live |= names(ast.parse(path.read_text()))
    todo = list(live)
    while todo:
        for fn in bodies.get(todo.pop(), ()):
            new = names(fn) - live
            live |= new
            todo.extend(new)
    return public, live


PUBLIC, LIVE = scan()


def test_scan_sees_the_package():
    assert {"phi_series", "family1_setup", "residual_reports", "transform", "eval_cmd", "selftest"} <= LIVE
    assert PUBLIC["phi_series"] == "qcore"


def test_every_public_function_is_called_or_allowed():
    dead = sorted(f"{PUBLIC[name]}.{name}" for name in PUBLIC if name not in LIVE and name not in ALLOWED)
    assert dead == [], f"only tests call {dead}: delete them, or add them to ALLOWED with a reason"


def test_allowlist_is_current():
    # An entry that no longer exists, or that the program now calls, goes.
    assert sorted(name for name in ALLOWED if name not in PUBLIC or name in LIVE) == []


def unset_defaults() -> list[str]:
    """"function(parameter)" for each defaulted parameter of a public
    function that no call in the program sets."""
    params: dict[str, list[str]] = {}  # public function -> positional parameters
    defaulted: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [arg.arg for arg in a.posonlyargs + a.args]
                params[node.name] = positional
                defaulted |= {(node.name, name) for name in positional[len(positional) - len(a.defaults):]}
                defaulted |= {(node.name, k.arg) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    program = sorted(PACKAGE.glob("*.py")) + [p for folder in CALLERS for p in sorted((ROOT / folder).glob("*.py"))]
    set_by_program: set[tuple[str, str]] = set()
    for path in program:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name not in params:
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
                set_by_program |= {key for key in defaulted if key[0] == name}  # *args or **kwargs may set any
                continue
            set_by_program |= {(name, p) for p in params[name][: len(call.args)]}
            set_by_program |= {(name, k.arg) for k in call.keywords}
    return sorted(f"{fn}({p})" for fn, p in defaulted - set_by_program)


UNSET = unset_defaults()


def test_every_default_is_set_by_the_program_or_allowed():
    knobs = [knob for knob in UNSET if knob not in KNOBS_ALLOWED]
    assert knobs == [], f"no program caller sets {knobs}: make them constants, or add them to KNOBS_ALLOWED with a reason"


def test_knob_allowlist_is_current():
    assert sorted(knob for knob in KNOBS_ALLOWED if knob not in UNSET) == []
