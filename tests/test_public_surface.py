"""Every public function of the package has a caller outside the tests.

A public top-level function of src/qheun is live when the program
reaches it: the scripts or the benchmark harness name it (a call, an
import or a traced-name string), a click command is it, or a live
function or a statement of a module other than a def or an import (a
class, a registry, a table) names it.  Anything else is on ALLOWED with the reason it is kept.  The
scan reads the files with ``ast`` and imports nothing.
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


def is_command(fn: ast.FunctionDef) -> bool:
    """Registered with click: decorated by ``<group>.command(...)`` or ``click.group(...)``."""
    for dec in fn.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in ("command", "group"):
            return True
    return False


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
                if is_command(node):
                    live.add(node.name)
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
    assert {"phi_series", "family1_setup", "residual_reports", "transform"} <= LIVE
    assert PUBLIC["phi_series"] == "qcore"


def test_every_public_function_is_called_or_allowed():
    dead = sorted(f"{PUBLIC[name]}.{name}" for name in PUBLIC if name not in LIVE and name not in ALLOWED)
    assert dead == [], f"only tests call {dead}: delete them, or add them to ALLOWED with a reason"


def test_allowlist_is_current():
    # An entry that no longer exists, or that the program now calls, goes.
    assert sorted(name for name in ALLOWED if name not in PUBLIC or name in LIVE) == []
