"""The library names the benchmark harness looks up still exist.

perfbench/ is not part of this suite, and a traced run only fails when
it installs its wrappers, so a rename in qheun would otherwise break
traced benchmark runs unnoticed.  The harness files are read, never
changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def family_lookups() -> list[tuple[str, str]]:
    """(module, function) of every ``_family_fn(family, what)`` in workloads.py,
    for each family of its FAMILY_MODULE."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules, whats = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FAMILY_MODULE" for t in node.targets):
            modules = {k.value: v.id for k, v in zip(node.value.keys, node.value.values)}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_family_fn":
            whats.add(node.args[1].value)
    return [(module, f"{family}_{what}") for family, module in modules.items() for what in sorted(whats)]


def test_workloads_lookups_are_found():
    found = family_lookups()
    assert {name for _, name in found} >= {
        f"family{n}_{what}" for n in (1, 2) for what in ("setup", "source_params", "seed", "bilateral")
    }


@pytest.mark.parametrize(
    "module, function",
    [*SPANS.TRACED, *SPANS.SEED_FACTORIES, *family_lookups()],
)
def test_name_resolves_in_qheun(module, function):
    assert callable(getattr(importlib.import_module(f"qheun.{module}"), function))
