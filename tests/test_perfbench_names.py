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


def binding_reads() -> list[tuple[str, str]]:
    """(module, name) of every ``before[("qheun.<module>", "<name>")]`` in
    test_perfbench.py: a module binding its tracing test reads."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "before":
            key = node.slice
            if isinstance(key, ast.Tuple) and all(isinstance(e, ast.Constant) for e in key.elts):
                module, name = (e.value for e in key.elts)
                found.append((module, name))
    return found


def test_binding_reads_are_found():
    assert ("qheun.family_one", "q_pochhammer_ratio") in binding_reads()


@pytest.mark.parametrize("module, name", binding_reads())
def test_binding_read_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
