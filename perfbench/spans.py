"""Span tracing of qheun's public functions, installed from outside the package.

The tracer replaces each listed function by a wrapper in every ``qheun``
module namespace that binds it (modules import with ``from .qcore import
...``, so patching the defining module alone would miss most calls), and
puts the originals back on ``restore``.  A span is (name, start, end,
parent); spans are appended to flat arrays in memory and only turned
into per-layer statistics, or written to disk, after the run.

Untraced runs never construct a Tracer, so they execute the unpatched
functions.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

# (module, function) pairs wrapped by a traced run, in reporting order.
TRACED = (
    ("qcore", "q_pochhammer_ratio"),
    ("qcore", "phi_series"),
    ("qcore", "theta"),
    ("qcore", "bilateral_sum"),
    ("qcore", "jackson_integral"),
    ("_bilateral", "weighted_bilateral"),
    ("qheun_op", "residual_report"),
    ("qheun_op", "grid_points"),
    ("accessory", "run_poly_recursion"),
    ("accessory", "accessory_poly"),
    ("accessory", "accessory_poly_expanded"),
    ("accessory", "poly_roots"),
    ("qtransform", "transform"),
    ("qtransform", "kernel_value"),
    ("qtransform", "boundary_limits"),
    ("family_one", "family1_setup"),
    ("family_one", "family1_unilateral"),
    ("family_one", "family1_bilateral"),
    ("family_two", "family2_setup"),
    ("family_two", "family2_homogeneous"),
    ("family_two", "family2_inhomogeneous_triple"),
    ("family_two", "family2_bilateral"),
    ("family_two", "g1_inhomogeneity"),
    ("family_two", "g2_inhomogeneity"),
)
# Seed callables returned by family*_seed, traced under these span names.
SEED_FACTORIES = (("family_one", "family1_seed"), ("family_two", "family2_seed"))
# The harness's own span around each in-process CLI call.
CLI_JOB = "cli.job"


def span_name(module: str, function: str) -> str:
    """Metric prefix of a traced function; names start with a letter (_bilateral -> bilateral)."""
    return f"{module.lstrip('_')}.{function}"


SPAN_NAMES = (
    tuple(span_name(m, f) for m, f in TRACED)
    + tuple(span_name(m, "seed") for m, _ in SEED_FACTORIES)
    + (CLI_JOB,)
)
COUNTERS = (
    "qcore.bilateral_sum.terms",
    "qcore.jackson_integral.integrand_calls",
    "qheun_op.residual_report.points",
    "accessory.poly_roots.roots_sought",
    "accessory.poly_roots.roots_certified",
)


class Tracer:
    """Patches the traced functions while installed and records spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.errors = Counter()
        self.counts = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Callable recording one span named ``name`` per call of fn.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, result)`` sees each successful result.
        """
        name_id = self.ids[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:  # SystemExit from a CLI call is not an error
                tracer.errors[name] += 1
                raise
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------

    def _hooks(self, name: str):
        """(before, after) hooks feeding the counters of one traced function."""
        counts = self.counts

        def count_calls_of_first_arg(counter: str):
            def before(args, kwargs):
                return (self._counted(counter, args[0]),) + args[1:], kwargs

            return before

        def points(args, report) -> None:
            counts["qheun_op.residual_report.points"] += len(report.points)

        def sought(args, kwargs):
            counts["accessory.poly_roots.roots_sought"] += args[0].degree
            return args, kwargs

        def certified(args, roots) -> None:
            counts["accessory.poly_roots.roots_certified"] += len(roots)

        return {
            "qcore.bilateral_sum": (count_calls_of_first_arg("qcore.bilateral_sum.terms"), None),
            "qcore.jackson_integral": (count_calls_of_first_arg("qcore.jackson_integral.integrand_calls"), None),
            "qheun_op.residual_report": (None, points),
            "accessory.poly_roots": (sought, certified),
        }.get(name, (None, None))

    def install(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items()) if key == "qheun" or key.startswith("qheun.")]
        replacements: dict[int, tuple[Callable, Callable]] = {}
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"qheun.{mod_name}"], fn_name)
            name = span_name(mod_name, fn_name)
            replacements[id(original)] = (original, self.wrap(name, original, *self._hooks(name)))
        for mod_name, fn_name in SEED_FACTORIES:
            original = getattr(sys.modules[f"qheun.{mod_name}"], fn_name)
            span = span_name(mod_name, "seed")
            replacements[id(original)] = (original, self._seed_factory(span, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def _seed_factory(self, span: str, factory: Callable) -> Callable:
        def traced_factory(*args, **kwargs):
            return self.wrap(span, factory(*args, **kwargs))

        traced_factory.__wrapped__ = factory
        return traced_factory

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: (calls, self seconds), indexed like SPAN_NAMES.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly (one thread), so children
        never overlap.
        """
        names = np.asarray(self.names, dtype=np.int32)
        parents = np.asarray(self.parents, dtype=np.int32)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=dur - child, minlength=k)
        return calls, selfs

    def dump(self, path) -> None:
        """Write every span (name, parent, start, end) to an .npz file."""
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.asarray(self.names, dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )
