#!/usr/bin/env python3
"""Where each solution form fails, over N and the base q.

    PYTHONPATH=src python scripts/envelope.py [--family family2] [--N 12] [--q 0.5]

A cell is one (family, N, q).  Its draws come from
``default_rng([2026, N, len(family)])``, ``len(family)`` being the
length of the family's name, through the family's sampler, with q then
replaced: 10 draws at N <= 8 and 4 above.  Each draw checks every form
at every accessory root on a 4-point grid in the form's default band,
seeded by the draw's index, with the anchor xi = 0.8 |t1| e^{0.3i} and tolerance 1e-8.  A check
fails where its residual misses the tolerance or its evaluation raises;
a setup that raises fails every check of its draw.

Prints one line per cell: failing/attempted checks, the worst passing
residual and the failing forms with their counts.  Without --family,
--N and --q it prints the cells of the envelope table in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np

from qheun.errors import QHeunError
from qheun.forms import FAMILIES
from qheun.sampling import random_family1_params, random_family2_params

DRAWS = {"family1": random_family1_params, "family2": random_family2_params}
POINTS = 4
TOL = 1e-8
TABLE = [  # (family, N, q) of the ROADMAP envelope table
    *(("family1", 4, q) for q in (0.1, 0.5, 0.9, 0.95)),
    *(("family1", 8, q) for q in (0.1, 0.5, 0.9, 0.95)),
    *(("family1", N, q) for N in (12, 16) for q in (0.5, 0.7)),
    *(("family2", 4, q) for q in (0.1, 0.5, 0.9, 0.95)),
    *(("family2", 8, q) for q in (0.1, 0.5, 0.9, 0.95)),
    *(("family2", N, q) for N in (12, 16) for q in (0.5, 0.7)),
]


def cell(family: str, N: int, q: float) -> tuple[int, int, float, Counter]:
    """(failing, attempted, worst passing residual, failing form -> count) of one cell."""
    rng = np.random.default_rng([2026, N, len(family)])
    forms = FAMILIES[family].forms
    failing, attempted, worst, failed = 0, 0, 0.0, Counter()
    for index in range(10 if N <= 8 else 4):
        p = replace(DRAWS[family](rng, N), q=q)
        attempted += len(forms) * (N + 1)
        try:
            st = FAMILIES[family].setup(p, N)
        except QHeunError as exc:
            failing += len(forms) * (N + 1)
            failed[f"setup:{type(exc).__name__}"] += len(forms) * (N + 1)
            continue
        xi = 0.8 * abs(p.t1) * cmath.exp(0.3j)
        for form in forms:
            try:
                reports = form.root_residuals(st, st.roots, xi, form.grid(st, xi, POINTS, index))
            except QHeunError:
                reports = [None] * len(st.roots)
            for rep in reports:
                if isinstance(rep, (QHeunError, type(None))) or not rep.max_residual < TOL:
                    failing += 1
                    failed[form.name] += 1
                else:
                    worst = max(worst, rep.max_residual)
    return failing, attempted, worst, failed


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=sorted(DRAWS), nargs="+")
    ap.add_argument("--N", type=int, nargs="+")
    ap.add_argument("--q", type=float, nargs="+")
    args = ap.parse_args(argv)
    given = (args.family, args.N, args.q)
    if any(v is None for v in given) and any(v is not None for v in given):
        ap.error("give all of --family, --N and --q, or none")
    cells = TABLE if args.family is None else list(itertools.product(*given))
    for family, N, q in cells:
        failing, attempted, worst, failed = cell(family, N, q)
        forms = ", ".join(f"{name} {count}" for name, count in failed.items()) or "-"
        print(f"{family} N={N} q={q:g}  {failing}/{attempted}  worst passing {worst:.2g}  failing: {forms}")


if __name__ == "__main__":
    main()
