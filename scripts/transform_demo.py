#!/usr/bin/env python3
"""Build a finite-sum solution two ways and print the agreement.

Route one evaluates the explicit two-sided series; route two pushes the
gauge-transformed polynomial seed through the Jackson-integral kernel.
The two columns should agree to near machine precision, and the
residual column certifies that the result actually solves the target
equation.
"""

import argparse

import numpy as np

from qheun.accessory import one_root
from qheun.family_one import family1_seed, family1_source_params
from qheun.forms import FAMILIES
from qheun.qtransform import TransformSpec, transform
from qheun.sampling import random_family1_params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--points", type=int, default=6)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    p = random_family1_params(rng, args.N)
    st = FAMILIES["family1"].setup(p, args.N)
    E0 = st.roots[0]
    src = family1_source_params(st)
    xi = 0.9 * abs(p.t1)
    seed_fn = family1_seed(st, "h1", E0)
    spec = TransformSpec(source=src, mu0=0.0, xi=xi, kernel="P1", alpha1=p.alpha1)
    form = FAMILIES["family1"].form("g1")
    g1 = form.solution(st, E0, xi)

    print(f"# N = {args.N}, q = {p.q:.4f}, accessory root E0 = {E0:.6g}")
    print(f"{'x':>10} {'|series|':>14} {'|transform|':>14} {'rel diff':>10} {'residual':>10}")
    for k in range(args.points):
        x = xi * p.q ** (-(0.53 + 0.61 * k))
        series = g1(x)
        integral = transform(spec, seed_fn, E0, x)
        rep = one_root(form.root_residuals(st, [E0], xi, [x]))
        print(
            f"{x:10.4f} {abs(series):14.8g} {abs(integral):14.8g} "
            f"{abs(series - integral) / abs(series):10.2e} {rep.max_residual:10.2e}"
        )


if __name__ == "__main__":
    main()
