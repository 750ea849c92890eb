#!/usr/bin/env python3
"""Sweep the base q and track the accessory roots of a beta = N+1 setup.

Prints one CSV row per (q, root): how the eigenvalues admitting finite
q-hypergeometric solutions move as the deformation parameter varies.
"""

import argparse
import csv
import sys

from qheun.accessory import coeff_gap
from qheun.forms import FAMILIES
from qheun.qheun_op import QHeunParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=2)
    ap.add_argument("--q-min", type=float, default=0.3)
    ap.add_argument("--q-max", type=float, default=0.7)
    ap.add_argument("--steps", type=int, default=21)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(["q", "root_index", "E_re", "E_im", "coeff_gap"])
    for i in range(args.steps):
        q = args.q_min + (args.q_max - args.q_min) * i / (args.steps - 1)
        p = QHeunParams(
            h1=0.9, h2=0.4, l1=-0.3, l2=0.2,
            alpha1=0.7, alpha2=-0.2, beta=args.N + 1.0,
            t1=1.0 + 0.4j, t2=0.8 - 0.9j, q=q,
        )
        st = FAMILIES["family2"].setup(p, args.N)
        # Agreement gap between the two accessory routes, as a sanity column.
        gap = coeff_gap(st.accessory, st.d_poly)
        for j, root in enumerate(st.roots):
            writer.writerow([f"{q:.4f}", j, f"{root.real:.12g}", f"{root.imag:.12g}", f"{gap:.3e}"])


if __name__ == "__main__":
    main()
