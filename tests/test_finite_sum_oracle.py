"""Every finite-sum form against an independent 40-digit transcription.

The written-out sums below use mpmath.qhyper and mpmath.qp only, none
of qheun's series, products or tables.  Each form is evaluated at one
in-band point of an N = 3 draw with the coefficient row of its first
accessory root, and the error is bounded relative to the sum of the
absolute outer terms, which a cancelling k-sum cannot make small.
"""

import numpy as np
import pytest

from qheun.forms import FAMILIES
from qheun.sampling import random_family1_params, random_family2_params

mp = pytest.importorskip("mpmath")

N = 3
DRAWS = {"family1": random_family1_params, "family2": random_family2_params}
FORMS = {
    "family1": ["g3", "g4", "g5", "g6"],
    "family2": ["g3", "g4", "g5", "g6", "g7", "g8", "g6-g7", "g7-g8"],
}
# The worst measured ratio is 1.4e-15 (family1 g5); rounding the inputs
# to doubles alone moves a value by about 1e-16 of that scale.
REL_TOL = 1e-14


def family1_terms(st, name, x):
    """prefactor and the outer terms base**(k+shift) R_k phi_k of family-1 g3..g6, without c_k."""
    p = st.params
    q = mp.mpf(p.q)
    t1 = mp.mpc(p.t1)
    h1, l1, a1, a2, beta = (mp.mpf(v) for v in (p.h1, p.l1, p.alpha1, p.alpha2, p.beta))
    lam1, lam2 = mp.mpf(st.lambda1), mp.mpf(st.lambda2)
    small = q ** (-h1 + 0.5) * x / t1
    large = q ** (l1 + 0.5) * t1 / x
    out = []
    for k in range(N + 1):
        if name == "g3":
            scalar = (q ** (-lam1 + h1 - a1 + 0.5) * t1) ** k
            u, a, b, z = q ** (lam1 + a1), q ** (lam1 + a2 + N - k), q ** (-beta + 1 - k), small
        elif name == "g4":
            scalar = (q ** (-lam1 - a1 + 1) * x) ** k
            u, a, b, z = q ** (lam2 + a2 + N), q ** (lam2 + a1 + k), q ** (beta + k + 1), small
        elif name == "g5":
            scalar = (q ** (l1 + 0.5) * t1) ** k
            u, a, b, z = q ** (lam1 + a1), q ** (lam2 + a1 + k), q ** (a1 - a2 - N + k + 1), large
        else:
            scalar = x ** (k - N)
            u, a, b, z = q ** (lam2 + a2 + N), q ** (lam1 + a2 + N - k), q ** (-a1 + a2 + 1 + N - k), large
        out.append(scalar * mp.qp(b, q) / mp.qp(a, q) * mp.qhyper([u, a], [b], q, z))
    power = {"g3": lam1, "g4": lam2, "g5": -a1, "g6": -a2}[name]
    return x**power, out


def family2_terms(st, name, x):
    """prefactor and the outer terms base**(k+shift) phi_k of family-2 g3..g8, without c_k."""
    p = st.params
    q = mp.mpf(p.q)
    t = {1: mp.mpc(p.t1), 2: mp.mpc(p.t2)}
    h = {1: mp.mpf(p.h1), 2: mp.mpf(p.h2)}
    l = {1: mp.mpf(p.l1), 2: mp.mpf(p.l2)}
    a1, a2, lam = mp.mpf(p.alpha1), mp.mpf(p.alpha2), mp.mpf(st.lambda1)

    def products(num, den):
        value = mp.mpc(1)
        for v in num:
            value *= mp.qp(v, q)
        for v in den:
            value /= mp.qp(v, q)
        return value

    if name in ("g3", "g4"):
        i, j = (1, 2) if name == "g3" else (2, 1)
        ups = {
            1: q ** (lam - h[i] + l[1] + a1) * t[1] / t[i],
            2: q ** (lam - h[i] + l[2] + a1) * t[2] / t[i],
        }
        upper = [ups[1], ups[2], q ** (-h[i] + 0.5) * x / t[i]]
        lower = [q ** (-h[i] + h[j] + 1) * t[j] / t[i], q ** (lam - h[i] + a1 + 0.5) * x / t[i]]
        base, shift = q ** (-lam + h[i] - a1 + 0.5) * t[i], 0
        pref = x**lam * products(lower[1:], upper[2:])
    elif name == "g5":
        upper = [q ** (l[1] + 0.5) * t[1] / x, q ** (l[2] + 0.5) * t[2] / x, q ** (-lam - a1 + 1)]
        lower = [q ** (-lam + h[i] - a1 + 1.5) * t[i] / x for i in (1, 2)]
        base, shift = x, -N
        pref = x ** (-a2) * products(lower, upper[:2])
    elif name in ("g6", "g7"):
        i, j = (1, 2) if name == "g6" else (2, 1)
        upper = [
            q ** (lam - h[1] + l[i] + a1) * t[i] / t[1],
            q ** (lam - h[2] + l[i] + a1) * t[i] / t[2],
            q ** (l[i] + 0.5) * t[i] / x,
        ]
        lower = [q ** (l[i] - l[j] + 1) * t[i] / t[j], q ** (lam + l[i] + a1 + 0.5) * t[i] / x]
        base, shift = q ** (l[i] + 0.5) * t[i], 1
        pref = (1 - q) * x ** (-a1) * products([q] + lower, upper)
    else:
        upper = [q ** (-lam - a1 + 1)] + [q ** (-h[i] + 0.5) * x / t[i] for i in (1, 2)]
        lower = [q ** (-lam - l[i] - a1 + 1.5) * x / t[i] for i in (1, 2)]
        base, shift = q ** (-lam - a1 + 1) * x, 1
        pref = (1 - q) * x ** (-a1) * products([q] + lower, upper)
    if name in ("g3", "g4", "g5"):
        zs = [q ** (lam + a2 + N - k) for k in range(N + 1)]
    else:
        zs = [q ** (k + 1) for k in range(N + 1)]
    return pref, [base ** (k + shift) * mp.qhyper(upper, lower, q, z) for k, z in enumerate(zs)]


def oracle(family, st, name, row, x):
    """(value, sum of |pref c_k term_k|) of the form, a difference as the sum of its members."""
    if "-" in name:
        (va, sa), (vb, sb) = (oracle(family, st, m, row, x) for m in name.split("-"))
        return va - vb, sa + sb
    terms = family1_terms if family == "family1" else family2_terms
    pref, outer = terms(st, name, mp.mpc(x))
    parts = [pref * mp.mpc(c) * v for c, v in zip(row, outer)]
    return sum(parts), sum(abs(v) for v in parts)


def cases():
    for family, names in FORMS.items():
        st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(41), N), N)
        for name in names:
            yield pytest.param(family, st, name, id=f"{family}-{name}")


@pytest.mark.parametrize("family, st, name", cases())
def test_form_matches_the_written_out_sum(family, st, name):
    form = FAMILIES[family].form(name)
    row = st.root_coeffs[st.roots[0]]
    (x,) = form.grid(st, None, 1, seed=5)
    (got,) = form.kernel(st, [row], None, x)
    with mp.workdps(40):
        want, scale = oracle(family, st, name, row, x)
        assert abs(mp.mpc(got) - want) <= REL_TOL * scale
