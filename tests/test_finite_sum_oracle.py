"""Every family form against an independent 40-digit transcription.

The written-out sums below use mpmath.qhyper and mpmath.qp only, none
of qheun's series, products, tables or walks.  Each finite-sum form is
evaluated at one in-band point of a draw at each N of FINITE_NS with
the coefficient row of its first accessory root, the bilateral forms
g1/g2 at BILATERAL_POINTS grid points of an N = 3 draw with the anchor
0.8 |t1|, and the error is bounded relative to the sum of the absolute
terms, which a cancelling sum cannot make small.  The transcriptions
read N from the setup, so an index N - k cannot pass for 3 - k.
"""

import numpy as np
import pytest

from qheun.forms import FAMILIES
from qheun.sampling import random_family1_params, random_family2_params

mp = pytest.importorskip("mpmath")

N = 3
# The finite-sum cases at N keep the ids without an N suffix.
FINITE_NS = (N, 1, 6)
DRAWS = {"family1": random_family1_params, "family2": random_family2_params}
FORMS = {
    "family1": ["g3", "g4", "g5", "g6"],
    "family2": ["g3", "g4", "g5", "g6", "g7", "g8", "g6-g7", "g7-g8"],
}
# The worst measured ratio is 2.6e-15 (family2 g5, N = 1); rounding the
# inputs to doubles alone moves a value by about 1e-16 of that scale.
REL_TOL = 1e-14


def family1_terms(st, name, x):
    """prefactor and the outer terms base**(k+shift) R_k phi_k of family-1 g3..g6, without c_k."""
    p, N = st.params, st.N
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
    p, N = st.params, st.N
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
    for n in FINITE_NS:
        for family, names in FORMS.items():
            st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(41), n), n)
            for name in names:
                yield pytest.param(family, st, name, id=f"{family}-{name}" + ("" if n == N else f"-N{n}"))


@pytest.mark.parametrize("family, st, name", cases())
def test_form_matches_the_written_out_sum(family, st, name):
    form = FAMILIES[family].form(name)
    row = st.root_coeffs[st.roots[0]]
    (x,) = form.grid(st, None, 1, seed=5)
    (got,) = form.evaluator(st, None, [row])([0], x)
    with mp.workdps(40):
        want, scale = oracle(family, st, name, row, x)
        assert abs(mp.mpc(got) - want) <= REL_TOL * scale


# The worst measured ratio is 1.1e-15 (family2 g2), over 12 points.
BILATERAL_TOL = 4e-15
BILATERAL_POINTS = 3


def bilateral_oracle(family, st, name, row, xi, x):
    """(value, sum of |terms|) of g1/g2 at (xi, x): (1 - q) x**power times

        sum_n  prod_j (v_j q^n; q)_inf / prod_i (u_i q^n; q)_inf * sum_k c_k xi**a_k q**(n b_k).

    The products are formed with mpmath.qp at n = 0 and stepped by
    (a q^n; q)_inf = (1 - a q^n) (a q^(n+1); q)_inf; each side stops once
    5 consecutive terms fall below 1e-45 of its partial sum.
    """
    p = st.params
    q = mp.mpf(p.q)
    a1, a2, beta, lam = (mp.mpf(v) for v in (p.alpha1, p.alpha2, p.beta, st.lambda1))
    xi, x = mp.mpc(xi), mp.mpc(x)
    pairs = [(mp.mpf(p.h1), mp.mpf(p.l1), mp.mpc(p.t1)), (mp.mpf(p.h2), mp.mpf(p.l2), mp.mpc(p.t2))]
    pairs = pairs[:1] if family == "family1" else pairs
    ks = range(st.N + 1)
    if name == "g1":
        e = lam + a1 + beta if family == "family1" else mp.mpf(1)
        u = [q ** (lam - h + a1 - 0.5) * xi / t for h, _, t in pairs] + [xi / x]
        v = [q ** (0.5 - l) * xi / t for _, l, t in pairs] + [q ** (lam + a1) * xi / x]
        a = b = [e + k for k in ks]
        power = -a1
    else:
        u = [q ** (l + 0.5) * t / xi for _, l, t in pairs] + [q ** (1 - lam - a1) * x / xi]
        v = [q ** (h - lam - a1 + 1.5) * t / xi for h, _, t in pairs] + [q * x / xi]
        a = [k - lam - a2 - st.N for k in ks]
        b = [lam + a2 + st.N - k for k in ks]
        power = lam
    pref = (1 - q) * x**power
    weights = [pref * mp.mpc(c) * xi**ak for c, ak in zip(row, a)]
    rates = [q**bk for bk in b]
    start = mp.fprod(mp.qp(c, q) for c in v) / mp.fprod(mp.qp(c, q) for c in u)

    def step(n, V, powers, d):
        """n + d with V and the powers there, from their values at n."""
        if d > 0:
            qn = q**n
            V *= mp.fprod(1 - c * qn for c in u) / mp.fprod(1 - c * qn for c in v)
            return n + 1, V, [w * r for w, r in zip(powers, rates)]
        qn = q ** (n - 1)
        V *= mp.fprod(1 - c * qn for c in v) / mp.fprod(1 - c * qn for c in u)
        return n - 1, V, [w / r for w, r in zip(powers, rates)]

    value, scale, tiny = 0, 0, mp.mpf(10) ** -45
    for d in (1, -1):
        n, V, powers, partial, quiet = 0, start, weights, 0, 0
        if d < 0:
            n, V, powers = step(n, V, powers, d)
        while quiet < 5:
            parts = [V * w for w in powers]
            term = mp.fsum(parts)
            partial += term
            scale += mp.fsum(abs(t) for t in parts)
            quiet = quiet + 1 if abs(term) < tiny * abs(partial) else 0
            n, V, powers = step(n, V, powers, d)
            assert abs(n) < 20000, "oracle sum does not settle"
        value += partial
    return value, scale


def bilateral_cases():
    for family in FORMS:
        st = FAMILIES[family].setup(DRAWS[family](np.random.default_rng(41), N), N)
        for name in ("g1", "g2"):
            yield pytest.param(family, st, name, id=f"{family}-{name}")


@pytest.mark.parametrize("family, st, name", bilateral_cases())
def test_bilateral_form_matches_the_written_out_sum(family, st, name):
    form = FAMILIES[family].form(name)
    row = st.root_coeffs[st.roots[0]]
    xi = 0.8 * abs(st.params.t1)
    at = form.evaluator(st, xi, [row])
    for x in form.grid(st, xi, BILATERAL_POINTS, seed=5):
        (got,) = at([0], x)
        with mp.workdps(40):
            want, scale = bilateral_oracle(family, st, name, row, xi, x)
            assert abs(mp.mpc(got) - want) <= BILATERAL_TOL * scale
