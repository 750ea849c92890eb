"""Float errors leave the library typed, and only through errors.typed.

Each entry point typed by errors.typed, given extreme finite input,
raises a DomainError caused by the float error and naming where it
happened; the float kernels raise the raw error by contract.
"""

import cmath
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qheun.accessory import (
    accessory_poly,
    accessory_poly_expanded,
    apparent_singularity_check,
    recurrence_coeffs,
    series_coefficients,
)
from qheun.errors import DomainError, QHeunError
from qheun.family_one import family1_seed, family1_source_params
from qheun.family_two import Family2Setup, family2_seed, family2_source_params
from qheun.forms import FAMILIES
from qheun.qcore import jackson_integral, phi_series, q_pochhammer, q_pochhammer_ratio, theta
from qheun.qheun_op import QHeunParams
from qheun.qtransform import TransformSpec, boundary_limits, kernel_value, transform
from qheun.sampling import random_admissible_params, random_family1_params, random_family2_params


def params(**kw) -> QHeunParams:
    """The params helper of test_accessory.py."""
    base = dict(h1=0.0, h2=0.0, l1=0.0, l2=0.0, alpha1=0.0, alpha2=0.0, beta=2.0, t1=1.0, t2=1.0, q=0.5)
    base.update(kw)
    return QHeunParams(**base)


@pytest.fixture(scope="module")
def draws() -> dict:
    """The N = 2 draws of test_cli.py's TestExtremeInputs, with the family setups."""
    rng = np.random.default_rng(7)
    f1, f2, g = [draw(rng, 2) for draw in (random_family1_params, random_family2_params, random_admissible_params)]
    return {
        "family1": f1, "family2": f2, "generic": g,
        "s1": FAMILIES["family1"].setup(f1, 2), "s2": FAMILIES["family2"].setup(f2, 2),
    }


def jackson(st, kernel: str, xi: complex) -> tuple:
    """(spec, h): st's kernel transform anchored at xi and the seed it takes, at st's first root."""
    two = isinstance(st, Family2Setup)
    source, seed = (family2_source_params, family2_seed) if two else (family1_source_params, family1_seed)
    spec = TransformSpec(source=source(st), mu0=0.0, xi=xi, kernel=kernel, alpha1=st.params.alpha1)
    return spec, seed(st, {"P1": "h1", "P2": "h2"}[kernel], st.roots[0])


# (entry point, call on the draws, the start of its message)
TYPED = [
    (
        "Family.setup", lambda d: FAMILIES["generic"].setup(replace(d["generic"], q=1e-80), 2),
        "OverflowError in setup at q = 1e-80, N = 2: ",
    ),
    (
        "Form.grid",
        lambda d: FAMILIES["family1"].form("g5").grid(FAMILIES["family1"].setup(replace(d["family1"], q=1e-40), 2), None, 3, 0),
        "OverflowError in the g5 grid at q = 1e-40: ",
    ),
    (
        "q_pochhammer", lambda d: q_pochhammer(1.5e308 + 1.5e308j, 0.9, -1),
        "OverflowError in (a; q)_n at a = (1.5e+308+1.5e+308j), n = -1: ",
    ),
    ("phi_series", lambda d: phi_series([1e6, 1e6], [0.5], 0.9, 0.5), "OverflowError in phi_series at z = 0.5: "),
    ("jackson_integral", lambda d: jackson_integral(lambda s: cmath.exp(1 / s), 1.0, 0.5), "OverflowError at xi = 1.0: "),
    (
        "kernel_value", lambda d: kernel_value(jackson(d["s2"], "P2", 1.0)[0], 1e300, 1.0),
        "OverflowError at x = (1e+300+0j), s = (1+0j): ",
    ),
    ("boundary_limits", lambda d: boundary_limits(*jackson(d["s1"], "P1", 1e300)), "OverflowError at xi = (1e+300+0j): "),
    (
        "transform", lambda d: transform(*jackson(d["s2"], "P2", 1.0), d["s2"].roots[0], 1e-300),
        "OverflowError at x = (1e-300+0j): ",
    ),
    (
        "accessory_poly", lambda d: accessory_poly(params(beta=1.0, q=0.02), 200),
        "OverflowError in the accessory polynomial at q = 0.02, N = 200: ",
    ),
    (
        "accessory_poly_expanded", lambda d: accessory_poly_expanded(replace(d["generic"], q=1e-80), 2),
        "OverflowError in the expanded accessory polynomial at q = 1e-80, N = 2: ",
    ),
    (
        "series_coefficients", lambda d: series_coefficients(params(beta=0.5, q=0.02), 1.0, 200),
        "OverflowError in the local series at q = 0.02, E = 1.0, M = 200: ",
    ),
    (
        # The overflow comes from the local series the check runs first.
        "apparent_singularity_check", lambda d: apparent_singularity_check(params(beta=201.0, q=0.02), 1.0, 200),
        "OverflowError in the local series at q = 0.02, E = 1.0, M = 200: ",
    ),
]

# Float kernels left undecorated, each with the reason: they raise the raw
# error, and every caller types it with the context it alone knows.
RAW_KERNELS = {
    "recurrence_coeffs": (
        recurrence_coeffs, lambda: recurrence_coeffs(params(beta=1.0, q=0.02), 201),
        "its callers name the setup or the polynomial, q and N; typed here it would name only the index",
    ),
    "q_pochhammer_ratio": (
        q_pochhammer_ratio, lambda: q_pochhammer_ratio([1e300], [], 0.5),
        "the products of every series, seed and kernel; their callers name the point or the anchor",
    ),
    "theta": (
        theta, lambda: theta(1e300, 0.5),
        "a q_pochhammer_ratio call; its callers (boundary terms, g2's defect) name the point",
    ),
}


@pytest.mark.parametrize("name, call, message", TYPED, ids=[case[0] for case in TYPED])
def test_extreme_input_raises_only_a_typed_error(draws, name, call, message):
    with pytest.raises(QHeunError) as err:
        call(draws)
    assert type(err.value) is DomainError
    assert str(err.value).startswith(message)
    assert isinstance(err.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("name", RAW_KERNELS)
def test_a_float_kernel_raises_the_raw_error(name):
    kernel, call, _ = RAW_KERNELS[name]
    assert not hasattr(kernel, "__wrapped__"), f"{name} is decorated"
    with pytest.raises(OverflowError) as err:
        call()
    assert not isinstance(err.value, QHeunError)


def test_only_errors_py_catches_float_errors():
    package = Path(__file__).resolve().parents[1] / "src" / "qheun"
    catching = sorted(
        path.name for path in package.glob("*.py") if re.search(r"except ArithmeticError|out_of_range\(", path.read_text())
    )
    assert catching == ["errors.py"]


# A Python int that no float, and so no complex, can hold: complex() refuses it with an OverflowError.
HUGE = 10**400


def test_a_number_complex_cannot_take_leaves_typed(draws):
    # The where rules show such a point as given instead of raising again
    # inside the handler.
    st = draws["s1"]
    form = FAMILIES["family1"].form("g3")
    with pytest.raises(DomainError, match=rf"^OverflowError at x = {HUGE}: "):
        form.solution(st, st.roots[0], None)(HUGE)
    reports = form.root_residuals(st, st.roots, None, [HUGE])
    assert all(type(rep) is DomainError and rep.point == HUGE for rep in reports)
    spec, h = jackson(st, "P1", 1.0)
    with pytest.raises(DomainError, match=rf"^OverflowError at x = {HUGE}, s = \(1\+0j\): "):
        kernel_value(spec, HUGE, 1.0)
    with pytest.raises(DomainError, match=rf"^OverflowError at x = {HUGE}: "):
        transform(spec, h, st.roots[0], HUGE)
    with pytest.raises(DomainError, match=rf"^OverflowError at xi = {HUGE}: "):
        boundary_limits(*jackson(st, "P1", HUGE))
