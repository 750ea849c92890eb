"""Numerical toolkit for special solutions of the q-Heun equation."""

from .errors import (
    ConvergenceError,
    ConvergenceHypothesisWarning,
    DegenerateRecurrence,
    DomainError,
    NoConvergence,
    NoLimit,
    NotARoot,
    PoleError,
    PreconditionError,
    QHeunError,
)
from .qcore import (
    bilateral_sum,
    jackson_integral,
    phi_series,
    q_pochhammer,
    q_pochhammer_ratio,
    theta,
)
from .qheun_op import (
    HahnCoefficients,
    QHeunParams,
    ResidualReport,
    hahn_coefficients,
    residual_report,
)
from .accessory import (
    Poly,
    RecurrenceCoeffs,
    SeriesSolution,
    accessory_poly,
    accessory_poly_expanded,
    apparent_singularity_check,
    exponent_at_origin,
    poly_roots,
    polynomial_solution,
    recurrence_coeffs,
)
from .qtransform import (
    Seed,
    TransformResult,
    TransformSpec,
    boundary_limits,
    boundary_terms,
    kernel_value,
    param_map,
    source_system,
    transform,
)
from .family_one import Family1Setup, family1_bilateral, family1_setup, family1_unilateral
from .family_two import (
    Family2Setup,
    apparent_equivalence,
    family2_bilateral,
    family2_homogeneous,
    family2_inhomogeneous_triple,
    family2_setup,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
