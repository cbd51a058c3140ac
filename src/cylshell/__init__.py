"""Buckling of axially compressed cylindrical shells.

Computes classical buckling loads and modes of thin cylindrical shells from
the constitutively linearized stability problem, and numerically verifies the
scaling laws that govern them: Korn constants on thin domains, gradient
component bounds, bending-ansatz asymptotics, and the rectangle inequalities
the Korn estimates rest on.
"""

from cylshell.material import (
    Material,
    ShellGeometry,
    TrivialBranch,
    derive_material,
    solve_trivial_branch,
    perfect_stress,
    shear_imperfection,
    hoop_imperfection,
)
from cylshell.fields import (
    DisplacementField,
    Grid,
    volume_grid,
    gradient,
    strain,
    functionals,
    functional_family,
)
from cylshell.koiter import (
    reduced_forms,
    optimal_tangential,
    lambda_star,
    minimize_load,
    koiter_circle_n,
    max_circle_m,
    buckling_mode,
)
from cylshell.korn import korn_constant, component_bound
from cylshell.ansatz import (
    BumpProfile,
    build_ansatz,
    verify_limits,
    component_scalings,
    compressiveness_scaling,
)
from cylshell.fixedbc import fixedbc_mode, fixedbc_limit, classical_ratio
from cylshell.rect import (
    PlanarField,
    check_basic_inequality,
    harmonic_lemma_check,
    harmonic_projection,
    check_periodic_inequalities,
)
from cylshell.scaling import ScalingFit, fit_exponent

__all__ = [
    "korn_constant",
    "component_bound",
    "BumpProfile",
    "build_ansatz",
    "verify_limits",
    "component_scalings",
    "compressiveness_scaling",
    "fixedbc_mode",
    "fixedbc_limit",
    "classical_ratio",
    "PlanarField",
    "check_basic_inequality",
    "harmonic_lemma_check",
    "harmonic_projection",
    "check_periodic_inequalities",
    "Material",
    "ShellGeometry",
    "TrivialBranch",
    "derive_material",
    "solve_trivial_branch",
    "perfect_stress",
    "shear_imperfection",
    "hoop_imperfection",
    "DisplacementField",
    "Grid",
    "volume_grid",
    "gradient",
    "strain",
    "functionals",
    "functional_family",
    "reduced_forms",
    "optimal_tangential",
    "lambda_star",
    "minimize_load",
    "koiter_circle_n",
    "max_circle_m",
    "buckling_mode",
    "ScalingFit",
    "fit_exponent",
]

__version__ = "0.1.0"
