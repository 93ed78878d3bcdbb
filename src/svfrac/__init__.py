"""Fractional integration of interval-valued maps: Riemann-Liouville integral
via selections, Hausdorff-metric regularity verification, and Caputo
differential inclusion solving."""

from .gridmap import GridMap, Selection
from .inclusion import (
    CaputoProblem,
    NonConvergenceError,
    Trajectory,
    solution_funnel,
    solve_with_policy,
)
from .interval import Interval, hausdorff
from .regularity import (
    RegularityReport,
    bound_l0,
    bound_sup,
    continuity_modulus,
    lipschitz_constant,
    total_variation,
)
from .rl import RLOperator, gamma_fn, quadrature_weights, rl_setvalued
from .selections import (
    SelectionCertificate,
    extremal_selections,
    midpoint_selection,
)
from .verify import fixture_catalog, run_verification

__version__ = "0.1.0"

__all__ = [
    "CaputoProblem",
    "GridMap",
    "Interval",
    "NonConvergenceError",
    "RLOperator",
    "RegularityReport",
    "Selection",
    "SelectionCertificate",
    "Trajectory",
    "bound_l0",
    "bound_sup",
    "continuity_modulus",
    "extremal_selections",
    "fixture_catalog",
    "gamma_fn",
    "hausdorff",
    "lipschitz_constant",
    "midpoint_selection",
    "quadrature_weights",
    "rl_setvalued",
    "run_verification",
    "solution_funnel",
    "solve_with_policy",
    "total_variation",
]
