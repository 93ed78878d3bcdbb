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
from .interval import Interval, contains, convex_combo, hausdorff, hausdorff_to_zero
from .regularity import (
    RegularityReport,
    bound_l0,
    bound_sup,
    continuity_modulus,
    lipschitz_constant,
    total_variation,
)
from .rl import (
    chattering_hull,
    gamma_fn,
    quadrature_weights,
    rl_apply,
    rl_scalar,
    rl_selection_oracle,
    rl_setvalued,
    rl_weight_matrix,
)
from .selections import (
    SelectionCertificate,
    convex_combination_selection,
    extremal_selections,
    midpoint_selection,
    regular_selection,
)
from .verify import fixture_catalog, run_verification

__version__ = "0.1.0"

__all__ = [
    "CaputoProblem",
    "GridMap",
    "Interval",
    "NonConvergenceError",
    "RegularityReport",
    "Selection",
    "SelectionCertificate",
    "Trajectory",
    "bound_l0",
    "bound_sup",
    "chattering_hull",
    "contains",
    "continuity_modulus",
    "convex_combination_selection",
    "convex_combo",
    "extremal_selections",
    "fixture_catalog",
    "gamma_fn",
    "hausdorff",
    "hausdorff_to_zero",
    "lipschitz_constant",
    "midpoint_selection",
    "quadrature_weights",
    "regular_selection",
    "rl_apply",
    "rl_scalar",
    "rl_selection_oracle",
    "rl_setvalued",
    "rl_weight_matrix",
    "run_verification",
    "solution_funnel",
    "solve_with_policy",
    "total_variation",
]
