"""Fractional integration of interval-valued maps: Riemann-Liouville integral
via selections, Hausdorff-metric regularity verification, and Caputo
differential inclusion solving.

The public names and the submodules load on first access (PEP 562), so that
importing the package alone loads no numpy: `python -m svfrac.cli`, as the
`svfrac` script (console_script), runs the command line's module before
numpy starts, and that module loads only the modules of its command."""

import importlib

__version__ = "0.1.0"

# Each public name, and the submodule that defines it.
_EXPORTS = {
    "AffineField": "inclusion",
    "CaputoProblem": "inclusion",
    "GridMap": "gridmap",
    "NonConvergenceError": "inclusion",
    "RLOperator": "rl",
    "RegularityReport": "regularity",
    "Selection": "gridmap",
    "Trajectory": "inclusion",
    "bound_l0": "rl",
    "bound_sup": "rl",
    "continuity_modulus": "regularity",
    "fixture_catalog": "verify",
    "hausdorff": "regularity",
    "lipschitz_constant": "regularity",
    "midpoint_selection": "gridmap",
    "quadrature_weights": "rl",
    "rl_setvalued": "rl",
    "run_verification": "verify",
    "solution_funnel": "inclusion",
    "solve_with_policy": "inclusion",
    "total_variation": "regularity",
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def console_script() -> None:
    """The `svfrac` script: svfrac.cli run as by `python -m svfrac.cli`, not imported."""
    import runpy

    runpy.run_module("svfrac.cli", run_name="__main__", alter_sys=True)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
