"""Executable verification suite for the regularity properties of the
set-valued fractional integral, over a built-in fixture catalog.

Each entry compares a measured quantity against its analytic bound and is
reported as a RegularityReport. Runs are deterministic: fixture catalog,
random draws, and report order are all fixed by the seed.
"""

from __future__ import annotations

import numpy as np

from .gridmap import GridMap
from .interval import contains, hausdorff, hausdorff_to_zero
from .regularity import (
    RegularityReport,
    bound_l0,
    bound_sup,
    continuity_modulus,
    lipschitz_constant,
    total_variation,
)
from .rl import rl_selection_oracle, rl_setvalued
from .selections import certify_extremals

DEFAULT_RHOS = (0.5, 1.0, 1.5, 2.7)

BOUND_TOL = 1e-9  # additive: quadrature exactness class
MODULUS_TOL = 1e-8
EXACT_TOL = 1e-12


def fixture_catalog(n_segments: int = 64) -> dict[str, GridMap]:
    """Reproducible fixture set: the canonical [-u, u] map plus the builtin
    families from the map constructors."""
    return {
        "sym_linear": GridMap.from_builtin("sym_linear", 0.0, 1.0, n_segments),
        "constant": GridMap.from_builtin("constant", 0.0, 1.0, n_segments, lo=-1.0, hi=1.0),
        "affine": GridMap.from_builtin("affine", 0.0, 1.0, n_segments),
        "abs_envelope": GridMap.from_builtin("abs_envelope", 0.0, 1.0, n_segments),
        "sin_envelope": GridMap.from_builtin("sin_envelope", 0.0, 1.0, n_segments),
        "hat": GridMap.from_builtin("hat", 0.0, 1.0, n_segments),
    }


def _report(theorem, fixture, rho, measured, bound, passed, status="checked", **details):
    return RegularityReport(
        theorem=theorem,
        fixture=fixture,
        rho=rho,
        measured=float(measured),
        bound=float(bound),
        passed=bool(passed),
        status=status,
        details=details,
    )


def _skip(theorem, fixture, rho):
    return _report(theorem, fixture, rho, 0.0, 0.0, True, status="skipped (requires rho>1)")


def check_convexity(f: GridMap, name: str, rho: float, seed: int, trials: int = 100):
    """Thm 3.1: convex combinations of oracle values stay in the node interval."""
    n = f.n_segments
    g = rl_setvalued(f, rho)
    vals = rl_selection_oracle(f, rho, n, samples=64, seed=seed)
    box = g.interval_at(n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        y1, y2 = rng.choice(vals, size=2)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = lam * y1 + (1.0 - lam) * y2
            worst = max(worst, box.lo - y, y - box.hi)
    return _report("3.1", name, rho, worst, BOUND_TOL, worst <= BOUND_TOL)


def check_nonempty(f: GridMap, name: str, rho: float):
    """Thm 3.2: the integral map is made of valid (nonempty) intervals, and a
    sampled selection integral lands inside them."""
    g = rl_setvalued(f, rho)
    vals = rl_selection_oracle(f, rho, f.n_segments, samples=8, seed=7)
    box = g.interval_at(f.n_segments)
    worst = max(max(box.lo - y, y - box.hi) for y in vals)
    ok = all(g.lo[i] <= g.hi[i] for i in range(f.n_segments + 1)) and worst <= BOUND_TOL
    return _report("3.2", name, rho, worst, BOUND_TOL, ok)


def check_boundedness(f: GridMap, name: str, rho: float):
    """Thm 3.3: sup-node distance of the integral map to {0} vs the bound."""
    g = rl_setvalued(f, rho)
    measured = max(
        hausdorff_to_zero(g.interval_at(i)) for i in range(g.n_segments + 1)
    )
    bound = bound_sup(rho, f.sup_bound(), f.a, f.b)
    return _report("3.3", name, rho, measured, bound, measured <= bound + BOUND_TOL)


def check_continuity(f: GridMap, name: str, rho: float, seed: int, pairs: int = 100):
    """Thm 3.4: Hausdorff increments dominated by the modulus, and the
    modulus vanishes along a shrinking interval."""
    g = rl_setvalued(f, rho)
    nodes = g.nodes
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(pairs):
        i, j = sorted(rng.integers(0, g.n_segments + 1, size=2))
        hd = hausdorff(g.interval_at(i), g.interval_at(j))
        phi = continuity_modulus(f, rho, float(nodes[i]), float(nodes[j]))
        worst = max(worst, hd - phi)
    u = float(f.a)
    phis = [continuity_modulus(f, rho, u, u + (f.b - f.a) * 2.0**-k) for k in range(1, 13)]
    if rho >= 1.0:
        # Phi(u, .) is monotone in v for rho >= 1 (its v-derivative is a
        # nonnegative kernel integral); for rho < 1 only decay is guaranteed.
        shrinks = all(phis[k + 1] <= phis[k] + EXACT_TOL for k in range(len(phis) - 1))
    else:
        # An identically zero modulus (the zero map) cannot decay further.
        shrinks = phis[-1] < phis[0] or max(phis) <= EXACT_TOL
    ok = worst <= MODULUS_TOL and shrinks
    return _report(
        "3.4", name, rho, worst, MODULUS_TOL, ok,
        shrink_first=phis[0], shrink_last=phis[-1], shrink_ok=shrinks,
    )


def check_bounded_variation(f: GridMap, name: str, rho: float):
    """Thm 3.5 (rho > 1): V(G) between max and sum of extremal variations."""
    if rho <= 1.0:
        return _skip("3.5", name, rho)
    g = rl_setvalued(f, rho)
    va = g.extremal_lower().variation()
    vb = g.extremal_upper().variation()
    vg = total_variation(g)
    ok = max(va, vb) - EXACT_TOL <= vg <= va + vb + EXACT_TOL
    return _report("3.5", name, rho, vg, va + vb, ok, lower=max(va, vb))


def check_lipschitz(f: GridMap, name: str, rho: float):
    """Thm 3.6 (rho > 1): measured Lipschitz constant of G vs L0."""
    if rho <= 1.0:
        return _skip("3.6", name, rho)
    g = rl_setvalued(f, rho)
    measured = lipschitz_constant(g)
    bound = bound_l0(rho, f.sup_bound(), f.a, f.b)
    return _report("3.6", name, rho, measured, bound, measured <= bound + BOUND_TOL)


def check_selections(f: GridMap, name: str, rho: float):
    """Thms 3.7/3.8: extremal selections are members and inherit variation
    and Lipschitz bounds from the integral map."""
    if rho <= 1.0:
        return _skip("3.7/3.8", name, rho)
    g = rl_setvalued(f, rho)
    certs = certify_extremals(g)
    worst = 0.0
    ok = True
    for c in certs:
        ok = ok and c.membership_checked
        worst = max(
            worst,
            c.variation - c.parent_variation,
            c.lipschitz - c.parent_lipschitz,
        )
    ok = ok and worst <= EXACT_TOL
    return _report("3.7/3.8", name, rho, worst, EXACT_TOL, ok)


def check_endpoint_identity(f: GridMap, name: str, rho: float, seed: int, samples: int = 200):
    """Endpoint identity: hull of the selection-integral oracle equals the
    interval spanned by the extremal integrals."""
    n = f.n_segments
    g = rl_setvalued(f, rho)
    box = g.interval_at(n)
    vals = rl_selection_oracle(f, rho, n, samples=samples, seed=seed)
    hull_err = hausdorff(box, type(box)(min(vals), max(vals)))
    inside = max(max(box.lo - y, y - box.hi) for y in vals)
    ok = hull_err <= BOUND_TOL and inside <= BOUND_TOL
    return _report("3.5-endpoint-identity", name, rho, hull_err, BOUND_TOL, ok)


def run_verification(
    rhos=DEFAULT_RHOS,
    fixtures: dict[str, GridMap] | None = None,
    seed: int = 42,
    n_segments: int = 64,
) -> list[RegularityReport]:
    if fixtures is None:
        fixtures = fixture_catalog(n_segments)
    reports: list[RegularityReport] = []
    for name in sorted(fixtures):
        f = fixtures[name]
        for rho in rhos:
            reports.append(check_convexity(f, name, rho, seed))
            reports.append(check_nonempty(f, name, rho))
            reports.append(check_boundedness(f, name, rho))
            reports.append(check_continuity(f, name, rho, seed))
            reports.append(check_bounded_variation(f, name, rho))
            reports.append(check_lipschitz(f, name, rho))
            reports.append(check_selections(f, name, rho))
            reports.append(check_endpoint_identity(f, name, rho, seed))
    return reports
