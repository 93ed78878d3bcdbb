"""Executable verification suite for the regularity properties of the
set-valued fractional integral, over a built-in fixture catalog.

Each entry compares a measured quantity against its analytic bound and is
reported as a RegularityReport. Runs are deterministic: fixture catalog,
random draws, and report order are all fixed by the seed. run_verification
integrates each (fixture, rho) pair once and hands the integral map `g`, and
the oracle values `vals` at node N, to the checks.
"""

from __future__ import annotations

import numpy as np

from .gridmap import _BUILTIN_KINDS, GridMap, draw_indices, oracle_seeds
from .regularity import (
    RegularityReport,
    bound_l0,
    bound_sup,
    continuity_modulus,
    hausdorff,
    lipschitz_constant,
    total_variation,
)
from .rl import RLOperator, integral_set, rl_setvalued, selection_sums
from .selections import certify_extremals

DEFAULT_RHOS = (0.5, 1.0, 1.5, 2.7)

BOUND_TOL = 1e-9  # additive: quadrature exactness class
MODULUS_TOL = 1e-8
EXACT_TOL = 1e-12

DEFAULT_SEED = 42
# Random selections drawn by the oracle checks.
CONVEXITY_SAMPLES = 64
ENDPOINT_SAMPLES = 200
CONVEXITY_TRIALS = 100  # pairs of oracle values combined by 3.1
CONTINUITY_PAIRS = 100  # random node pairs compared by 3.4


def fixture_catalog(n_segments: int = 64) -> dict[str, GridMap]:
    """Reproducible fixture set: every builtin map family on [0, 1] at its
    default parameters, the canonical [-u, u] map (sym_linear) among them."""
    return {kind: GridMap.from_builtin(kind, 0.0, 1.0, n_segments) for kind in _BUILTIN_KINDS}


def _skip(theorem, fixture, rho):
    return RegularityReport(theorem, fixture, rho, 0.0, 0.0, True, status="skipped (requires rho>1)")


def check_convexity(f: GridMap, name: str, rho: float, seed: int, *,
                    g: GridMap, vals: tuple[float, ...]):
    """Thm 3.1: convex combinations of oracle values stay in the node interval.
    The pairs combined are drawn from `vals` by draw_indices of `seed`."""
    n = f.n_segments
    picks = np.asarray(vals)[draw_indices(seed, len(vals), 2 * CONVEXITY_TRIALS).reshape(-1, 2)]
    lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    y = lam * picks[:, :1] + (1.0 - lam) * picks[:, 1:]
    worst = max(0.0, g.lo[n] - y.min(), y.max() - g.hi[n])
    return RegularityReport("3.1", name, rho, worst, BOUND_TOL, worst <= BOUND_TOL)


def check_nonempty(f: GridMap, name: str, rho: float, *,
                   g: GridMap | None = None, vals: tuple[float, ...] = ()):
    """Thm 3.2: the integral map is made of valid (nonempty) intervals, and a
    sampled selection integral lands inside them. Called alone, it integrates
    f and draws its oracle values (the endpoint oracle's, at DEFAULT_SEED)
    itself."""
    n = f.n_segments
    g = rl_setvalued(f, rho) if g is None else g
    if not vals:
        row = RLOperator(f.a, f.b, n, rho).row(n)
        vals = integral_set(f, row, selection_sums([f], [row], oracle_seeds(DEFAULT_SEED, ENDPOINT_SAMPLES))[0, 0])
    worst = max(g.lo[n] - vals[0], vals[-1] - g.hi[n])
    ok = bool(np.all(g.lo <= g.hi)) and worst <= BOUND_TOL
    return RegularityReport("3.2", name, rho, worst, BOUND_TOL, ok)


def check_boundedness(f: GridMap, name: str, rho: float, *, g: GridMap):
    """Thm 3.3: sup-node distance of the integral map to {0} vs the bound."""
    measured = g.sup_bound()
    bound = bound_sup(rho, f.sup_bound(), f.a, f.b)
    return RegularityReport("3.3", name, rho, measured, bound, measured <= bound + BOUND_TOL)


def continuity_pairs(f: GridMap, seed: int):
    """3.4's pairs on f's grid: the node indices (i, j) of the node pairs
    drawn by draw_indices of `seed`, and the points u <= v of those pairs
    followed by the shrinking pairs (a, a + (b - a) 2^-m)."""
    ij = draw_indices(seed, f.n_segments + 1, 2 * CONTINUITY_PAIRS).reshape(-1, 2)
    i, j = np.sort(ij, axis=1).T
    vs = f.a + (f.b - f.a) * 2.0 ** -np.arange(1, 13)
    nodes = f.nodes
    return i, j, np.concatenate((nodes[i], np.full(vs.size, f.a))), np.concatenate((nodes[j], vs))


def check_continuity(f: GridMap, name: str, rho: float, *, g: GridMap, pairs, phi: np.ndarray):
    """Thm 3.4: Hausdorff increments dominated by the modulus, and the
    modulus vanishes along a shrinking interval. `pairs` is
    continuity_pairs on f's grid and `phi` the modulus of f at its (u, v)."""
    i, j, _, v = pairs
    hd = hausdorff((g.lo[i], g.hi[i]), (g.lo[j], g.hi[j]))
    worst = float(np.max(hd - phi[:CONTINUITY_PAIRS]))
    phis, vs = phi[CONTINUITY_PAIRS:], v[CONTINUITY_PAIRS:]
    if rho >= 1.0:
        # Phi(u, .) is monotone in v for rho >= 1 (its v-derivative is a
        # nonnegative kernel integral); for rho < 1 only decay is guaranteed.
        shrinks = bool(np.all(phis[1:] <= phis[:-1] + EXACT_TOL))
    else:
        # Phi(a, v) may rise as v -> a, but M (v - a)^rho / Gamma(rho + 1) dominates it.
        # Far from 0, a + (b - a) 2^-m can round to a: the bound over [a, a] is 0.
        bounds = [bound_sup(rho, f.sup_bound(), f.a, v) if v > f.a else 0.0 for v in vs]
        shrinks = all(phi <= bound + EXACT_TOL for phi, bound in zip(phis, bounds))
    ok = worst <= MODULUS_TOL and shrinks
    return RegularityReport(
        "3.4", name, rho, worst, MODULUS_TOL, ok,
        details=dict(shrink_first=float(phis[0]), shrink_last=float(phis[-1]), shrink_ok=shrinks),
    )


def check_bounded_variation(f: GridMap, name: str, rho: float, *, g: GridMap):
    """Thm 3.5 (rho > 1): V(G) between max and sum of extremal variations."""
    if rho <= 1.0:
        return _skip("3.5", name, rho)
    va = total_variation(g.extremal_lower())
    vb = total_variation(g.extremal_upper())
    vg = total_variation(g)
    ok = max(va, vb) - EXACT_TOL <= vg <= va + vb + EXACT_TOL
    return RegularityReport("3.5", name, rho, vg, va + vb, ok, details=dict(lower=max(va, vb)))


def check_lipschitz(f: GridMap, name: str, rho: float, *, g: GridMap):
    """Thm 3.6 (rho > 1): measured Lipschitz constant of G vs L0."""
    if rho <= 1.0:
        return _skip("3.6", name, rho)
    measured = lipschitz_constant(g)
    bound = bound_l0(rho, f.sup_bound(), f.a, f.b)
    return RegularityReport("3.6", name, rho, measured, bound, measured <= bound + BOUND_TOL)


def check_selections(f: GridMap, name: str, rho: float, *, g: GridMap):
    """Thms 3.7/3.8: extremal selections are members and inherit variation
    and Lipschitz bounds from the integral map."""
    if rho <= 1.0:
        return _skip("3.7/3.8", name, rho)
    certs = certify_extremals(g)
    worst = max(
        0.0, *(max(c.variation - c.parent_variation, c.lipschitz - c.parent_lipschitz) for c in certs)
    )
    ok = all(c.membership_checked for c in certs) and worst <= EXACT_TOL
    return RegularityReport("3.7/3.8", name, rho, worst, EXACT_TOL, ok)


def check_endpoint_identity(f: GridMap, name: str, rho: float, *,
                            g: GridMap, vals: tuple[float, ...]):
    """Endpoint identity: hull of the selection-integral oracle equals the
    interval spanned by the extremal integrals."""
    n = f.n_segments
    hull_err = hausdorff((g.lo[n], g.hi[n]), (vals[0], vals[-1]))
    inside = max(g.lo[n] - vals[0], vals[-1] - g.hi[n])
    ok = hull_err <= BOUND_TOL and inside <= BOUND_TOL
    return RegularityReport("3.5-endpoint-identity", name, rho, hull_err, BOUND_TOL, ok)


def run_verification(
    rhos=DEFAULT_RHOS,
    fixtures: dict[str, GridMap] | None = None,
    seed: int = DEFAULT_SEED,
    n_segments: int = 64,
) -> list[RegularityReport]:
    """Every check for every (fixture, rho) pair. Each pair integrates its
    fixture once. What depends only on the grid is computed once per grid
    (a, b, N): 3.4's pairs and, per rho, one RLOperator, which with its
    node-N row serves all the grid's fixtures, and one continuity_modulus
    call on all of 3.4's pairs for all the fixtures. One selection_sums pass gives
    every fixture's oracle values at node N for every rho, of the 200 draws
    of oracle_seeds(seed, 200): 3.2 and the endpoint identity read all of
    them, 3.1 the first 64. `seed` is an integer in [0, 2**63)."""
    seeds = oracle_seeds(seed, ENDPOINT_SAMPLES)
    if fixtures is None:
        fixtures = fixture_catalog(n_segments)
    names = sorted(fixtures)
    grids: dict[tuple[float, float, int], list[str]] = {}
    for name in names:
        f = fixtures[name]
        grids.setdefault((f.a, f.b, f.n_segments), []).append(name)
    pairs, ops, phis, sums = {}, {}, {}, {}
    for grid, group in grids.items():
        maps = [fixtures[name] for name in group]
        pairs[grid] = _, _, u, v = continuity_pairs(maps[0], seed)
        for rho in rhos:
            op = RLOperator(*grid, rho)
            ops[grid, rho] = op, op.row(grid[2])
            phis.update(zip([(name, rho) for name in group], continuity_modulus(maps, rho, u, v)))
        oracle = selection_sums(maps, [ops[grid, rho][1] for rho in rhos], seeds)
        for name, per_rho in zip(group, oracle):
            sums.update(zip([(name, rho) for rho in rhos], per_rho))
    reports: list[RegularityReport] = []
    for name in names:
        f = fixtures[name]
        grid = (f.a, f.b, f.n_segments)
        for rho in rhos:
            op, row = ops[grid, rho]
            g = op.setvalued(f)
            vals = integral_set(f, row, sums[name, rho])
            reports += [
                # The convexity oracle's seeds seed..seed+63 are the first
                # of the endpoint oracle's seed..seed+199.
                check_convexity(f, name, rho, seed, g=g,
                                vals=integral_set(f, row, sums[name, rho][:CONVEXITY_SAMPLES])),
                check_nonempty(f, name, rho, g=g, vals=vals),
                check_boundedness(f, name, rho, g=g),
                check_continuity(f, name, rho, g=g, pairs=pairs[grid], phi=phis[name, rho]),
                check_bounded_variation(f, name, rho, g=g),
                check_lipschitz(f, name, rho, g=g),
                check_selections(f, name, rho, g=g),
                check_endpoint_identity(f, name, rho, g=g, vals=vals),
            ]
    return reports
