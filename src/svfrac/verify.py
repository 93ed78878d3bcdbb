"""Executable verification suite for the regularity properties of the
set-valued fractional integral, over a built-in fixture catalog.

Each entry compares a measured quantity against its analytic bound and is
reported as a RegularityReport. Runs are deterministic: fixture catalog,
3.4's random node pairs, and report order are all fixed by the seed.
run_verification measures each (fixture, rho) pair's integral map `g` once
and hands it, and what is measured of it, to the checks. Each check allows
ROUNDOFF times the magnitude it compares: `scale`, the pair's S =
bound_sup(rho, sup|f|, a, b), or its bound (3.5 to 3.8). selection_reports
runs 3.5 and 3.6 on the regular selections of one map (`svfrac selections`).
"""

from __future__ import annotations

import numpy as np

from .gridmap import _BUILTIN_KINDS, DEFAULT_SEED, GridMap, _check_seed, draw_indices, midpoint_selection
from .regularity import RegularityReport, continuity_modulus, hausdorff, lipschitz_constant, total_variation
from .rl import RLOperator, _scaled_power, bound_l0, bound_sup, integral_set, positive, rl_setvalued

DEFAULT_RHOS = (0.5, 1.0, 1.5, 2.7)

ROUNDOFF = 1024 * float(np.finfo(float).eps)  # per unit of the compared magnitude; roundoff reaches 23 eps
WEIGHT_TOL = float(np.finfo(float).eps)  # relative to the row's sum: roundoff of a weight

CONTINUITY_PAIRS = 100  # random node pairs compared by 3.4


def fixture_catalog(n_segments: int = 64) -> dict[str, GridMap]:
    """Reproducible fixture set: every builtin map family on [0, 1] at its
    default parameters, the canonical [-u, u] map (sym_linear) among them."""
    return {kind: GridMap.from_builtin(kind, 0.0, 1.0, n_segments) for kind in _BUILTIN_KINDS}


def _slack(f: GridMap, rho: float, scale: float) -> float:
    """ROUNDOFF times `scale`, or the floor (N + 16) max(1, w) 2^-1074 if larger, w = (b - a)^rho / Gamma(rho):
    twice the absolute roundoff of f's checks on subnormal values, where a product is off
    by up to 2^-1075 and a sum is exact (README, Notes on accuracy)."""
    floor = (f.n_segments + 16) * max(1.0, _scaled_power(1.0, f.a, f.b, rho, rho)) * 2.0**-1074
    return max(ROUNDOFF * scale, floor)


def check_convexity(f: GridMap, name: str, rho: float, *, g: GridMap, vals: tuple[float, ...], scale: float):
    """Thm 3.1: convex combinations of the extremal integrals `vals`
    (integral_set at node N), over every ordered pair of them, stay in the
    node interval."""
    n = f.n_segments
    picks = np.array([(p, q) for p in vals for q in vals])
    lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    y = lam * picks[:, :1] + (1.0 - lam) * picks[:, 1:]
    worst = max(0.0, g.lo[n] - y.min(), y.max() - g.hi[n])
    return RegularityReport("3.1", name, rho, worst, slack := _slack(f, rho, scale), worst <= slack)


def check_nonempty(f: GridMap, name: str, rho: float, *, g: GridMap | None = None,
                   row: np.ndarray | None = None, vals: tuple[float, ...] = (), scale: float = 0.0):
    """Thm 3.2: every selection integral at node N lands inside the integral
    map's interval there. With nonnegative weights `row` (node N's), those
    integrals fill [v0, v1], the ends `vals` of integral_set, so the check
    measures how far v0 and v1 lie outside g's interval, and passes only if
    also no weight is below -WEIGHT_TOL times the row's absolute sum; a
    failing sign records the smallest weight. The values are nonempty since
    GridMap rejects lo > hi. Called without g, it integrates f and builds
    the row, its values and the scale S itself."""
    n = f.n_segments
    if g is None:
        g = rl_setvalued(f, rho)
        row = RLOperator(f.a, f.b, n, rho).row(n)
        vals = integral_set(f, row)
        scale = bound_sup(rho, f.sup_bound(), f.a, f.b)
    worst = max(g.lo[n] - vals[0], vals[-1] - g.hi[n])
    low = row.min()
    signed = low >= -WEIGHT_TOL * np.abs(row).sum()
    return RegularityReport("3.2", name, rho, worst, slack := _slack(f, rho, scale), worst <= slack and signed,
                            details={} if signed else dict(min_weight=float(low)))


def check_boundedness(f: GridMap, name: str, rho: float, *, g: GridMap, scale: float):
    """Thm 3.3: sup-node distance of the integral map to {0} vs its bound S, `scale`."""
    measured = g.sup_bound()
    return RegularityReport("3.3", name, rho, measured, scale, measured <= scale + _slack(f, rho, scale))


def continuity_pairs(f: GridMap, seed: int):
    """3.4's pairs on f's grid: the node indices (i, j) of the node pairs
    drawn by draw_indices of `seed`, and the points u <= v of those pairs
    followed by the shrinking pairs (a, a + (b - a) 2^-m)."""
    ij = draw_indices(seed, f.n_segments + 1, 2 * CONTINUITY_PAIRS).reshape(-1, 2)
    i, j = np.sort(ij, axis=1).T
    vs = f.a + (f.b - f.a) * 2.0 ** -np.arange(1, 13)
    nodes = f.nodes
    return i, j, np.concatenate((nodes[i], np.full(vs.size, f.a))), np.concatenate((nodes[j], vs))


def check_continuity(f: GridMap, name: str, rho: float, *, g: GridMap, pairs, phi, scale: float):
    """Thm 3.4: Hausdorff increments dominated by the modulus, and the modulus
    vanishing along a shrinking interval: Phi(a, v) <= M k(d) = S (d / (b - a))^rho,
    k(t) = t^rho / Gamma(rho + 1), at every order (the envelope's interpolant
    is at most M), at the distance d the modulus integrates over: j (b - a) / N
    at node j (node 0 if v rounds to a), else v - a. `pairs` is
    continuity_pairs on f's grid and `phi` the modulus of f at its (u, v)."""
    i, j, _, v = pairs
    hd = hausdorff(g.rows[:, i], g.rows[:, j])
    worst = float(np.max(hd - phi[:CONTINUITY_PAIRS]))
    phis, vs = phi[CONTINUITY_PAIRS:], v[CONTINUITY_PAIRS:]
    x = f.nodes
    k = np.searchsorted(x, vs)
    d = np.where(x[k] == vs, k / f.n_segments, (vs - f.a) / (f.b - f.a))
    slack = _slack(f, rho, scale)
    shrinks = bool(np.all(phis <= scale * d**rho + slack))
    return RegularityReport(
        "3.4", name, rho, worst, slack, worst <= slack and shrinks,
        details=dict(shrink_first=float(phis[0]), shrink_last=float(phis[-1]), shrink_ok=shrinks),
    )


def variation_masses(*maps: GridMap) -> list[float]:
    """||r(a)|| + V(r) for each map r of `maps`. By parts, r = r(a) + the integral of dr against
    k(t) = t^rho / Gamma(rho + 1), which increases, so the integral of order rho of r has variation
    at most bound_sup(rho, ||r(a)|| + V(r), a, b): at every order, and at the nodes exactly, whose
    values are exact for r's interpolant."""
    return [float(np.abs(r.rows[:, 0]).max()) + total_variation(r) for r in maps]


def check_bounded_variation(f: GridMap, name: str, rho: float, *, g: GridMap, bounds: list[float]):
    """Thm 3.5: V(G) vs its bound from F, bounds[0], to the slack of the largest of `bounds`
    (variation_masses). In the pass that is bounds[0], as F's mass is at least lo's and hi's."""
    measured, slack = total_variation(g), _slack(f, rho, max(bounds))
    return RegularityReport("3.5", name, rho, measured, bounds[0], measured <= bounds[0] + slack)


def check_lipschitz(f: GridMap, name: str, rho: float, *, g: GridMap, sup_f: float, scale: float):
    """Thm 3.6 (rho >= 1): Lipschitz constant of G vs L0. Node values carry
    roundoff up to _slack of S, `scale`, which a slope carries over the step."""
    if rho < 1.0:
        return RegularityReport("3.6", name, rho, 0.0, 0.0, True, status="skipped (requires rho>=1)")
    measured, bound = lipschitz_constant(g), bound_l0(rho, sup_f, f.a, f.b)
    slack = max(ROUNDOFF * bound, _slack(f, rho, scale) / f.step)
    return RegularityReport("3.6", name, rho, measured, bound, measured <= bound + slack)


def check_selections(f: GridMap, name: str, rho: float, *, g: GridMap, bounds: list[float]):
    """Thms 3.7/3.8: the variation of each of G's extremal selections, G's rows and the
    integrals of F's, is within its bound from F's, bounds[1:] (variation_masses): the
    largest excess, at least 0, vs the slack of the larger bound."""
    sels = g.extremal_lower(), g.extremal_upper()
    worst = max(0.0, *(total_variation(sel) - bound for sel, bound in zip(sels, bounds[1:])))
    slack = _slack(f, rho, max(bounds[1:]))
    return RegularityReport("3.7/3.8", name, rho, worst, slack, worst <= slack)


def check_endpoint_identity(f: GridMap, name: str, rho: float, *, g: GridMap, vals: tuple[float, ...], scale: float):
    """Endpoint identity: the node-N interval of the integral map equals
    [v0, v1], the extremal integrals `vals` of integral_set, taken by dot
    products with the row instead of the FFT. hull_err bounds 3.2's measure,
    so [v0, v1] also lies inside the interval to ROUNDOFF S."""
    n = f.n_segments
    hull_err = hausdorff(g.rows[:, n], (vals[0], vals[-1]))
    return RegularityReport("3.5-endpoint-identity", name, rho, hull_err, slack := _slack(f, rho, scale),
                            hull_err <= slack)


def _order_reports(grid, rho, named, sups, pairs, phi, reports) -> tuple[int, Exception] | None:
    """The checks of order rho for each (name, map) of `named` on `grid`,
    appended to reports[name], from one RLOperator and its node-N row, both
    dropped on return. `sups` are the maps' sup bounds and variation_masses,
    `phi` their moduli at 3.4's `pairs`. An error stops the pass and is
    returned with the index of its map, not raised, so that the caller can
    name the error the fixture-by-fixture order meets first."""
    op = RLOperator(*grid, rho)
    row = op.row(grid[2])
    for k, ((name, f), (sup_f, masses)) in enumerate(zip(named, sups)):
        try:
            g = op.setvalued(f)
            vals = integral_set(f, row)
            s = bound_sup(rho, sup_f, *grid[:2])  # the pair's scale, and 3.3's bound
            bounds = [bound_sup(rho, m, *grid[:2]) for m in masses]  # 3.5's and 3.7/3.8's
            reports[name] += [
                check_convexity(f, name, rho, g=g, vals=vals, scale=s),
                check_nonempty(f, name, rho, g=g, row=row, vals=vals, scale=s),
                check_boundedness(f, name, rho, g=g, scale=s),
                check_continuity(f, name, rho, g=g, pairs=pairs, phi=phi[k], scale=s),
                check_bounded_variation(f, name, rho, g=g, bounds=bounds),
                check_lipschitz(f, name, rho, g=g, sup_f=sup_f, scale=s),
                check_selections(f, name, rho, g=g, bounds=bounds),
                check_endpoint_identity(f, name, rho, g=g, vals=vals, scale=s),
            ]
        except (ArithmeticError, ValueError) as exc:  # a result beyond the float range, or out of a domain
            return k, exc
    return None


def run_verification(
    rhos=DEFAULT_RHOS,
    fixtures: dict[str, GridMap] | None = None,
    seed: int = DEFAULT_SEED,
    n_segments: int = 64,
) -> list[RegularityReport]:
    """Every check for every (fixture, rho) pair, in sorted name, then rho
    order. Per grid (a, b, N), one continuity_modulus call per rho on all
    3.4's pairs of the grid's fixtures comes first (small results); then,
    one rho at a time, one RLOperator and its node-N row serve all the
    grid's fixtures and are dropped with that rho's moduli before the next
    rho, so that at most one operator is alive. An error is the one a
    fixture-by-fixture pass meets first: each rho's weight scale is checked
    before its modulus, and an error in rho's pass stops the later passes
    at that fixture. `seed`, in [0, 2**63), picks 3.4's pairs."""
    seed = _check_seed(seed)
    if fixtures is None:
        fixtures = fixture_catalog(n_segments)
    grids: dict[tuple[float, float, int], list[str]] = {}
    for name in sorted(fixtures):
        f = fixtures[name]
        grids.setdefault((f.a, f.b, f.n_segments), []).append(name)
    reports: dict[str, list[RegularityReport]] = {name: [] for name in fixtures}
    for grid, group in grids.items():
        maps = [fixtures[name] for name in group]
        pairs = _, _, u, v = continuity_pairs(maps[0], seed)
        phis = []
        for rho in rhos:
            # The scale of rho's weights, taken as the operator below takes it: a scale
            # beyond the float range is the error, not the modulus it also spoils.
            _scaled_power(1.0, grid[0], grid[1], positive("fractional order rho", rho), rho)
            phis.append(continuity_modulus(maps, rho, u, v))
        sups = [(f.sup_bound(), variation_masses(f, f.extremal_lower(), f.extremal_upper())) for f in maps]
        named, first = list(zip(group, maps)), None
        for rho in rhos:
            failed = _order_reports(grid, rho, named, sups, pairs, phis.pop(0), reports)
            if failed:
                first, named = failed[1], named[: failed[0]]
        if first is not None:
            raise first
    return [report for name in sorted(fixtures) for report in reports[name]]


def selection_reports(f: GridMap, rho: float) -> list[RegularityReport]:
    """Thms 3.5 and 3.6 on each regular selection r of F (3.7/3.8): lo, hi and
    their midpoint, the reports named lower, upper and midpoint. The integral
    of r is the matching selection of G, one of its rows or their float
    midpoint. The slacks are of F's scale, not r's, whose bound can be about
    0 while G's roundoff is not: 3.5's is that of the larger bound of lo and
    hi, 3.6's that of S."""
    sels = (GridMap.extremal_lower, GridMap.extremal_upper, midpoint_selection)
    rs, gs = ([sel(m) for sel in sels] for m in (f, rl_setvalued(f, rho)))
    bounds = [bound_sup(rho, m, f.a, f.b) for m in variation_masses(*rs)]
    s = bound_sup(rho, f.sup_bound(), f.a, f.b)
    reports = []
    for kind, r, g, bound in zip(("lower", "upper", "midpoint"), rs, gs, bounds):
        reports += [check_bounded_variation(f, kind, rho, g=g, bounds=[bound, *bounds[:2]]),
                    check_lipschitz(f, kind, rho, g=g, sup_f=r.sup_bound(), scale=s)]
    return reports
