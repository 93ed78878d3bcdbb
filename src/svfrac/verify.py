"""Executable verification suite for the regularity properties of the
set-valued fractional integral, over a built-in fixture catalog.

Each entry compares a measured quantity against its analytic bound and is
reported as a RegularityReport. Runs are deterministic: fixture catalog,
3.4's random node pairs, and report order are all fixed by the seed.
run_verification measures each (fixture, rho) pair's integral map `g` once
and hands it, and what is measured of it, to the checks. Each check allows
ROUNDOFF times the magnitude it compares: `scale`, the pair's S =
bound_sup(rho, sup|f|, a, b), or its bound or parent measure (3.5 to 3.8).
"""

from __future__ import annotations

import numpy as np

from .gridmap import _BUILTIN_KINDS, GridMap, _check_seed, draw_indices
from .regularity import RegularityReport, bound_l0, bound_sup, continuity_modulus, hausdorff
from .rl import RLOperator, _scaled_power, integral_set, positive, rl_setvalued
from .selections import certify_extremals

DEFAULT_RHOS = (0.5, 1.0, 1.5, 2.7)

ROUNDOFF = 1024 * float(np.finfo(float).eps)  # per unit of the compared magnitude; roundoff reaches 23 eps
WEIGHT_TOL = float(np.finfo(float).eps)  # relative to the row's sum: roundoff of a weight

DEFAULT_SEED = 42
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


def _skip(theorem, fixture, rho):
    return RegularityReport(theorem, fixture, rho, 0.0, 0.0, True, status="skipped (requires rho>1)")


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


def check_bounded_variation(f: GridMap, name: str, rho: float, *, certs):
    """Thm 3.5 (rho > 1): V(G) between max and sum of extremal variations,
    read from the extremal certificates `certs` of G."""
    if rho <= 1.0:
        return _skip("3.5", name, rho)
    va, vb = (c.variation for c in certs)
    vg = certs[0].parent_variation
    ok = max(va, vb) - ROUNDOFF * (va + vb) <= vg <= va + vb + ROUNDOFF * (va + vb)
    return RegularityReport("3.5", name, rho, vg, va + vb, ok, details=dict(lower=max(va, vb)))


def check_lipschitz(f: GridMap, name: str, rho: float, *, certs, sup_f: float):
    """Thm 3.6 (rho > 1): Lipschitz constant of G, read from its
    certificates `certs`, vs L0; a slope, so the subnormal floor is _slack's over the step."""
    if rho <= 1.0:
        return _skip("3.6", name, rho)
    measured = certs[0].parent_lipschitz
    bound = bound_l0(rho, sup_f, f.a, f.b)
    slack = max(ROUNDOFF * bound, _slack(f, rho, 0.0) / f.step)
    return RegularityReport("3.6", name, rho, measured, bound, measured <= bound + slack)


def check_selections(f: GridMap, name: str, rho: float, *, certs):
    """Thms 3.7/3.8: extremal selections are members and inherit variation
    and Lipschitz bounds from the integral map; `certs` is
    certify_extremals of it; the slack is relative to the larger parent measure."""
    if rho <= 1.0:
        return _skip("3.7/3.8", name, rho)
    worst = max(0.0, *(max(c.variation - c.parent_variation, c.lipschitz - c.parent_lipschitz) for c in certs))
    slack = ROUNDOFF * max(certs[0].parent_variation, certs[0].parent_lipschitz)
    ok = all(c.membership_checked for c in certs) and worst <= slack
    return RegularityReport("3.7/3.8", name, rho, worst, slack, ok)


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
    dropped on return. `sups` are the maps' sup bounds and `phi` their
    moduli at 3.4's `pairs`. An error stops the pass and is returned with
    the index of its map, not raised, so that the caller can name the error
    the fixture-by-fixture order meets first."""
    op = RLOperator(*grid, rho)
    row = op.row(grid[2])
    for k, ((name, f), sup_f) in enumerate(zip(named, sups)):
        try:
            g = op.setvalued(f)
            vals = integral_set(f, row)
            certs = certify_extremals(g) if rho > 1.0 else ()
            s = bound_sup(rho, sup_f, *grid[:2])  # the pair's scale, and 3.3's bound
            reports[name] += [
                check_convexity(f, name, rho, g=g, vals=vals, scale=s),
                check_nonempty(f, name, rho, g=g, row=row, vals=vals, scale=s),
                check_boundedness(f, name, rho, g=g, scale=s),
                check_continuity(f, name, rho, g=g, pairs=pairs, phi=phi[k], scale=s),
                check_bounded_variation(f, name, rho, certs=certs),
                check_lipschitz(f, name, rho, certs=certs, sup_f=sup_f),
                check_selections(f, name, rho, certs=certs),
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
        sups = [f.sup_bound() for f in maps]
        named, first = list(zip(group, maps)), None
        for rho in rhos:
            failed = _order_reports(grid, rho, named, sups, pairs, phis.pop(0), reports)
            if failed:
                first, named = failed[1], named[: failed[0]]
        if first is not None:
            raise first
    return [report for name in sorted(fixtures) for report in reports[name]]
