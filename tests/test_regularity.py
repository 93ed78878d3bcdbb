import json
import math
import tracemalloc
import warnings
import weakref
from dataclasses import fields
from math import gamma as gamma_fn

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _reference import (
    eval_interval,
    kernel_hat_weights,
    modulus_clipped_reference,
    modulus_mpmath,
    selection_integrals,
)
from svfrac import (
    GridMap,
    RLOperator,
    bound_l0,
    bound_sup,
    continuity_modulus,
    hausdorff,
    lipschitz_constant,
    rl_setvalued,
    total_variation,
)
from svfrac import gridmap, regularity, rl, verify
from svfrac.gridmap import _BUILTIN_KINDS
from svfrac.cli import main
from svfrac.verify import continuity_pairs, fixture_catalog, run_verification

RNG = np.random.default_rng(1)


class TestTotalVariation:
    def test_canonical_map(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 16)
        assert abs(total_variation(f) - 1.0) < 1e-15

    def test_constant_map(self):
        assert total_variation(GridMap.from_builtin("constant", 0, 1, 8)) == 0.0

    def test_hat_envelope_against_partition_oracle(self):
        f = GridMap.from_builtin("hat", 0, 1, 16)
        assert abs(total_variation(f) - 2.0) < 1e-14
        worst = 0.0
        for _ in range(1000):
            pts = np.sort(np.concatenate(([0, 0.5, 1], RNG.uniform(0, 1, 20))))
            incs = [hausdorff(eval_interval(f, u), eval_interval(f, v)) for u, v in zip(pts[:-1], pts[1:])]
            worst = max(worst, sum(incs))
        assert worst <= 2.0 + 1e-12
        assert worst > 2.0 - 1e-9


class TestLipschitzConstant:
    def test_canonical_map(self):
        assert abs(lipschitz_constant(GridMap.from_builtin("sym_linear", 0, 1, 8)) - 1.0) < 1e-14

    def test_constant_map(self):
        assert lipschitz_constant(GridMap.from_builtin("constant", 0, 1, 8)) == 0.0

    def test_against_pair_oracle(self):
        u = np.linspace(0, 1, 17)
        f = GridMap(0, 1, np.zeros(17), 3 * u)
        assert abs(lipschitz_constant(f) - 3.0) < 1e-12
        worst = 0.0
        for _ in range(10_000):
            x, y = RNG.uniform(0, 1, 2)
            if x != y:
                worst = max(worst, hausdorff(eval_interval(f, x), eval_interval(f, y)) / abs(x - y))
        # interpolation roundoff amplified by 1/|x-y| for near pairs
        assert worst <= 3.0 + 1e-8
        assert worst > 3.0 - 1e-3


class TestBounds:
    def test_bound_sup_half_order(self):
        # 1/(Gamma(0.5)*0.5) = 2/sqrt(pi)
        expected = 2.0 / math.sqrt(math.pi)
        assert abs(bound_sup(0.5, 1.0, 0.0, 1.0) - expected) < 1e-14

    def test_bound_sup_zero_map(self):
        assert bound_sup(1.7, 0.0, 0.0, 1.0) == 0.0

    def test_bound_sup_order_one(self):
        assert abs(bound_sup(1.0, 1.0, 0.0, 1.0) - 1.0) < 1e-15

    def test_bound_l0_values(self):
        assert abs(bound_l0(1.5, 1.0, 0.0, 1.0) - 1.0 / gamma_fn(1.5)) < 1e-14
        assert abs(bound_l0(2.0, 1.0, 0.0, 1.0) - 1.0) < 1e-15
        assert abs(bound_l0(2.0, 2.0, 0.0, 3.0) - 6.0) < 1e-14

    def test_bound_l0_against_measured_lipschitz(self):
        f = GridMap.from_builtin("constant", 0, 3, 64, lo=-2.0, hi=2.0)
        g = rl_setvalued(f, 2.0)
        assert lipschitz_constant(g) <= bound_l0(2.0, f.sup_bound(), 0.0, 3.0) + 1e-9

    def test_bound_l0_requires_rho_at_least_one(self):
        """At rho = 1, L0 is M itself."""
        assert bound_l0(1.0, 1.0, 0.0, 1.0) == 1.0
        assert bound_l0(1.0, 3.0, 0.0, 5.0) == pytest.approx(3.0, rel=1e-15)
        with pytest.raises(ValueError):
            bound_l0(0.999, 1.0, 0.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            bound_sup(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_sup(0.5, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_sup(0.5, 1.0, 1.0, 0.0)


class TestContinuityModulus:
    def test_coincident_points_vanish(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 16)
        assert continuity_modulus(f, 0.5, f.nodes[5], f.nodes[5]) == 0.0

    def test_order_one_reduces_to_plain_integral(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 64)
        u, v = 0.25, 0.75
        got = continuity_modulus(f, 1.0, u, v)
        ref, _ = quad(lambda t: t, u, v)  # h(t) = t for [-u, u]
        assert abs(got - ref) < 1e-12

    def test_against_singular_quadrature_oracle(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 256)
        rho, u, v = 0.5, 0.5, 0.6
        got = continuity_modulus(f, rho, u, v)
        # rho < 1: the kernel difference is positive, so split the absolute
        # integral into two product integrals (the first one is singular at u)
        i_u, _ = quad(lambda t: t, 0.0, u, weight="alg", wvar=(0.0, rho - 1.0), limit=200)
        i_v, _ = quad(lambda t: (v - t) ** (rho - 1.0) * t, 0.0, u, limit=200)
        part2, _ = quad(lambda t: t, u, v, weight="alg", wvar=(0.0, rho - 1.0), limit=200)
        ref = ((i_u - i_v) + part2) / gamma_fn(rho)
        assert abs(got - ref) <= 1e-6 * ref

    def test_dominates_hausdorff_increments(self):
        f = GridMap.from_builtin("abs_envelope", 0, 1, 64)
        for rho in (0.5, 1.0, 1.5, 2.7):
            g = rl_setvalued(f, rho)
            nodes = g.nodes
            for _ in range(50):
                i, j = sorted(RNG.integers(0, 65, 2))
                hd = hausdorff((g.lo[i], g.hi[i]), (g.lo[j], g.hi[j]))
                phi = continuity_modulus(f, rho, nodes[i], nodes[j])
                assert hd <= phi + 1e-8

    def test_beyond_float_range(self):
        """A finite map whose modulus overflows is an OverflowError, and
        raises no numpy warning on the way."""
        f = GridMap.from_builtin("sym_linear", 0, 1e308, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="not finite"):
                continuity_modulus(f, 0.5, 0.0, 1e308)
            with pytest.raises(OverflowError, match="not finite"):
                continuity_modulus([f, f], 0.5, [0.0, f.nodes[1]], 1e308)

    def test_ordering_violated(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 8)
        with pytest.raises(ValueError):
            continuity_modulus(f, 0.5, 0.7, 0.3)
        with pytest.raises(ValueError, match="u=0.7, v=0.3"):
            continuity_modulus(f, 0.5, [0.1, 0.7], [0.2, 0.3])
        with pytest.raises(ValueError):
            continuity_modulus(f, 0.5, 0.1, [0.2, 1.5])

    def test_off_node_u_is_rejected(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 8)
        with pytest.raises(ValueError, match=r"grid node, got u=0\.3 "):
            continuity_modulus(f, 0.5, 0.3, 0.5)
        with pytest.raises(ValueError, match=r"grid node, got u=0\.6 "):
            continuity_modulus([f, f], 0.5, [0.25, 0.6], [0.5, 0.7])

    def test_node_u_at_a_b_and_v(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 8)
        x = f.nodes
        assert continuity_modulus(f, 1.5, f.a, 0.3) > 0.0
        assert continuity_modulus(f, 1.5, f.b, f.b) == 0.0
        got = continuity_modulus([f, f], 0.5, [x[0], x[3], x[8]], [x[0], x[3], x[8]])
        assert got.shape == (2, 3) and not got.any()
        assert continuity_modulus(f, 0.5, x[3], x[3]) == 0.0


def node_u_pairs(x, rng, size, extra=20):
    """size pairs u <= v: v from the nodes x and `extra` uniform points of
    [x[0], x[-1]], u a node at or below v."""
    vs = rng.choice(np.concatenate((x, rng.uniform(x[0], x[-1], extra))), size)
    return x[rng.integers(0, np.searchsorted(x, vs, side="right"))], vs


def at_node_u(f, us, vs):
    """The pairs of (us, vs) whose u is a node of f."""
    node = np.isin(us, f.nodes)
    return us[node], vs[node]


def modulus_reference(f, rho, u, v):
    """The modulus pair by pair: kernel_hat_weights over the breakpoints
    a, the nodes strictly inside (a, u), u, and u, the nodes inside (u, v), v."""
    if u == v:
        return 0.0
    nodes = f.nodes
    henv = np.maximum(np.abs(f.lo), np.abs(f.hi))

    def breakpoints(left, right):
        return np.concatenate(([left], nodes[(nodes > left) & (nodes < right)], [right]))

    total = 0.0
    if u > f.a:
        ts = breakpoints(f.a, u)
        hv = np.interp(ts, nodes, henv)
        total += abs(kernel_hat_weights(v, rho, ts) @ hv - kernel_hat_weights(u, rho, ts) @ hv)
    ts = breakpoints(u, v)
    total += kernel_hat_weights(v, rho, ts) @ np.interp(ts, nodes, henv)
    return total / gamma_fn(rho)


def modulus_pairs(f):
    """Node, non-node and mixed pairs, pairs at u = a and pairs with u = v;
    then pairs sharing u, pairs sharing v, and node pairs followed by the
    shrinking pairs (a, a + (b - a) 2^-m) of the continuity check."""
    x = f.nodes
    n = f.n_segments
    return [
        (0.0, 0.0), (0.0, 1.0), (0.0, 0.37), (0.0, x[1]), (x[0], x[n // 2]),
        (x[n // 3], x[n]), (x[1], x[n]), (0.123, 0.877), (0.3, 0.3), (x[n], x[n]),
        (0.41, x[n]), (x[n // 2], 0.93), (0.5, 0.51), (x[n // 2], x[n // 2]),
        *((x[n // 3], v) for v in (x[n // 3], x[n // 2], 0.61, 0.77, x[n])),
        *((0.29, v) for v in (0.29, 0.3, 0.61, x[n])),
        *((u, 0.77) for u in (0.0, x[n // 4], 0.29, x[n // 2], 0.61, 0.77)),
        *((u, x[n]) for u in (0.0, x[n // 3], 0.61, x[n])),
        (x[0], x[n // 2]), (x[n // 4], x[n // 2]), (x[n // 2], x[n]), (x[0], x[n]),
        *((0.0, 2.0**-m) for m in range(1, 13)),
    ]


class TestArrayContinuityModulus:
    """The array modulus against the pair-by-pair breakpoint reference and
    the defining integral. A pair with an off-node u is checked on
    modulus_clipped_reference, the general form of the modulus."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 1.5, 2.7])
    def test_matches_breakpoint_reference(self, n, rho):
        for kind in ("sin_envelope", "hat", "affine"):
            f = GridMap.from_builtin(kind, 0, 1, n)
            us, vs = np.array(modulus_pairs(f)).T
            node = np.isin(us, f.nodes)
            got = np.empty(us.size)
            got[node] = continuity_modulus(f, rho, us[node], vs[node])
            got[~node] = modulus_clipped_reference(f, rho, us[~node], vs[~node])
            for u, v, phi, at_node in zip(us, vs, got, node):
                ref = modulus_reference(f, rho, u, v)
                assert abs(phi - ref) <= 1e-13 * abs(ref), (kind, u, v, phi, ref)
                modulus = continuity_modulus if at_node else modulus_clipped_reference
                assert modulus(f, rho, u, v) == phi  # the scalar call
                if u == v:
                    assert phi == 0.0

    def test_blocks_and_broadcasting(self):
        # 600 pairs span 2 chunks of 512; u broadcasts against v.
        f = GridMap.from_builtin("abs_envelope", 0, 1, 64)
        us, vs = node_u_pairs(f.nodes, np.random.default_rng(3), 600)
        got = continuity_modulus(f, 1.5, us, vs)
        assert np.array_equal(got, [continuity_modulus(f, 1.5, u, v) for u, v in zip(us, vs)])
        grid = continuity_modulus(f, 0.5, 0.25, np.array([[0.25, 0.5], [0.75, 1.0]]))
        assert grid.shape == (2, 2) and grid[0, 0] == 0.0
        assert grid[1, 1] == continuity_modulus(f, 0.5, 0.25, 1.0)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 1.5, 2.7])
    def test_against_mpmath_defining_integral(self, rho):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 8)
        nodes = [mpmath.mpf(float(t)) for t in f.nodes]
        henv = np.maximum(np.abs(f.lo), np.abs(f.hi))

        def h(t):
            return mpmath.mpf(float(np.interp(float(t), f.nodes, henv)))

        def integral(kernel, left, right):
            # h is linear between consecutive points, so integrate piece by piece
            pts = [left] + [t for t in nodes if left < t < right] + [right]
            total = mpmath.mpf(0)
            for p, q in zip(pts[:-1], pts[1:]):
                hp, hq = h(p), h(q)
                total += mpmath.quad(
                    lambda t: kernel(t) * (hp + (hq - hp) * (t - p) / (q - p)), [p, q]
                )
            return total

        with mpmath.workdps(30):
            for u, v in [(0.0, 0.6), (0.25, 0.5), (0.3, 0.95)]:
                u_, v_, r = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(rho)
                first = 0
                if u > 0:
                    first = integral(lambda t: abs((v_ - t) ** (r - 1) - (u_ - t) ** (r - 1)), 0, u_)
                second = integral(lambda t: (v_ - t) ** (r - 1), u_, v_)
                ref = float((first + second) / mpmath.gamma(r))
                modulus = continuity_modulus if u in f.nodes else modulus_clipped_reference
                assert abs(modulus(f, rho, u, v) - ref) <= 1e-10 * ref, (u, v)


def continuity_calls(monkeypatch, **kwargs):
    """The (f, rho, u, v) of every modulus call that run_verification makes."""
    calls = []
    real = verify.continuity_modulus

    def record(f, rho, u, v):
        calls.append((f, rho, u, v))
        return real(f, rho, u, v)

    monkeypatch.setattr(verify, "continuity_modulus", record)
    run_verification(**kwargs)
    return calls


def assert_near_clipped(maps, rho, u, v, got):
    """got is the clipped reference's modulus at (u, v) to 1e-13 of the
    integrals' size, Phi(a, u) + Phi(a, v) + Phi(u, v): the two paths sum
    A - B, which cancels, over different terms. `maps` is one map, or a
    sequence of maps on one grid with one row of got per map, taken by one
    reference call."""
    a = maps.a if isinstance(maps, GridMap) else maps[0].a
    ref = modulus_clipped_reference(maps, rho, u, v)
    size = ref + modulus_clipped_reference(maps, rho, a, u) + modulus_clipped_reference(maps, rho, a, v)
    assert np.all(np.abs(got - ref) <= 1e-13 * size), (np.shape(got), rho, np.max(np.abs(got - ref) / size))


class TestModulusTable:
    """The modulus is close to the per-pair clipped reference, bit-identical
    across batching, run_verification calls it once per (grid, rho), and its
    memory stays bounded."""

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_bit_identical_on_the_verification_pairs(self, monkeypatch, n):
        """The modulus calls take all 112 pairs: the 100 node pairs and the
        shrinking pairs (a, a + (b - a) 2^-m), on or off the nodes."""
        calls = continuity_calls(monkeypatch, n_segments=n)
        assert len(calls) == 4  # one per rho, for the six fixtures
        for maps, rho, u, v in calls:
            assert u.shape == v.shape == (112,)
            got = continuity_modulus(maps, rho, u, v)
            assert got.shape == (6, 112)
            assert_near_clipped(maps, rho, u, v, got)

    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.7])
    def test_multi_map_rows_are_bit_identical(self, rho):
        """Every row of a call on the six catalog maps is the single-map call
        and the clipped reference, bit for bit."""
        for n in (1, 7, 64, 1500):
            maps = list(fixture_catalog(n).values())
            us, vs = at_node_u(maps[0], *np.array(modulus_pairs(maps[0])).T)
            u_drawn, v_drawn = node_u_pairs(maps[0].nodes, np.random.default_rng(n), 600)
            us, vs = np.concatenate((us, u_drawn)), np.concatenate((vs, v_drawn))
            got = continuity_modulus(maps, rho, us, vs)
            assert got.shape == (6, us.size)
            for f, row in zip(maps, got):
                assert np.array_equal(row, continuity_modulus(f, rho, us, vs)), (n, f)
            assert_near_clipped(maps, rho, us, vs, got)

    def test_map_sequences(self):
        f, g = GridMap.from_builtin("hat", 0, 1, 16), GridMap.from_builtin("affine", 0, 1, 16)
        assert np.array_equal(continuity_modulus([f], 0.5, 0.25, [0.5, 1.0]),
                              [continuity_modulus(f, 0.5, 0.25, [0.5, 1.0])])
        assert continuity_modulus((f, g), 1.5, 0.25, 0.5).shape == (2,)
        assert continuity_modulus((f, g), 1.5, 0.25, 0.5)[1] == continuity_modulus(g, 1.5, 0.25, 0.5)
        with pytest.raises(ValueError, match="one grid"):
            continuity_modulus([f, GridMap.from_builtin("hat", 0, 1, 8)], 0.5, 0.25, 0.5)
        with pytest.raises(ValueError, match="one grid"):
            continuity_modulus([f, GridMap.from_builtin("hat", 0, 2, 16)], 0.5, 0.25, 0.5)
        with pytest.raises(ValueError, match="at least one map"):
            continuity_modulus([], 0.5, 0.25, 0.5)

    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.7])
    def test_bit_identical_on_repeated_targets(self, rho):
        for n in (1, 7, 64, 1500):
            f = GridMap.from_builtin("sin_envelope", 0, 1, n)
            us, vs = at_node_u(f, *np.array(modulus_pairs(f)).T)
            # 600 pairs: more than one chunk of 512
            u_drawn, v_drawn = node_u_pairs(f.nodes, np.random.default_rng(n), 600)
            us, vs = np.concatenate((us, u_drawn)), np.concatenate((vs, v_drawn))
            got = continuity_modulus(f, rho, us, vs)
            assert_near_clipped(f, rho, us, vs, got)

    @pytest.mark.parametrize(
        "n, pairs",
        [(64, lambda x, rng: np.column_stack(node_u_pairs(x, rng, 20_000))),
         (4096, lambda x, rng: x[rng.integers(0, x.size, (100, 2))])],
        ids=["20000_random_pairs_n64", "100_node_pairs_n4096"],
    )
    def test_peak_memory_is_bounded(self, n, pairs):
        f = GridMap.from_builtin("abs_envelope", 0, 1, n)
        uv = np.sort(pairs(f.nodes, np.random.default_rng(7)), axis=1)
        u, v = uv[:, 0].copy(), uv[:, 1].copy()
        continuity_modulus(f, 1.5, u[:10], v[:10])  # first-call allocations
        tracemalloc.start()
        try:
            continuity_modulus(f, 1.5, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    @pytest.mark.parametrize(
        "n, pairs",
        [(64, lambda x, rng: np.column_stack(node_u_pairs(x, rng, 20_000))),
         (4096, lambda x, rng: x[rng.integers(0, x.size, (100, 2))])],
        ids=["20000_random_pairs_n64", "100_node_pairs_n4096"],
    )
    def test_peak_memory_is_bounded_for_six_maps(self, n, pairs):
        maps = list(fixture_catalog(n).values())
        uv = np.sort(pairs(maps[0].nodes, np.random.default_rng(7)), axis=1)
        u, v = uv[:, 0].copy(), uv[:, 1].copy()
        continuity_modulus(maps, 1.5, u[:10], v[:10])  # first-call allocations
        tracemalloc.start()
        try:
            continuity_modulus(maps, 1.5, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_peak_memory_on_uniform_off_node_targets(self):
        """256 pairs with v uniform on [0, 1] at N = 4096, on six maps: each
        v off the nodes has its own row of moments, built for its pair and
        dropped, so no table per target is kept across the call."""
        maps = list(fixture_catalog(4096).values())
        x = maps[0].nodes
        rng = np.random.default_rng(11)
        v = rng.uniform(0, 1, 256)
        u = x[rng.integers(0, np.searchsorted(x, v, side="right"))]
        continuity_modulus(maps, 1.5, u[:10], v[:10])  # first-call allocations
        tracemalloc.start()
        try:
            continuity_modulus(maps, 1.5, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak


class TestNodePairModulus:
    """The modulus at node pairs, from partial sums of operator rows,
    against an mpmath evaluation and the per-pair breakpoint reference; its
    values depend on their map and pair alone."""

    @pytest.mark.parametrize("rho", [0.5, 1.5, 2.7])
    @pytest.mark.parametrize("n", [1, 7, 64, 1024, 4096])
    def test_against_mpmath_and_the_breakpoint_reference(self, n, rho):
        """On 3.4's 100 drawn pairs and the pairs with i = 0, j = N or
        i = j, to 1e-13 relative. On a close pair at large N, |A - B|
        cancels, and the clipped path misses 1e-13 too (by up to 2.4e-13
        at N = 4096); there this path may miss by twice the clipped
        path's error, no more."""
        f = GridMap.from_builtin("sin_envelope", 0, 1, n)
        i, j, _, _ = continuity_pairs(f, 42)
        edges = [(0, n), (0, 1), (0, (n + 1) // 2), (n // 3, n), (1, n), (0, 0), (n, n), (n // 2, n // 2)]
        i = np.concatenate((i[:100], [p[0] for p in edges]))
        j = np.concatenate((j[:100], [p[1] for p in edges]))
        x = f.nodes
        got = continuity_modulus(f, rho, x[i], x[j])
        ref = modulus_mpmath(f, rho, zip(i.tolist(), j.tolist()))
        clipped = modulus_clipped_reference(f, rho, x[i], x[j])
        for ip, jp, phi, exact, clip in zip(i, j, got, ref, clipped):
            if ip == jp:
                assert phi == 0.0 and exact == 0.0
                continue
            tol = max(1e-13 * exact, 2 * abs(clip - exact))
            assert abs(phi - exact) <= tol, (ip, jp, phi, exact, clip)
            near = modulus_reference(f, rho, x[ip], x[jp])
            assert abs(phi - near) <= max(1e-13 * near, 2 * abs(clip - exact)), (ip, jp, phi, near)

    def test_on_a_domain_other_than_the_unit_interval(self):
        f = GridMap.from_builtin("hat", -1.0, 2.0, 48)
        i, j = np.array([0, 3, 17, 47, 0]), np.array([48, 30, 17, 48, 5])
        for rho in (0.3, 1.0, 2.7):
            got = continuity_modulus(f, rho, f.nodes[i], f.nodes[j])
            ref = modulus_mpmath(f, rho, zip(i.tolist(), j.tolist()))
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), rho

    @pytest.mark.parametrize("rho", [0.5, 2.7])
    def test_batched_calls_equal_per_pair_and_per_map_calls(self, rho):
        for n in (5, 64, 9000):  # at 9000, sums of up to three einsum runs
            maps = list(fixture_catalog(n).values())
            x = maps[0].nodes
            i, j, _, _ = continuity_pairs(maps[0], 7)
            i, j = np.concatenate((i[:40], [0, 0, n, 1])), np.concatenate((j[:40], [n, 0, n, 2]))
            batched = continuity_modulus(maps, rho, x[i], x[j])
            assert batched.shape == (6, i.size)
            for k in (0, 5):
                single = continuity_modulus(maps[k], rho, x[i], x[j])
                assert single.shape == i.shape and np.array_equal(single, batched[k])
                assert np.array_equal(continuity_modulus(maps[k:], rho, x[i], x[j]), batched[k:])
            for p in (0, 7, i.size - 3, i.size - 1):
                assert np.array_equal(continuity_modulus(maps, rho, x[i[p:p + 1]], x[j[p:p + 1]])[:, 0], batched[:, p])
                assert continuity_modulus(maps[2], rho, x[[i[p]]], x[[j[p]]])[0] == batched[2, p]
            assert np.array_equal(continuity_modulus(maps, rho, x[i[::-1]], x[j[::-1]]), batched[:, ::-1])

    def test_close_to_the_clipped_modulus_on_the_verification_pairs(self):
        for n in (16, 1024):
            maps = list(fixture_catalog(n).values())
            _, _, u, v = continuity_pairs(maps[0], 42)
            for rho in verify.DEFAULT_RHOS:
                got = continuity_modulus(maps, rho, u, v)
                clipped = modulus_clipped_reference(maps, rho, u, v)
                assert np.all(np.abs(got - clipped) <= 1e-13 * clipped), (n, rho)

    def test_invalid_pairs_and_envelopes(self):
        f = GridMap(0, 1, np.ones(9), np.ones(9))
        x = f.nodes
        for u, v in [([x[3]], [x[2]]), ([-0.125], [x[2]]), ([x[0]], [1.125])]:
            with pytest.raises(ValueError, match="need a <= u <= v <= b"):
                continuity_modulus(f, 1.5, u, v)
        assert continuity_modulus(f, 1.5, [], []).shape == (0,)
        big = GridMap(0, 1e100, np.ones(9), np.ones(9))  # weights near 1e300
        x = big.nodes
        assert np.isfinite(continuity_modulus(big, 3.0, x[[0, 2]], x[[8, 5]])).all()
        with pytest.raises(OverflowError, match=r"continuity modulus of order 3.0 on \[0.0, 1e\+100\]"):
            continuity_modulus(GridMap(0, 1e100, np.full(9, 1e10), np.full(9, 1e10)), 3.0, x[[0, 2]], x[[8, 5]])
        with pytest.raises(OverflowError, match=r"continuity modulus of order 4.0 on \[0.0, 1e\+100\]"):
            continuity_modulus(big, 4.0, x[[0, 2]], x[[8, 5]])  # the scale (b - a)^rho alone overflows


def off_node_pairs(f):
    """Node indices i and points v >= x_i, mostly off the nodes: the
    shrinking pairs (a, a + (b - a) 2^-m); v in the first and in the last
    segment; u = x_k with v in the same segment; and v = x_k +- 1e-13 and
    +- 1e-10, from u = a, x_(k-1), x_k and x_(k/2), with k = max(1, N // 2)."""
    n, x, a, b = f.n_segments, f.nodes, f.a, f.b
    step, k = (b - a) / n, max(1, n // 2)
    pairs = [(0, a + (b - a) * 2.0**-m) for m in range(1, 13)]
    pairs += [(0, a + 0.37 * step), (0, b - 0.37 * step), (n // 2, b - 0.6 * step), (n - 1, b - 0.2 * step)]
    pairs += [(k, x[k] + 0.6 * step), (k - 1, x[k - 1] + 0.3 * step)]
    for e in (1e-13, 1e-10):
        pairs += [(0, x[k] + e), (0, x[k] - e), (k - 1, x[k] - e), (k, x[k] + e), (k // 2, x[k] + e)]
    i, v = zip(*pairs)
    return np.array(i), np.array(v, dtype=float)


def assert_near_mpmath(f, rho, i, v):
    """The modulus at (x_i, v) is modulus_mpmath's to 1e-13 of the
    integrals' size, Phi(a, x_i) + Phi(a, v) + Phi(x_i, v)."""
    got = continuity_modulus(f, rho, f.nodes[i], v)
    pairs = [*zip(i.tolist(), v.tolist()), *((0, k) for k in i.tolist()), *((0, p) for p in v.tolist())]
    ref, at_u, at_v = np.reshape(modulus_mpmath(f, rho, pairs), (3, -1))
    assert np.all(np.abs(got - ref) <= 1e-13 * (ref + at_u + at_v)), np.max(np.abs(got - ref) / (ref + at_u + at_v))


class TestOffNodeModulus:
    """The modulus at a v off the nodes, from the row of a virtual node at
    v, against the mpmath evaluation. Near a node |A - B| cancels: there
    this path and the clipped one both miss Phi by up to 1e-2 relative
    (v = x_k + 1e-13), so the tolerance is in units of the integrals."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 1.5, 2.7])
    @pytest.mark.parametrize("n", [3, 7, 100, 1000])
    def test_against_mpmath(self, n, rho):
        f = GridMap.from_builtin("sin_envelope", 0, 1, n)
        assert_near_mpmath(f, rho, *off_node_pairs(f))

    def test_on_a_domain_other_than_the_unit_interval(self):
        f = GridMap.from_builtin("hat", -3.0, 7.0, 37)
        for rho in (0.5, 2.7):
            assert_near_mpmath(f, rho, *off_node_pairs(f))


@st.composite
def modulus_calls(draw):
    """1-6 catalog maps on n segments, an order, and 1 to 3 * (2048 // n)
    pairs, u a node and v from the nodes and uniform points, with
    duplicates and u = v, in shuffled order."""
    n = draw(st.integers(1, 200))
    kinds = draw(st.lists(st.sampled_from(_BUILTIN_KINDS), min_size=1, max_size=6, unique=True))
    rho = draw(st.floats(0.05, 4.0))
    size = draw(st.integers(1, 3 * max(1, 2048 // n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = [GridMap.from_builtin(kind, 0, 1, n) for kind in kinds]
    us, vs = node_u_pairs(maps[0].nodes, rng, size, extra=16)
    same = rng.random(size) < 0.1
    vs[same] = us[same]
    return maps, rho, us, vs


class TestModulusProperty:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(call=modulus_calls())
    def test_multi_map_rows_match_the_clipped_reference(self, call):
        maps, rho, u, v = call
        got = continuity_modulus(maps, rho, u, v)
        assert got.shape == (len(maps), u.size)
        assert_near_clipped(maps, rho, u, v, got)


class TestScaleEquivariance:
    def test_all_quantities_scale_linearly(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 32)
        c = 3.5
        fc = GridMap(f.a, f.b, c * f.lo, c * f.hi)
        assert abs(total_variation(fc) - c * total_variation(f)) < 1e-12
        assert abs(lipschitz_constant(fc) - c * lipschitz_constant(f)) < 1e-12
        assert abs(fc.sup_bound() - c * f.sup_bound()) < 1e-12
        m = f.sup_bound()
        assert abs(bound_sup(0.7, c * m, 0, 1) - c * bound_sup(0.7, m, 0, 1)) < 1e-12
        assert abs(bound_l0(1.5, c * m, 0, 1) - c * bound_l0(1.5, m, 0, 1)) < 1e-12


class TestTheoremSuites:
    def test_full_verification_passes(self):
        reports = run_verification(n_segments=32)
        failed = [r for r in reports if not r.passed]
        assert not failed, [r.to_json() for r in failed]

    def test_variation_inheritance_bracket(self):
        # rho > 1: max(V(A), V(B)) <= V(G) <= V(A) + V(B)
        for name, f in fixture_catalog(48).items():
            g = rl_setvalued(f, 1.5)
            va = total_variation(g.extremal_lower())
            vb = total_variation(g.extremal_upper())
            vg = total_variation(g)
            assert vg <= va + vb + 1e-12, name
            assert vg >= max(va, vb) - 1e-12, name

    def test_skipped_entries_below_order_one(self):
        """3.6 is skipped on each fixture at rho = 0.5, and checked at rho = 1."""
        reports = run_verification(rhos=(0.5, 1.0), n_segments=16)
        skipped = [r for r in reports if r.status.startswith("skipped")]
        assert len(skipped) == 6
        assert {(r.theorem, r.rho) for r in skipped} == {("3.6", 0.5)}

    def test_one_integral_per_fixture_and_order(self, monkeypatch):
        calls = []
        real = rl.RLOperator.setvalued
        monkeypatch.setattr(rl.RLOperator, "setvalued", lambda op, f: calls.append(op.rho) or real(op, f))
        reports = run_verification()
        assert len(calls) == 24 == len(reports) // 8

    def test_one_measure_per_integral(self, monkeypatch):
        """Each fixture's variation masses are taken once, a variation each
        of F, lo and hi, and 3.5 and 3.7/3.8 measure the variations of each
        integral and its two extremal selections: 3 * 6 + 3 * 24. 3.6
        measures the Lipschitz constant of each of the 18 integrals of
        order >= 1 once. Each fixture's sup bound is taken once, each
        integral's once (3.3): 6 + 24."""
        calls = {}

        def count(owner, name, modules=()):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            for holder in (owner, *modules):
                if vars(holder).get(name) is real:
                    monkeypatch.setattr(holder, name, counting)

        for name in ("total_variation", "lipschitz_constant"):
            count(regularity, name, (verify,))
        count(GridMap, "sup_bound")
        run_verification()
        assert calls == {"total_variation": 90, "lipschitz_constant": 18, "sup_bound": 30}

    def test_overflowing_width_is_one_overflow_error(self):
        """A finite map whose width hi - lo overflows: the operator rejects
        the integral, without a RuntimeWarning."""
        f = GridMap.from_builtin("affine", 0, 1, 2, c_lo=-1.5e308, s_lo=0, c_hi=1.5e308, s_hi=0)
        with pytest.raises(OverflowError, match=r"integral of order 40.0 on \[0.0, 1.0\] is not finite"):
            run_verification(rhos=(40,), fixtures={"h": f})

    def test_one_modulus_call_per_grid_and_order(self, monkeypatch):
        """A default run makes one modulus call per rho, on the six fixtures; a
        fixture set on three grids, two of them with the same N, makes one per
        (grid, rho), and reports what running each fixture alone reports."""
        calls = continuity_calls(monkeypatch)
        assert [(len(maps), rho) for maps, rho, _, _ in calls] == [(6, rho) for rho in verify.DEFAULT_RHOS]
        fixtures = {
            "hat": GridMap.from_builtin("hat", 0, 1, 16),
            "sin": GridMap.from_builtin("sin_envelope", 0, 1, 16),
            "const": GridMap.from_builtin("constant", 0, 2, 16),
            "abs": GridMap.from_builtin("abs_envelope", 0, 2, 32),
            "sym": GridMap.from_builtin("sym_linear", 0, 2, 32),
        }
        calls = continuity_calls(monkeypatch, rhos=(0.5, 2.2), fixtures=fixtures, seed=5)
        grids = sorted((maps[0].b, maps[0].n_segments, len(maps), rho) for maps, rho, _, _ in calls)
        assert grids == [(1.0, 16, 2, 0.5), (1.0, 16, 2, 2.2), (2.0, 16, 1, 0.5), (2.0, 16, 1, 2.2),
                         (2.0, 32, 2, 0.5), (2.0, 32, 2, 2.2)]
        together = run_verification(rhos=(0.5, 2.2), fixtures=fixtures, seed=5)
        alone = [r for name in sorted(fixtures)
                 for r in run_verification(rhos=(0.5, 2.2), fixtures={name: fixtures[name]}, seed=5)]
        assert [r.to_json() for r in together] == [r.to_json() for r in alone]

    @pytest.mark.parametrize("n, tables", [(4096, 1), (64, 7)])
    def test_moment_tables_per_modulus_call(self, monkeypatch, n, tables):
        """Each modulus call of a default run builds one table of node rows
        and one row per v off the nodes: none at 4096, where every
        shrinking v is a node; 6 at 64, for a + 2^-m, m = 7..12."""
        count, per_call = [0], []
        real_moments, real_modulus = rl._hat_moments, verify.continuity_modulus

        def moments(*args):
            count[0] += 1
            return real_moments(*args)

        def modulus(*args):
            before = count[0]
            out = real_modulus(*args)
            per_call.append(count[0] - before)
            return out

        monkeypatch.setattr(rl, "_hat_moments", moments)
        monkeypatch.setattr(verify, "continuity_modulus", modulus)
        run_verification(n_segments=n)
        assert per_call == [tables] * 4

    def test_one_weight_build_per_grid_and_order_for_the_oracle(self, monkeypatch):
        """One build per rho, shared by the node-N row and every fixture's
        integral: 4, not 28."""
        calls = []
        real = rl.quadrature_weights

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rl, "quadrature_weights", counting)
        run_verification()
        assert len(calls) == 4
        assert sorted(set(calls)) == [(0.0, 1.0, 64, rho) for rho in verify.DEFAULT_RHOS]

    @pytest.mark.parametrize("n", [16, 64, 65536])
    def test_one_row_per_grid_and_order(self, monkeypatch, n):
        """One node-N row per (grid, rho), read by every fixture, and no
        random draw but 3.4's: one stream of 200 draws per grid. All 192
        reports pass, at N = 65536 too."""
        rows, draws = [], []
        real_row, real_draws = rl.RLOperator.row, gridmap.selection_draws
        monkeypatch.setattr(rl.RLOperator, "row", lambda op, m: rows.append((op.rho, m)) or real_row(op, m))
        monkeypatch.setattr(gridmap, "selection_draws", lambda *args: draws.append(args) or real_draws(*args))
        reports = run_verification(n_segments=n)
        assert rows == [(rho, n) for rho in verify.DEFAULT_RHOS]
        assert draws == [(200, verify.DEFAULT_SEED)]
        assert all(r.passed for r in reports) and len(reports) == 8 * 24

    @pytest.mark.parametrize("seed", [5, 42])
    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_oracle_values_are_the_one_shot_values(self, monkeypatch, n, seed):
        """The values that 3.1, 3.2 and the endpoint identity read, whatever
        the seed, are bit for bit the one-shot dots row @ lo and row @ hi
        (one np.dot each up to 8192 nodes), sorted and deduplicated; and the
        Monte-Carlo oracle's random-selection integrals of 200 seeds from
        `seed` lie between them, up to the dots' roundoff."""
        seen = {}

        def recording(check, real):
            def record(f, name, rho, *args, **kwargs):
                seen[check, name, rho] = kwargs["vals"]
                return real(f, name, rho, *args, **kwargs)
            return record

        for check in ("check_convexity", "check_nonempty", "check_endpoint_identity"):
            monkeypatch.setattr(verify, check, recording(check, getattr(verify, check)))
        run_verification(n_segments=n, seed=seed)
        for rho in verify.DEFAULT_RHOS:
            row = RLOperator(0, 1, n, rho).row(n)
            for name, f in fixture_catalog(n).items():
                one_shot = tuple(sorted({float(row @ f.lo), float(row @ f.hi)}))
                for check in ("check_convexity", "check_nonempty", "check_endpoint_identity"):
                    assert seen[check, name, rho] == one_shot
                tol = 8 * row.size * np.finfo(float).eps * float(np.abs(row) @ np.maximum(np.abs(f.lo), np.abs(f.hi)))
                vals = selection_integrals(f, row, range(seed, seed + 200))
                assert one_shot[0] - tol <= vals.min() and vals.max() <= one_shot[-1] + tol

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_negative_weight_fails_the_sign_rule(self, monkeypatch, n):
        """A quadrature with one negative weight (kernel[2] negated) integrates
        consistently, so the interval checks cannot see it; 3.2's sign rule
        fails it on every (fixture, rho) pair and records the weight."""
        real = rl._row_moments

        def negated(*args):
            kernel, left, right = real(*args)
            if kernel.size > 2:
                kernel[2] = -kernel[2]
            return kernel, left, right

        monkeypatch.setattr(rl, "_row_moments", negated)
        nonempty = [r for r in run_verification(n_segments=n) if r.theorem == "3.2"]
        assert len(nonempty) == 24
        assert not any(r.passed for r in nonempty)
        assert all(r.details["min_weight"] < 0 for r in nonempty)

    def test_report_coerces_numpy_scalars(self):
        r = verify.RegularityReport("3.1", "x", 0.5, np.float64(1e-17), 1e-9, np.bool_(True))
        assert json.loads(json.dumps(r.to_json())) == {
            "theorem": "3.1", "fixture": "x", "rho": 0.5, "measured": 1e-17,
            "bound": 1e-9, "pass": True, "status": "checked",
        }
        assert r.passed is True and type(r.measured) is float

    def test_report_serialization(self):
        r = run_verification(rhos=(1.5,), n_segments=16)[0]
        obj = json.loads(json.dumps(r.to_json(), sort_keys=True))
        assert set(obj) >= {"theorem", "measured", "bound", "pass", "rho", "fixture"}


class TestVerificationPass:
    """run_verification takes its moduli first, then keeps one operator,
    its node-N row and that order's moduli alive at a time; its reports
    carry no __dict__."""

    def test_one_operator_alive_at_a_time(self, monkeypatch):
        """A default run builds 4 operators, one per rho, and the next one
        only after the last is gone."""
        built, alive, most = [], [0], [0]

        def gone():
            alive[0] -= 1

        class Counted(RLOperator):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.rho)
                alive[0] += 1
                most[0] = max(most[0], alive[0])
                weakref.finalize(self, gone)

        monkeypatch.setattr(verify, "RLOperator", Counted)
        assert all(r.passed for r in run_verification())
        assert built == list(verify.DEFAULT_RHOS)
        assert most[0] == 1 and alive[0] == 0

    def test_traced_peak_at_n4096(self):
        """At N = 4096 the pass traces at most 0.88 MB (1.38 MB with all
        four operators, rows and moduli kept for the whole pass, 0.90 MB
        with extremal selections that copy their map's arrays)."""
        run_verification(n_segments=16)  # first-call allocations
        tracemalloc.start()
        try:
            run_verification(n_segments=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.88e6, peak

    def test_first_error_is_the_fixture_by_fixture_first(self):
        """Fixture "a" fails only at rho 1.5, in the Lipschitz constant of
        its integral, and "b", whose width overflows, at every rho. Taken
        fixture by fixture, a's error comes first, and it is the one raised,
        though the pass of rho 1 meets b's first."""
        a = GridMap.from_builtin("constant", 0, 1, 16, lo=1.7e308, hi=1.7e308)
        b = GridMap.from_builtin("affine", 0, 1, 16, c_lo=-1e308, s_lo=0, c_hi=0.8e308, s_hi=0)
        with pytest.raises(OverflowError, match=r"^the Lipschitz constant of the map on \[0.0, 1.0\] is not finite$"):
            run_verification(rhos=(1.0, 1.5), fixtures={"a": a, "b": b})
        with pytest.raises(OverflowError, match=r"^the integral of order 1.0 on \[0.0, 1.0\] is not finite$"):
            run_verification(rhos=(1.0, 1.5), fixtures={"b": b})

    def test_scale_fails_before_the_modulus(self):
        """The weight scale of order 1e6 on [0, 1e308] is beyond the float
        range, and so is the modulus: the scale is named, as when each
        operator was built before its modulus."""
        f = GridMap.from_builtin("sym_linear", 0, 1e308, 8)
        with pytest.raises(OverflowError, match=r"^the scale with exponent 1000000.0 on \[0.0, 1e\+308\]"):
            run_verification(rhos=(1e6,), fixtures={"big": f})
        with pytest.raises(OverflowError, match=r"^the continuity modulus of order 0.5"):
            run_verification(rhos=(0.5,), fixtures={"big": f})

    def test_report_has_no_dict_and_the_same_json(self):
        """A report is slotted; to_json is its fields, `passed` as "pass"
        last, details only when not empty; a skipped report (3.6 at rho
        < 1) among them."""
        reports = run_verification(n_segments=16)
        assert any(r.status.startswith("skipped") for r in reports)
        for r in reports:
            assert not hasattr(r, "__dict__")
            old = {field.name: getattr(r, field.name) for field in fields(r)}
            old["pass"] = old.pop("passed")
            if not r.details:
                del old["details"]
            assert list(r.to_json().items()) == list(old.items())
        r = verify.RegularityReport("3.2", "x", 1.0, 2.0, 1e-9, False, details=dict(min_weight=-1.0))
        assert r.to_json() == {"theorem": "3.2", "fixture": "x", "rho": 1.0, "measured": 2.0, "bound": 1e-9,
                               "status": "checked", "details": {"min_weight": -1.0}, "pass": False}


def moved_catalog(n, c=1.0, a=0.0, length=1.0):
    """The catalog's node values on [a, a + length], scaled by c."""
    return {kind: GridMap(a, a + length, c * f.lo, c * f.hi) for kind, f in fixture_catalog(n).items()}


def verdicts(reports):
    return [(r.theorem, r.fixture, r.rho, r.status, r.passed) for r in reports]


def mutated_weights(mutant):
    """quadrature_weights, the FFT path's weights, with one defect."""
    real = rl.quadrature_weights

    def mutated(a, b, n, rho):
        if mutant == "order x1.05":
            return real(a, b, n, 1.05 * rho)
        kernel, col0 = real(a, b, n, rho)
        if mutant == "weights x1.02":
            return 1.02 * kernel, 1.02 * col0
        kernel[n // 2] = -kernel[n // 2]
        return kernel, col0

    return mutated


class TestScaleRelativeSlack:
    """Every check allows verify.ROUNDOFF times the magnitude it compares:
    the pair's S = bound_sup(rho, sup|f|, a, b) for 3.1 to 3.4 and the
    endpoint identity, the compared bound for 3.5 to 3.8. Both sides of each theorem's inequality scale with the map, so a
    verdict does not depend on the map's scale, nor on where its domain
    lies or how long it is."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(c=st.floats(-12, 12).map(lambda e: 10.0**e), a=st.floats(-1e3, 1e3),
           length=st.floats(-2, 2).map(lambda e: 10.0**e), n=st.sampled_from([16, 64]))
    @example(c=1.0, a=165.99380892081467, length=0.017678613183356714, n=16)
    def test_moved_and_scaled_catalog_passes(self, c, a, length, n):
        """Every report passes, with the verdicts of the catalog on [0, 1].
        The example needs 3.4's shrink bound at the grid's distance
        j (b - a) / N of node j: the float x_j - a misses it by about
        eps |a|, which puts the constant map's modulus above a bound taken
        at x_j - a."""
        reports = run_verification(fixtures=moved_catalog(n, c, a, length))
        assert all(r.passed for r in reports)
        assert verdicts(reports) == verdicts(run_verification(n_segments=n))

    @pytest.mark.parametrize("mutant", ["weights x1.02", "order x1.05", "kernel[N // 2] negated"])
    def test_wrong_fft_weights_fail_at_every_scale(self, monkeypatch, tmp_path, mutant):
        """Each defect of the FFT path's weights gives a FAIL at every
        scale c, tiny maps included: 3.2 and the endpoint identity compare
        the FFT with dot products of the node-N row, to a slack relative
        to S. Weights x1.02 also fail 3.5 and 3.7/3.8 on the constant map
        at every order, and 3.6 at rho = 1: its V(G), and each extremal
        selection's, attains the bound from F, and at rho = 1 its Lipschitz
        constant attains L0 = M. So `selections` exits 1 on it at every
        order: its lower and upper selections attain their bounds too.

        Not caught, at any scale: column 0 dropped from every row
        (_row_moments with `left` zeroed). _row_moments feeds the FFT's
        weights, the node-N row and the continuity modulus alike, so both
        sides of each comparison carry the defect, and a rule that drops a
        nonnegative weight stays below the bounds of 3.3 and 3.6. An
        exactness check that shares no code with the quadrature would be
        needed to see it."""
        monkeypatch.setattr(rl, "quadrature_weights", mutated_weights(mutant))
        scaled = mutant == "weights x1.02"
        bounds = ("3.5", "3.7/3.8") if scaled else ()
        path = tmp_path / "constant.json"
        for c in (1e-12, 1.0, 1e12):
            reports = run_verification(fixtures=moved_catalog(64, c))
            assert not all(r.passed for r in reports), c
            failed = {(r.theorem, r.fixture, r.rho) for r in reports if not r.passed}
            assert {(t, "constant", rho) for t in bounds for rho in verify.DEFAULT_RHOS} <= failed, c
            if scaled:
                assert ("3.6", "constant", 1.0) in failed, c
                path.write_text(json.dumps(moved_catalog(64, c)["constant"].to_json()))
                for rho in verify.DEFAULT_RHOS:
                    argv = ["selections", "--input", str(path), "--rho", str(rho), "--output", str(tmp_path / "out")]
                    assert main(argv) == 1, (c, rho)

    def test_bound_fields(self):
        """3.3's bound is S, computed once per pair; 3.1, 3.2, 3.4 and the
        endpoint identity print their slack ROUNDOFF S; 3.5 prints its
        bound (||F(a)|| + V(F)) k(b - a), 3.7/3.8 ROUNDOFF times the larger
        of that bound of lo and of hi. The subnormal floor lies below ROUNDOFF S down to maps of
        magnitude 1e-300, also at N = 65536."""
        for fixtures in (moved_catalog(16, 1e6, -3.0, 10.0), moved_catalog(64, 1e-300), moved_catalog(65536, 1e-300)):
            for r in run_verification(fixtures=fixtures):
                f = fixtures[r.fixture]
                s = bound_sup(r.rho, f.sup_bound(), f.a, f.b)
                if r.theorem == "3.3":
                    assert r.bound == s
                elif r.theorem in ("3.1", "3.2", "3.4", "3.5-endpoint-identity"):
                    assert r.bound == verify.ROUNDOFF * s
                elif r.theorem in ("3.5", "3.7/3.8"):
                    masses = [max(abs(x[0]) for x in ends) + total_variation(GridMap(f.a, f.b, *ends))
                              for ends in ((f.lo, f.hi), (f.lo, f.lo), (f.hi, f.hi))]
                    bounds = [bound_sup(r.rho, m, f.a, f.b) for m in masses]
                    assert r.bound == (bounds[0] if r.theorem == "3.5" else verify.ROUNDOFF * max(bounds[1:]))

    @pytest.mark.parametrize("rho", [1.000001, 1.00000001])
    def test_lipschitz_slack_carries_node_roundoff_over_the_step(self, rho):
        """Just above rho = 1 the constant map's Lipschitz constant attains
        L0, and its node values carry roundoff relative to S, which a slope
        carries over the step: at N = 65536 that is beyond ROUNDOFF L0, so
        3.6 also allows _slack of S over the step."""
        f = GridMap.from_builtin("constant", 0, 1, 65536)
        reports = run_verification(rhos=(rho,), fixtures={"constant": f})
        assert all(r.passed for r in reports), [r.to_json() for r in reports if not r.passed]

    @pytest.mark.parametrize("n, c", [(64, 1e-308), (64, 1e-310), (64, 1e-315), (64, 1e-320), (65536, 1e-308)])
    def test_subnormal_maps_pass(self, n, c):
        """Maps whose values are subnormal, or whose products with the
        weights are: every report passes. There roundoff is absolute, in
        units of 2^-1074 that add up over the N nodes, so a slack relative
        to S alone fails valid maps (21 reports at c = 1e-310, 73 at 1e-315
        and 64 at 1e-320 at grid 64; 3.6 among them)."""
        assert all(r.passed for r in run_verification(fixtures=moved_catalog(n, c)))

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.7])
    def test_one_shrink_rule_at_every_order(self, rho):
        """3.4 asks Phi(a, v) <= M k(d) + ROUNDOFF S at every order. A
        modulus that does not grow along the shrinking points, but does not
        vanish either (S at each of them), fails it at rho >= 1 too; the
        true modulus passes."""
        f = fixture_catalog(64)["constant"]
        g, pairs = rl_setvalued(f, rho), continuity_pairs(f, 42)
        s = bound_sup(rho, f.sup_bound(), f.a, f.b)
        phi = continuity_modulus(f, rho, pairs[2], pairs[3])
        assert verify.check_continuity(f, "c", rho, g=g, pairs=pairs, phi=phi, scale=s).passed
        phi[verify.CONTINUITY_PAIRS:] = s
        r = verify.check_continuity(f, "c", rho, g=g, pairs=pairs, phi=phi, scale=s)
        assert not r.passed and r.details["shrink_ok"] is False

    @pytest.mark.parametrize("rho", verify.DEFAULT_RHOS)
    def test_check_nonempty_alone_equals_the_pass(self, monkeypatch, rho):
        """check_nonempty(f, name, rho) called alone integrates f once and
        takes its own row, values and scale: its report equals the pass's
        3.2 report in measured, bound and verdict."""
        in_pass = {r.fixture: r for r in run_verification(rhos=(rho,), n_segments=16) if r.theorem == "3.2"}
        calls, real = [], verify.rl_setvalued
        monkeypatch.setattr(verify, "rl_setvalued", lambda f, order: calls.append(order) or real(f, order))
        for name, f in fixture_catalog(16).items():
            calls.clear()
            alone = verify.check_nonempty(f, name, rho)
            assert calls == [rho]
            assert (alone.measured, alone.bound, alone.passed) == (
                in_pass[name].measured, in_pass[name].bound, in_pass[name].passed)
