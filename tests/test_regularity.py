import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _reference import kernel_hat_weights, modulus_clipped_reference
from svfrac import (
    GridMap,
    bound_l0,
    bound_sup,
    continuity_modulus,
    gamma_fn,
    hausdorff,
    lipschitz_constant,
    rl_setvalued,
    total_variation,
)
from svfrac import regularity, rl, verify
from svfrac.gridmap import _BUILTIN_KINDS
from svfrac.verify import fixture_catalog, run_verification

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
            incs = [hausdorff(f.eval(u), f.eval(v)) for u, v in zip(pts[:-1], pts[1:])]
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
                worst = max(worst, hausdorff(f.eval(x), f.eval(y)) / abs(x - y))
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

    def test_bound_l0_requires_rho_above_one(self):
        with pytest.raises(ValueError):
            bound_l0(1.0, 1.0, 0.0, 1.0)

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
                hd = hausdorff(g.interval_at(i), g.interval_at(j))
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
    """The array modulus (segments clipped to [a, u] and [u, v], in chunks)
    against the pair-by-pair breakpoint reference and the defining integral.
    A pair with an off-node u is checked on modulus_clipped_reference, the
    general form that the modulus matches bit for bit at a node u."""

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
        # 300 pairs on 64 segments span 10 chunks; u broadcasts against v.
        f = GridMap.from_builtin("abs_envelope", 0, 1, 64)
        us, vs = node_u_pairs(f.nodes, np.random.default_rng(3), 300)
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


class TestModulusTable:
    """The modulus, one row of terms per distinct target of a chunk, is
    bit-identical to the per-pair clipped reference, run_verification calls
    it once per (grid, rho), and its memory stays bounded."""

    @pytest.mark.parametrize("n", [16, 64, 1024])  # a chunk holds 2 pairs at 1024
    def test_bit_identical_on_the_verification_pairs(self, monkeypatch, n):
        calls = continuity_calls(monkeypatch, n_segments=n)
        assert len(calls) == 4  # one per rho: six fixtures, node and shrinking pairs together
        for maps, rho, u, v in calls:
            assert u.shape == v.shape == (112,)
            got = continuity_modulus(maps, rho, u, v)
            assert got.shape == (6, 112)
            for f, row in zip(maps, got):
                assert np.array_equal(row, modulus_clipped_reference(f, rho, u, v)), rho

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
                assert np.array_equal(row, modulus_clipped_reference(f, rho, us, vs)), (n, f)

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
            # 600 pairs: more than one chunk at every n > 1
            u_drawn, v_drawn = node_u_pairs(f.nodes, np.random.default_rng(n), 600)
            us, vs = np.concatenate((us, u_drawn)), np.concatenate((vs, v_drawn))
            got = continuity_modulus(f, rho, us, vs)
            assert np.array_equal(got, modulus_clipped_reference(f, rho, us, vs)), n

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


@st.composite
def modulus_calls(draw):
    """1-6 catalog maps on n segments, an order, and 1 to 3 chunks' worth
    of pairs, u a node and v from the nodes and uniform points, with
    duplicates and u = v, in shuffled order."""
    n = draw(st.integers(1, 200))
    kinds = draw(st.lists(st.sampled_from(_BUILTIN_KINDS), min_size=1, max_size=6, unique=True))
    rho = draw(st.floats(0.05, 4.0))
    size = draw(st.integers(1, 3 * max(1, regularity._BLOCK_ENTRIES // n)))
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
        for f, row in zip(maps, got):
            assert np.array_equal(row, modulus_clipped_reference(f, rho, u, v)), (f.n_segments, rho)


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
        reports = run_verification(rhos=(0.5,), n_segments=16)
        skipped = [r for r in reports if r.status.startswith("skipped")]
        assert skipped
        assert {r.theorem for r in skipped} == {"3.5", "3.6", "3.7/3.8"}

    def test_one_integral_per_fixture_and_order(self, monkeypatch):
        calls = []
        real = rl.RLOperator.setvalued
        monkeypatch.setattr(rl.RLOperator, "setvalued", lambda op, f: calls.append(op.rho) or real(op, f))
        reports = run_verification()
        assert len(calls) == 24 == len(reports) // 8

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

    @pytest.mark.parametrize("n", [16, 64])
    def test_one_oracle_per_grid(self, monkeypatch, n):
        """Two oracle evaluations per (fixture, rho): 3.1's first 64 draws, and
        all 200, shared by 3.2 and the endpoint identity."""
        calls = []
        real = verify.selection_integrals
        monkeypatch.setattr(
            verify, "selection_integrals", lambda *args: calls.append(1) or real(*args)
        )
        draws = []
        real_draws = verify.selection_draws
        monkeypatch.setattr(
            verify, "selection_draws", lambda *args: draws.append(1) or real_draws(*args)
        )
        reports = run_verification(n_segments=n)
        assert len(calls) == 2 * 24 == 2 * len(reports) // 8
        assert len(draws) == 1

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
