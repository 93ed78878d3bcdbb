import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
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
from svfrac import verify
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
        assert continuity_modulus(f, 0.5, 0.3, 0.3) == 0.0

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

    def test_ordering_violated(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 8)
        with pytest.raises(ValueError):
            continuity_modulus(f, 0.5, 0.7, 0.3)
        with pytest.raises(ValueError, match="u=0.7, v=0.3"):
            continuity_modulus(f, 0.5, [0.1, 0.7], [0.2, 0.3])
        with pytest.raises(ValueError):
            continuity_modulus(f, 0.5, 0.1, [0.2, 1.5])


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
    """The array modulus (segments clipped to [a, u] and [u, v], in blocks)
    against the pair-by-pair breakpoint reference and the defining integral."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 1.5, 2.7])
    def test_matches_breakpoint_reference(self, n, rho):
        for kind in ("sin_envelope", "hat", "affine"):
            f = GridMap.from_builtin(kind, 0, 1, n)
            us, vs = np.array(modulus_pairs(f)).T
            got = continuity_modulus(f, rho, us, vs)
            assert got.shape == us.shape
            for u, v, phi in zip(us, vs, got):
                ref = modulus_reference(f, rho, u, v)
                assert abs(phi - ref) <= 1e-13 * abs(ref), (kind, u, v, phi, ref)
                assert continuity_modulus(f, rho, u, v) == phi  # the scalar call
                if u == v:
                    assert phi == 0.0

    def test_blocks_and_broadcasting(self):
        # 300 pairs on 64 segments span 19 blocks; u broadcasts against v.
        f = GridMap.from_builtin("abs_envelope", 0, 1, 64)
        rng = np.random.default_rng(3)
        uv = np.sort(rng.uniform(0, 1, (300, 2)), axis=1)
        got = continuity_modulus(f, 1.5, uv[:, 0], uv[:, 1])
        assert np.array_equal(got, [continuity_modulus(f, 1.5, u, v) for u, v in uv])
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
                assert abs(continuity_modulus(f, rho, u, v) - ref) <= 1e-10 * ref, (u, v)


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
    """The per-target table modulus is bit-identical to the clipped-block
    one, run_verification calls it once per (fixture, rho), and its memory
    stays bounded."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_bit_identical_on_the_verification_pairs(self, monkeypatch, n):
        calls = continuity_calls(monkeypatch, n_segments=n)
        assert len(calls) == 24  # one per (fixture, rho): node and shrinking pairs together
        for f, rho, u, v in calls:
            assert u.shape == v.shape == (112,)
            got = continuity_modulus(f, rho, u, v)
            assert np.array_equal(got, modulus_clipped_reference(f, rho, u, v)), rho

    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.7])
    def test_bit_identical_on_repeated_targets(self, rho):
        for n in (1, 7, 64, 1500):
            f = GridMap.from_builtin("sin_envelope", 0, 1, n)
            us, vs = np.array(modulus_pairs(f)).T
            rng = np.random.default_rng(n)
            # 600 pairs: more than one chunk at every n
            uv = np.sort(rng.choice(np.concatenate((f.nodes, rng.uniform(0, 1, 20))), (600, 2)), axis=1)
            us, vs = np.concatenate((us, uv[:, 0])), np.concatenate((vs, uv[:, 1]))
            got = continuity_modulus(f, rho, us, vs)
            assert np.array_equal(got, modulus_clipped_reference(f, rho, us, vs)), n

    @pytest.mark.parametrize(
        "n, pairs",
        [(64, lambda x, rng: rng.uniform(0, 1, (20_000, 2))),
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
            va = g.extremal_lower().variation()
            vb = g.extremal_upper().variation()
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
        real = verify.rl_setvalued
        monkeypatch.setattr(
            verify, "rl_setvalued", lambda f, rho: calls.append(rho) or real(f, rho)
        )
        reports = run_verification()
        assert len(calls) == 24 == len(reports) // 8

    def test_report_serialization(self):
        r = run_verification(rhos=(1.5,), n_segments=16)[0]
        obj = json.loads(json.dumps(r.to_json(), sort_keys=True))
        assert set(obj) >= {"theorem", "measured", "bound", "pass", "rho", "fixture"}
