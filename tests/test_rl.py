from math import gamma as gamma_fn

import numpy as np
import pytest
from scipy.integrate import quad

from _reference import (
    _duty_cycle,
    eval_interval,
    random_selection,
    rl_piecewise_constant,
    rl_scalar,
    rl_selection_oracle,
    rl_weight_matrix,
    selection_integrals,
)
from svfrac import GridMap, RLOperator, Selection, rl_setvalued
from svfrac.rl import integral_set
from svfrac.verify import DEFAULT_RHOS, fixture_catalog

RHOS = (0.3, 0.5, 1.0, 1.5, 2.7)


def reference_rl(sel: Selection, rho: float, u: float) -> float:
    """Independent oracle: adaptive quadrature with algebraic endpoint weight."""
    if u == sel.a:
        return 0.0
    val, _ = quad(lambda t: eval_interval(sel, t)[0], sel.a, u, weight="alg", wvar=(0.0, rho - 1.0), limit=200)
    return val / gamma_fn(rho)


def weight_row(a, b, n_segments, rho, n):
    """Weights of nodes 0..n for target node n."""
    return RLOperator(a, b, n_segments, rho).row(n)


class TestWeights:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_nonnegative_and_sum_rule(self, rho, n):
        w = weight_row(0.0, 1.0, 64, rho, n)
        assert (w >= -1e-15).all()
        u_n = n / 64
        expected = u_n**rho / gamma_fn(rho + 1.0)
        assert abs(w.sum() - expected) <= 1e-12 * expected

    def test_target_zero_is_zero(self):
        w = weight_row(0.0, 1.0, 8, 0.5, 0)
        assert w.sum() == 0.0

    def test_rho_one_reproduces_trapezoid(self):
        n = 16
        w = weight_row(0.0, 1.0, n, 1.0, n)
        h = 1.0 / n
        trap = np.full(n + 1, h)
        trap[0] = trap[-1] = h / 2
        assert np.allclose(w, trap, atol=1e-15)

    def test_invalid_parameters(self):
        f = Selection(0, 1, np.ones(9))
        with pytest.raises(ValueError):
            RLOperator(f.a, f.b, f.n_segments, -0.5).row(4)
        with pytest.raises(ValueError):
            RLOperator(f.a, f.b, f.n_segments, 0.5).row(9)


class TestRlScalar:
    def test_constant_rho_two(self):
        f = Selection(0, 1, np.ones(65))
        assert abs(rl_scalar(f, 2.0, 64) - 0.5) < 1e-14

    def test_constant_power_rule(self):
        f = Selection(0, 1, 3.0 * np.ones(65))
        expected = 3.0 / gamma_fn(1.5)
        assert abs(rl_scalar(f, 0.5, 64) - expected) < 1e-12 * expected
        ref = reference_rl(f, 0.5, 1.0)
        assert abs(ref - expected) < 1e-9 * expected

    def test_monomial_power_rule(self):
        f = Selection(0, 1, np.linspace(0, 1, 65))
        expected = gamma_fn(2.0) / gamma_fn(2.5)
        assert abs(rl_scalar(f, 0.5, 64) - expected) < 1e-12 * expected

    def test_rho_one_is_ordinary_integral(self):
        f = Selection(0, 1, np.linspace(0, 1, 65))
        assert abs(rl_scalar(f, 1.0, 64) - 0.5) < 1e-14

    def test_zero_at_left_endpoint(self):
        f = Selection(0, 1, np.linspace(1, 2, 9))
        assert rl_scalar(f, 0.7, 0) == 0.0

    @pytest.mark.parametrize("rho", RHOS)
    def test_exactness_against_adaptive_oracle(self, rho):
        rng = np.random.default_rng(11)
        f = Selection(0.0, 2.0, rng.uniform(-1, 1, 17))
        for n in (3, 9, 16):
            got = rl_scalar(f, rho, n)
            ref = reference_rl(f, rho, f.nodes[n])
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_monotonicity_in_integrand(self):
        rng = np.random.default_rng(2)
        f = Selection(0, 1, rng.uniform(-1, 1, 33))
        g = Selection(0, 1, f.values + rng.uniform(0, 1, 33))
        for rho in RHOS:
            for n in range(33):
                assert rl_scalar(f, rho, n) <= rl_scalar(g, rho, n) + 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = Selection(0, 1, rng.uniform(-1, 1, 33))
        g = Selection(0, 1, rng.uniform(-1, 1, 33))
        al, be = 1.7, -0.4
        comb = Selection(0, 1, al * f.values + be * g.values)
        for rho in (0.5, 1.5):
            got = rl_scalar(comb, rho, 32)
            expected = al * rl_scalar(f, rho, 32) + be * rl_scalar(g, rho, 32)
            assert abs(got - expected) < 1e-12

    def test_semigroup_property_numerically(self):
        # J^0.5 (J^0.5 f) vs J^1 f at the right endpoint; the inner result
        # leaves the representation class, so only O(step^2) agreement.
        n = 256
        f = Selection(0, 1, np.linspace(0, 1, n + 1))
        w = rl_weight_matrix(0, 1, n, 0.5)
        inner = Selection(0, 1, w @ f.values)
        got = rl_scalar(inner, 0.5, n)
        assert abs(got - rl_scalar(f, 1.0, n)) < 1e-4


class TestRlSetvalued:
    def test_classical_order_one(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 64)
        g = rl_setvalued(f, 1.0)
        u = f.nodes
        assert np.allclose(g.lo, -(u**2) / 2, atol=1e-14)
        assert np.allclose(g.hi, u**2 / 2, atol=1e-14)

    def test_monomial_rule_both_endpoints(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 64)
        g = rl_setvalued(f, 0.5)
        expected = 1.0 / gamma_fn(2.5)
        assert abs(g.hi[-1] - expected) < 1e-12
        assert abs(g.lo[-1] + expected) < 1e-12

    def test_constant_map_power_rule(self):
        f = GridMap.from_builtin("constant", 0, 1, 32, lo=0.0, hi=1.0)
        g = rl_setvalued(f, 2.0)
        assert abs(g.lo[-1]) < 1e-15
        assert abs(g.hi[-1] - 0.5) < 1e-14

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            rl_setvalued(GridMap.from_builtin("sym_linear"), 0.0)


class TestSelectionOracle:
    def test_degenerate_map_single_value(self):
        f = GridMap(0, 1, [0, 1, 2], [0, 1, 2])
        vals = rl_selection_oracle(f, 0.5, 2, samples=16, seed=1)
        assert len(vals) == 1
        assert abs(vals[0] - rl_scalar(f.extremal_lower(), 0.5, 2)) < 1e-15

    def test_hull_matches_endpoint_identity(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 64)
        g = rl_setvalued(f, 0.7)
        vals = rl_selection_oracle(f, 0.7, 64, samples=200, seed=42)
        assert abs(min(vals) - g.lo[-1]) < 1e-9
        assert abs(max(vals) - g.hi[-1]) < 1e-9
        assert all(g.lo[-1] - 1e-9 <= v <= g.hi[-1] + 1e-9 for v in vals)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.7])
    @pytest.mark.parametrize("n", [20, 48])
    def test_values_are_random_selection_integrals(self, rho, n):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 48)
        seed, samples = 11, 30
        expected = sorted(
            {rl_scalar(random_selection(f, seed + k), rho, n) for k in range(samples)}
            | {rl_scalar(f.extremal_lower(), rho, n), rl_scalar(f.extremal_upper(), rho, n)}
        )
        vals = rl_selection_oracle(f, rho, n, samples=samples, seed=seed)
        assert len(vals) == len(expected) == samples + 2
        assert np.abs(np.subtract(vals, expected)).max() <= 1e-13

    @pytest.mark.parametrize("n", [16, 1024])
    def test_random_selections_integrate_between_the_two_dots(self, n):
        """Every random-selection integral at node N lies in [row @ lo,
        row @ hi], the values 3.1, 3.2 and the endpoint identity read, up to
        the roundoff of the dot products: gamma_m sum |row_k| max(|lo_k|,
        |hi_k|) each, with gamma_m = m eps (Higham 2002, ch. 3)."""
        for name, f in fixture_catalog(n).items():
            for rho in DEFAULT_RHOS:
                row = RLOperator(f.a, f.b, n, rho).row(n)
                lo, hi = sorted([float(row @ f.lo), float(row @ f.hi)])
                tol = 8 * row.size * np.finfo(float).eps * float(np.abs(row) @ np.maximum(np.abs(f.lo), np.abs(f.hi)))
                vals = selection_integrals(f, row, range(7, 207))
                assert lo - tol <= vals.min() and vals.max() <= hi + tol, (name, rho)

    @pytest.mark.parametrize("n", [100, 8191, 20000])
    def test_extremal_integrals_in_runs_of_dots(self, n):
        """integral_set's extremal values are row @ lo and row @ hi: one dot,
        bit for bit, up to 8192 nodes; beyond, dots over runs of 8192 nodes
        added in order, within roundoff of the one dot."""
        f = GridMap.from_builtin("sin_envelope", 0, 1, n)
        row = RLOperator(0, 1, n, 1.5).row(n)
        vals = integral_set(f, row)
        runs = [float(sum(np.dot(row[k : k + 8192], v[k : k + 8192]) for k in range(0, n + 1, 8192)))
                for v in (f.lo, f.hi)]
        assert vals == tuple(sorted(runs))
        one = sorted([float(row @ f.lo), float(row @ f.hi)])
        if n + 1 <= 8192:
            assert list(vals) == one
        assert np.allclose(vals, one, rtol=1e-14, atol=0)

    def test_cardinality_with_one_sample(self):
        f = GridMap.from_builtin("constant", 0, 1, 8, lo=-1.0, hi=1.0)
        vals = rl_selection_oracle(f, 0.5, 8, samples=1, seed=0)
        assert 1 <= len(vals) <= 3

    def test_convex_combinations_stay_inside(self):
        f = GridMap.from_builtin("affine", 0, 1, 32)
        rho = 1.3
        g = rl_setvalued(f, rho)
        lo, hi = g.lo[32], g.hi[32]
        vals = rl_selection_oracle(f, rho, 32, samples=40, seed=5)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y1, y2 = rng.choice(vals, 2)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                y = lam * y1 + (1 - lam) * y2
                assert lo <= min(max(y, lo - 0), hi) <= hi or (
                    lo - 1e-9 <= y <= hi + 1e-9
                )


class TestChatteringDemo:
    def test_hull_approaches_convexified_interval(self):
        rho = 0.8
        n = 2**6
        vals = [rl_piecewise_constant(_duty_cycle(k, n), 0.0, 1.0, rho, 1.0) for k in range(n + 1)]
        target = 1.0 / gamma_fn(rho + 1.0)
        assert abs(max(vals) - target) <= 0.05 * target
        assert abs(min(vals) + target) <= 0.05 * target

    def test_interior_points_are_dense(self):
        # duty-cycle selections fill the interior, not just the endpoints
        rho, n = 0.8, 64
        vals = sorted(
            rl_piecewise_constant(_duty_cycle(k, n), 0.0, 1.0, rho, 1.0) for k in range(n + 1)
        )
        gaps = np.diff(vals)
        assert gaps.max() < 0.1 * (vals[-1] - vals[0])
