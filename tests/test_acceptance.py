"""Acceptance suite: quantitative targets with analytically derived expected
values, one test per criterion, one printed pass line each (run with -s to
see them)."""

import json
from math import gamma as gamma_fn

import numpy as np
import pytest

from _reference import _duty_cycle, rl_scalar, rl_selection_oracle
from svfrac import (
    GridMap,
    RLOperator,
    Selection,
    continuity_modulus,
    hausdorff,
    lipschitz_constant,
    rl_setvalued,
    total_variation,
)
from svfrac.cli import main
from svfrac.inclusion import CaputoProblem, solve_with_policy
from svfrac.rl import bound_l0, bound_sup
from svfrac.verify import fixture_catalog

RHOS = (0.3, 0.5, 1.0, 1.5, 2.7)
BOUND_RHOS = (0.5, 1.0, 1.5, 2.7)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def monomial_selection(beta, n):
    u = np.linspace(0.0, 1.0, n + 1)
    return Selection(0.0, 1.0, u**beta)


def power_rule(beta, rho, u=1.0):
    return gamma_fn(beta + 1.0) / gamma_fn(beta + 1.0 + rho) * u ** (beta + rho)


class TestCriterion1QuadratureExactness:
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("beta", [0, 1])
    def test_representation_exact_monomials(self, beta, rho):
        n = 256
        got = rl_scalar(monomial_selection(beta, n), rho, n)
        expected = power_rule(beta, rho)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_quadratic_convergence_and_fine_grid_error(self):
        rho = 0.5
        expected = power_rule(2, rho)
        errs = {}
        for n in (256, 512, 1024, 4096):
            errs[n] = abs(rl_scalar(monomial_selection(2, n), rho, n) - expected) / expected
        orders = [np.log2(errs[256] / errs[512]), np.log2(errs[512] / errs[1024])]
        # finite-grid order estimates approach 2 from below (~1.995 here);
        # allow the usual empirical-order slack
        assert min(orders) >= 2.0 - 0.05
        assert errs[4096] <= 1e-6
        report(1, f"power-rule exact (beta 0,1); beta=2 order {min(orders):.2f}, "
                  f"rel err {errs[4096]:.2e} at grid 4096")


@pytest.fixture(scope="module")
def oracle_setup():
    f = GridMap.from_builtin("sym_linear", 0.0, 1.0, 256)
    g = rl_setvalued(f, 0.7)
    vals = rl_selection_oracle(f, 0.7, 256, samples=2000, seed=42)
    return f, g, vals


class TestCriterion2EndpointIdentity:
    def test_oracle_hull_matches_interval(self, oracle_setup):
        _, g, vals = oracle_setup
        lo, hi = g.lo[256], g.hi[256]
        assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in vals)
        hull = min(vals), max(vals)
        assert hausdorff(hull, (lo, hi)) <= 1e-9
        report(2, f"oracle hull vs extremal interval: H_d {hausdorff(hull, (lo, hi)):.2e}")


class TestCriterion3Convexity:
    def test_random_combinations_are_members(self, oracle_setup):
        _, g, vals = oracle_setup
        lo, hi = g.lo[256], g.hi[256]
        rng = np.random.default_rng(42)
        failures = 0
        for _ in range(100):
            y1, y2 = rng.choice(vals, 2)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                y = lam * y1 + (1 - lam) * y2
                if not (lo - 1e-12 <= y <= hi + 1e-12):
                    failures += 1
        assert failures == 0
        report(3, "500 convex combinations of oracle values, zero membership failures")


class TestCriterion4BoundednessBound:
    def test_all_fixtures_below_bound(self):
        for name, f in fixture_catalog(64).items():
            for rho in BOUND_RHOS:
                g = rl_setvalued(f, rho)
                measured = max(hausdorff((g.lo[i], g.hi[i]), (0.0, 0.0)) for i in range(65))
                bound = bound_sup(rho, f.sup_bound(), f.a, f.b)
                assert measured <= bound + 1e-9, (name, rho)

    def test_tightness_for_constant_map_order_one(self):
        m = 2.0
        f = GridMap.from_builtin("constant", 0.0, 1.0, 64, lo=-m, hi=m)
        g = rl_setvalued(f, 1.0)
        measured = hausdorff((g.lo[64], g.hi[64]), (0.0, 0.0))
        bound = bound_sup(1.0, m, 0.0, 1.0)
        assert abs(measured - bound) <= 1e-12
        report(4, f"sup bound holds on all fixtures; tight at rho=1 "
                  f"(gap {abs(measured - bound):.2e})")


class TestCriterion5ContinuityModulus:
    def test_hausdorff_increments_dominated(self):
        rng = np.random.default_rng(42)
        for name, f in fixture_catalog(64).items():
            for rho in BOUND_RHOS:
                g = rl_setvalued(f, rho)
                nodes = g.nodes
                for _ in range(100):
                    i, j = sorted(rng.integers(0, 65, 2))
                    hd = hausdorff((g.lo[i], g.hi[i]), (g.lo[j], g.hi[j]))
                    phi = continuity_modulus(f, rho, nodes[i], nodes[j])
                    assert hd <= phi + 1e-8, (name, rho)

    def test_modulus_shrinks_three_decades(self):
        # decay ratio along halving steps is ~2^(-11*rho), which crosses the
        # 1e-3 target only for rho above ~0.91; run where the target applies
        for name, f in fixture_catalog(64).items():
            for rho in (1.0, 1.5, 2.7):
                u = f.a
                phis = [continuity_modulus(f, rho, u, u + 2.0**-k) for k in range(1, 13)]
                assert all(p1 <= p0 + 1e-12 for p0, p1 in zip(phis, phis[1:])), (name, rho)
                assert phis[-1] <= 1e-3 * phis[0], (name, rho)
        report(5, "H_d <= modulus on 100 random pairs per fixture; modulus "
                  "decays monotonically below 1e-3 of its half-width value")


class TestCriterion6VariationInheritance:
    def test_variation_bracket_at_rho_15(self):
        for name, f in fixture_catalog(64).items():
            g = rl_setvalued(f, 1.5)
            va = total_variation(g.extremal_lower())
            vb = total_variation(g.extremal_upper())
            vg = total_variation(g)
            assert vg <= va + vb + 1e-12, name
            assert vg >= max(va, vb) - 1e-12, name
        report(6, "V(G) within [max(V(A),V(B)), V(A)+V(B)] on all fixtures at rho=1.5")


class TestCriterion7LipschitzInheritance:
    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_lipschitz_bound(self, rho):
        for name, f in fixture_catalog(64).items():
            g = rl_setvalued(f, rho)
            bound = bound_l0(rho, f.sup_bound(), f.a, f.b)
            assert lipschitz_constant(g) <= bound + 1e-9, (name, rho)
        report(7, f"Lip(G) <= M(b-a)^(rho-1)/Gamma(rho) at rho={rho}")


class TestCriterion8ExtremalSelections:
    @pytest.mark.parametrize("rho", [1.5, 2.0, 2.7])
    def test_membership_and_inherited_regularity(self, rho):
        for name, f in fixture_catalog(64).items():
            g = rl_setvalued(f, rho)
            vg, lg = total_variation(g), lipschitz_constant(g)
            for sel in (g.extremal_lower(), g.extremal_upper()):
                assert sel.is_selection_of(g), (name, rho)
                assert total_variation(sel) <= vg + 1e-12, (name, rho)
                assert lipschitz_constant(sel) <= lg + 1e-12, (name, rho)
        report(8, f"extremal selections: membership + V/Lip inheritance at rho={rho}")


class TestCriterion9InclusionSolver:
    def test_constant_rhs(self):
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (1.0, 1.0))
        traj = solve_with_policy(p, "midpoint", n=1024)
        assert abs(traj.us[-1] - 1.0 / gamma_fn(2.5)) <= 1e-4

    def test_linear_time_rhs(self):
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (t, t))
        traj = solve_with_policy(p, "midpoint", n=1024)
        assert abs(traj.us[-1] - 1.0 / gamma_fn(3.5)) <= 1e-4

    def test_contraction_fixtures_converge(self):
        fixtures = [
            CaputoProblem(
                1.5, 0.0, 1.0, 1.0, 0.0,
                rhs=lambda t, u: (-0.4 * u - 0.1, -0.4 * u + 0.1),
                rhs_lipschitz_u=0.4,
            ),
            CaputoProblem(
                1.2, 0.0, 1.0, 0.0, 1.0,
                rhs=lambda t, u: (0.3 * u, 0.3 * u + 0.5),
                rhs_lipschitz_u=0.3,
            ),
        ]
        for p in fixtures:
            assert p.contraction_factor() <= 0.5
            traj = solve_with_policy(p, "midpoint", n=128, max_iter=50, tol=1e-10)
            assert traj.residual <= 1e-10
        report(9, "closed-form Caputo targets within 1e-4; contraction fixtures "
                  "converge within 50 iterations at tol 1e-10")


class TestCriterion10NonconvexDemo:
    def test_chattering_hull(self):
        # the node-N integrals of the bang-bang node selections of the constant map [-1, 1]
        rho, n = 0.8, 64
        row = RLOperator(0.0, 1.0, n, rho).row(n)
        vals = [float(row @ _duty_cycle(k, n + 1)) for k in range(n + 2)]
        target = 1.0 / gamma_fn(rho + 1.0)
        assert abs(max(vals) - target) <= 0.05 * target
        assert abs(min(vals) + target) <= 0.05 * target
        report(10, f"chattering hull [{min(vals):.4f}, {max(vals):.4f}] vs "
                   f"[-{target:.4f}, {target:.4f}] at depth 6")


class TestCriterion11Determinism:
    def test_verify_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--grid", "16", "--seed", "42"]
        code1 = main(args + ["--output", str(out1)])
        code2 = main(args + ["--output", str(out2)])
        assert code1 == code2 == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert json.loads(b1)  # valid JSON
        report(11, "two verify runs with identical config are byte-identical")
