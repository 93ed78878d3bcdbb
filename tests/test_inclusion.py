import math
from math import gamma as gamma_fn

import numpy as np
import pytest

from svfrac import (
    CaputoProblem,
    GridMap,
    NonConvergenceError,
    Trajectory,
    bound_sup,
    solution_funnel,
    solve_with_policy,
)
from svfrac.inclusion import _policy_values, funnel_to_csv, rhs_monotone_in_u


def constant_problem(c=1.0, alpha=1.5):
    return CaputoProblem(
        alpha=alpha, t0=0.0, T=1.0, u0=0.0, u1=0.0,
        rhs=lambda t, u: (c, c), rhs_lipschitz_u=0.0,
    )


class TestProblemValidation:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5])
    def test_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ValueError):
            constant_problem(alpha=alpha)

    def test_time_ordering(self):
        with pytest.raises(ValueError):
            CaputoProblem(1.5, 1.0, 0.0, 0.0, 0.0, lambda t, u: (0, 0))

    def test_from_json(self):
        p = CaputoProblem.from_json(
            {
                "alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.0, "u1": 0.0,
                "rhs": {"kind": "constant", "params": {"lo": 1.0}},
                "lipschitz_u": 0.0,
            }
        )
        assert p.rhs(0.3, 7.0) == (1.0, 1.0)

    @pytest.mark.parametrize("lipschitz", [0.0, 0.4, 3.0])
    @pytest.mark.parametrize("t0, T", [(0.0, 1.0), (-2.0, 10.0)])
    def test_contraction_factor_is_the_sup_bound_with_m_l(self, lipschitz, t0, T):
        p = CaputoProblem(1.5, t0, T, 0.0, 0.0, lambda t, u: (0, 0), rhs_lipschitz_u=lipschitz)
        assert p.contraction_factor() == bound_sup(1.5, lipschitz, t0, T)

    def test_contraction_factor_beyond_float_range_names_the_scale(self):
        p = CaputoProblem(1.5, 0.0, 1e207, 1.0, 0.0, lambda t, u: (0, 0), rhs_lipschitz_u=1.0)
        with pytest.raises(OverflowError, match=r"exponent 1.5 on \[0.0, 1e\+207\] is not finite"):
            p.contraction_factor()

    def test_unknown_rhs_kind(self):
        with pytest.raises(ValueError):
            CaputoProblem.from_json(
                {"alpha": 1.5, "t0": 0, "T": 1, "u0": 0, "u1": 0, "rhs": {"kind": "bogus"}}
            )


class TestSolveWithPolicy:
    def test_constant_rhs_closed_form(self):
        # u(t) = c * t^alpha / Gamma(alpha + 1)
        traj = solve_with_policy(constant_problem(), "midpoint", n=256)
        expected = 1.0 / gamma_fn(2.5)
        assert abs(traj.us[-1] - expected) < 1e-10
        assert traj.us[0] == 0.0

    def test_policies_agree_for_degenerate_rhs(self):
        for policy in ("lower", "upper", "midpoint"):
            traj = solve_with_policy(constant_problem(), policy, n=64)
            assert abs(traj.us[-1] - 1.0 / gamma_fn(2.5)) < 1e-10

    def test_symmetric_rhs_midpoint_one_iteration(self):
        p = CaputoProblem(
            1.5, 0.0, 1.0, 0.5, 2.0, lambda t, u: (-3.0, 3.0)
        )
        traj = solve_with_policy(p, "midpoint", n=64)
        assert traj.iterations_used == 1
        assert np.allclose(traj.us, 0.5 + 2.0 * traj.ts)

    def test_time_dependent_rhs_closed_form(self):
        # v(t) = t: u(1) = Gamma(2)/Gamma(alpha + 2) = 1/Gamma(3.5)
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (t, t))
        traj = solve_with_policy(p, "lower", n=256)
        assert abs(traj.us[-1] - 1.0 / gamma_fn(3.5)) < 1e-10

    def test_initial_conditions_and_linear_part(self):
        p = CaputoProblem(1.2, 0.0, 2.0, -1.0, 3.0, lambda t, u: (0.0, 0.0))
        traj = solve_with_policy(p, "midpoint", n=32)
        assert traj.us[0] == -1.0
        assert np.allclose(traj.us, -1.0 + 3.0 * traj.ts)

    def test_initial_slope_convergence_rate(self):
        # discrete initial slope converges to u1 at rate O(dt^(alpha-1))
        alpha = 1.5
        p = constant_problem(alpha=alpha)
        errs = []
        for n in (128, 256, 512):
            traj = solve_with_policy(p, "midpoint", n=n)
            dt = 1.0 / n
            errs.append(abs((traj.us[1] - traj.us[0]) / dt - p.u1))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > alpha - 1.0 - 0.2)

    def test_contraction_converges_quickly(self):
        p = CaputoProblem(
            1.5, 0.0, 1.0, 1.0, 0.0,
            rhs=lambda t, u: (-0.4 * u - 0.1, -0.4 * u + 0.1),
            rhs_lipschitz_u=0.4,
        )
        assert p.contraction_factor() <= 0.5
        traj = solve_with_policy(p, "midpoint", n=128, max_iter=50, tol=1e-10)
        assert traj.iterations_used <= 50
        assert traj.residual <= 1e-10

    def test_nonconvergence_raises_with_history(self):
        p = CaputoProblem(
            1.5, 0.0, 1.0, 1.0, 0.0,
            rhs=lambda t, u: (10.0 * u, 10.0 * u),
            rhs_lipschitz_u=10.0,
        )
        with pytest.warns(UserWarning, match="contraction"):
            with pytest.raises(NonConvergenceError) as exc_info:
                solve_with_policy(p, "midpoint", n=32, max_iter=10)
        assert len(exc_info.value.residuals) == 10

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            solve_with_policy(constant_problem(), "median")

    @pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": 1e-320},
                                        {"max_iter": 0}])
    @pytest.mark.parametrize("solve", [solve_with_policy, solution_funnel])
    def test_picard_arguments_are_checked(self, solve, kwargs):
        """Picard's tolerance is a positive normal float and its sweep cap at
        least 1, checked before the first sweep."""
        with pytest.raises(ValueError, match="tolerance|max_iter"):
            solve(constant_problem(), n=8, **kwargs)


class TestSolutionFunnel:
    def test_symmetric_constant_rhs(self):
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (-1.0, 1.0))
        g = solution_funnel(p, n=256)
        expected = 1.0 / gamma_fn(2.5)
        assert abs(g.hi[-1] - expected) < 1e-10
        assert abs(g.lo[-1] + expected) < 1e-10

    def test_degenerate_rhs_gives_degenerate_funnel(self):
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (t, t))
        g = solution_funnel(p, n=256)
        assert np.allclose(g.lo, g.hi, atol=1e-12)
        assert abs(g.hi[-1] - 1.0 / gamma_fn(3.5)) < 1e-10

    def test_funnel_ordering_for_monotone_rhs(self):
        p = CaputoProblem(
            1.5, 0.0, 1.0, 0.0, 0.0,
            rhs=lambda t, u: (0.2 * u, 0.2 * u + 1.0),
            rhs_lipschitz_u=0.2,
        )
        assert rhs_monotone_in_u(p)
        low = solve_with_policy(p, "lower", n=64)
        high = solve_with_policy(p, "upper", n=64)
        assert np.all(low.us <= high.us + 1e-12)

    def test_nonmonotone_rhs_warns(self):
        p = CaputoProblem(
            1.5, 0.0, 1.0, 0.0, 0.0,
            rhs=lambda t, u: (-abs(u) - 1.0, abs(u) + 1.0),
            rhs_lipschitz_u=1.0,
        )
        with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
            solution_funnel(p, n=32)

    def test_csv_format(self):
        p = constant_problem()
        text = funnel_to_csv(solution_funnel(p, n=4))
        lines = text.strip().split("\n")
        assert lines[0] == "t,lo,hi"
        assert len(lines) == 6

    def test_csv_writers_print_twelve_significant_digits(self):
        g = GridMap(0.0, 1.0, [-1 / 3, 1e-20], [2 / 3, 1e20])
        rows = "0,-0.333333333333,0.666666666667\n1,1e-20,1e+20\n"
        assert g.to_csv() == "u,lo,hi\n" + rows
        assert funnel_to_csv(g) == "t,lo,hi\n" + rows
        traj = Trajectory(np.array([0.0, 1 / 3]), np.array([2 / 3, -1e-20]), 1, 0.0)
        assert traj.to_csv() == "t,u\n0,0.666666666667\n0.333333333333,-1e-20\n"


class TestArrayProtocol:
    """The field is called once per sweep on the whole grid, and once on the
    monotonicity probe grid; its endpoints are checked on every call."""

    def test_one_call_per_sweep_and_probe(self):
        shapes = []

        def rhs(t, u):
            shapes.append(np.broadcast(t, u).shape)
            return 0.4 * u - 0.1, 0.4 * u + 0.1

        p = CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs, rhs_lipschitz_u=0.4)
        sweeps = [solve_with_policy(p, policy, n=64).iterations_used for policy in ("lower", "upper")]
        assert shapes == [(65,)] * sum(sweeps)
        shapes.clear()
        solution_funnel(p, n=64)
        assert shapes == [(65,)] * sum(sweeps) + [(17, 17)]

    @pytest.mark.parametrize(
        "rhs, node",
        [
            (lambda t, u: (np.where(np.arange(t.size) == 5, 2.0, 0.0), 1.0), 5),
            (lambda t, u: (0.0, np.where(t > 0.5, np.nan, 1.0)), 9),
        ],
        ids=["lo_above_hi", "nan_hi"],
    )
    def test_invalid_endpoints_name_the_node(self, rhs, node):
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, rhs)
        with pytest.raises(ValueError, match=f"at node {node} "):
            solve_with_policy(p, "midpoint", n=16)

    def test_midpoint_policy_near_the_float_limit(self):
        """lo + hi overflows here; the midpoint itself does not."""
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (1e308, 1.7e308))
        ts = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(_policy_values(p.rhs, ts, ts, "midpoint"), np.full(5, 1.35e308))

    def test_probe_checks_endpoints(self):
        # valid near the solution (|u| < 1), invalid on the probe grid's u > 5
        p = CaputoProblem(1.5, 0.0, 1.0, 0.0, 0.0, lambda t, u: (np.where(u > 5, 2.0, 0.0), 1.0))
        solve_with_policy(p, "upper", n=16)
        with pytest.raises(ValueError, match="u=6.25"):
            rhs_monotone_in_u(p)
