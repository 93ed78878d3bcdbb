"""The direct solve of affine inclusions: the resolvent operator R = (I - pW)^-1 W
against dense forward substitution on the same weights, the funnel against
the Mittag-Leffler closed form over long horizons, and the structure of one
solve (one weight build, the probe's one field call)."""

import dataclasses
import functools
import json

import numpy as np
import pytest

from _reference import forward_substitution, mittag_leffler, toeplitz_matrix
from svfrac import AffineField, CaputoProblem, RLOperator, quadrature_weights, rl, solution_funnel, solve_with_policy
from svfrac.cli import main

ALPHA = 1.5


def affine_spec(p, T, u0=1.0, u1=0.5, q_lo=-0.1, q_hi=0.1):
    return {"alpha": ALPHA, "t0": 0.0, "T": T, "u0": u0, "u1": u1,
            "rhs": {"kind": "affine", "params": {"p": p, "q_lo": q_lo, "q_hi": q_hi}}}


def affine_problem(*args, **kwargs):
    return CaputoProblem.from_json(affine_spec(*args, **kwargs))


@functools.lru_cache(maxsize=1)
def dense(n, T):
    return toeplitz_matrix(*quadrature_weights(0.0, T, n, ALPHA))


# (64, 40, 10) is the one grid point where p b_0 > 1: see test_alternating_growth_is_refused.
ORACLE_CASES = [
    (n, T, p)
    for n in (64, 256, 1024)
    for T in (1.0, 10.0, 40.0)
    for p in (-10.0, -1.0, 1.0, 3.0, 10.0)
    if (n, T, p) != (64, 40.0, 10.0)
]


@pytest.mark.parametrize("n, T, p", ORACLE_CASES)
def test_direct_solve_matches_forward_substitution(n, T, p):
    """The oscillator's initial data, u0 = 1 and u1 = 0. Norm-wise, since an
    FFT's roundoff is relative to the largest value it transforms; and node
    by node where p > 0, where the solution grows (to 4e80 at p = 10,
    T = 40) and the resolvent is weighted by its growth, so that early nodes
    do not carry the late nodes' absolute error."""
    traj = solve_with_policy(affine_problem(p, T, u1=0.0), "upper", n=n)
    expected = forward_substitution(dense(n, T), p, np.ones(n + 1), np.full(n + 1, 0.1))
    assert traj.iterations_used == 1
    assert np.abs(traj.us - expected).max() <= 1e-12 * np.abs(expected).max()
    if p > 0:
        assert (np.abs(traj.us - expected) <= 1e-12 * np.abs(expected)).all()


@pytest.mark.parametrize("n, T, p", ORACLE_CASES)
def test_direct_solve_with_a_slope(n, T, p):
    """u1 = 0.5. The solve forms u - init = R(p init + q) and adds init, so
    its roundoff is relative to max|u - init|, which exceeds max|u| where the
    solution decays from a rising initial line (21 against 1 at p = -10,
    T = 40)."""
    traj = solve_with_policy(affine_problem(p, T), "upper", n=n)
    init = 1.0 + 0.5 * traj.ts
    expected = forward_substitution(dense(n, T), p, init, np.full(n + 1, 0.1))
    assert np.abs(traj.us - expected).max() <= 1e-12 * np.abs(expected - init).max()


def test_alternating_growth_is_refused():
    """At N = 64 on [0, 40], p b_0 = 1.49 > 1 for p = 10: the discrete
    solution alternates in sign and grows about 9.7-fold per step, where the
    inclusion's grows monotonically. That grid is refused, not solved."""
    n, T, p = 64, 40.0, 10.0
    kernel, _ = quadrature_weights(0.0, T, n, ALPHA)
    assert p * kernel[0] > 1.0
    ts = np.linspace(0.0, T, n + 1)
    u = forward_substitution(dense(n, T), p, 1.0 + 0.5 * ts, np.full(n + 1, 0.1))
    tail = u[-16:]
    assert (np.sign(tail[1:]) == -np.sign(tail[:-1])).all()
    assert np.abs(tail[1:] / tail[:-1]).min() > 9.0
    with pytest.raises(ValueError, match="too coarse for p = 10.0: .* 9.7-fold per step"):
        solve_with_policy(affine_problem(p, T), "upper", n=n)
    # A finer grid of the same problem is solved.
    assert np.isfinite(solve_with_policy(affine_problem(p, T), "upper", n=256).us).all()


def test_tolerated_alternating_growth_is_solved(monkeypatch):
    """D^1.5 u in -u at N = 8 on [0, 10] alternates in sign and grows e^0.97
    over the grid, below e^ALTERNATING_LIMIT: admitted and solved as it is,
    and refused with a limit below that growth."""
    n, T = 8, 10.0
    problem = affine_problem(-1.0, T, u1=0.0, q_lo=0.0, q_hi=0.0)
    traj = solve_with_policy(problem, "upper", n=n)
    expected = forward_substitution(dense(n, T), -1.0, np.ones(n + 1), np.zeros(n + 1))
    assert np.abs(traj.us - expected).max() <= 1e-12 * np.abs(expected).max()
    assert max(abs(u - mittag_leffler(ALPHA, 1.0, -t**ALPHA)) for t, u in zip(traj.ts, traj.us)) <= 0.054
    monkeypatch.setattr(rl, "ALTERNATING_LIMIT", 0.96)
    with pytest.raises(ValueError, match="too coarse for p = -1.0: .* 1.13-fold per step"):
        solve_with_policy(problem, "upper", n=n)


def test_singular_step_is_value_error():
    """1 - p b_0 = 0 exactly: the first node's equation has no solution."""
    n, T = 64, 1.0
    b0 = quadrature_weights(0.0, T, n, ALPHA)[0][0]
    candidates = [1.0 / b0, np.nextafter(1.0 / b0, 0.0), np.nextafter(1.0 / b0, np.inf)]
    p = next(float(c) for c in candidates if 1.0 - c * b0 == 0.0)
    with pytest.raises(ValueError, match="singular step"):
        RLOperator(0.0, T, n, ALPHA, p=p)
    with pytest.raises(ValueError, match="singular step"):
        solution_funnel(affine_problem(p, T), n=n)


@pytest.mark.parametrize("mode", [[], ["--funnel"]])
def test_singular_and_coarse_steps_are_parameter_errors(tmp_path, capsys, mode):
    """Exit 3 on one stderr line, no output file, no traceback. For p > 0 so is
    every p b_0 > 1 (13.3 at p = 1000, N = 8), and a growth Newton does not settle."""
    b0 = quadrature_weights(0.0, 1.0, 64, ALPHA)[0][0]
    singular = next(float(c) for c in (1.0 / b0, np.nextafter(1.0 / b0, 0.0), np.nextafter(1.0 / b0, np.inf))
                    if 1.0 - c * b0 == 0.0)
    bang = {"u1": 0.0, "q_lo": -1.0, "q_hi": 1.0}
    for spec, grid, message in ((affine_spec(singular, 1.0), "64", "singular step: 1 - p b_0 = 0"),
                                (affine_spec(10.0, 40.0), "64", "the grid is too coarse for p = 10.0"),
                                (affine_spec(1000.0, 1.0, **bang), "8", "the grid is too coarse for p = 1000.0"),
                                (affine_spec(1e20, 1.0, **bang), "8", "the grid is too coarse for p = 1e+20"),
                                ({**affine_spec(-1e8, 0.001, **bang), "alpha": 1.8}, "5",
                                 "the grid is too coarse for p = -100000000.0: with b_0 = 4.68053e-08"),
                                ({**affine_spec(100.0, 10.0, **bang), "alpha": 1.8}, "5",
                                 "the grid is too coarse for p = 100.0: with b_0 = 0.741814")):
        path, out = tmp_path / "problem.json", tmp_path / "never.csv"
        path.write_text(json.dumps(spec))
        assert main(["inclusion", "--input", str(path), "--grid", grid, "--output", str(out)] + mode) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: {message}") and err.count("\n") == 1, err
        assert not out.exists()


def test_cli_reports_one_iteration_and_the_defect(tmp_path, capsys):
    """Without --funnel, the direct solve's stderr line reads iterations_used=1
    and the trajectory's residual, the defect of the discrete equations."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(affine_spec(-1.0, 10.0)))
    assert main(["inclusion", "--input", str(path), "--policy", "lower", "--grid", "256",
                 "--output", str(tmp_path / "u.csv")]) == 0
    residual = solve_with_policy(affine_problem(-1.0, 10.0), "lower", n=256).residual
    assert capsys.readouterr().err == f"iterations_used=1 residual={residual:.12g}\n"
    assert 0.0 < residual < 1e-12


@pytest.mark.parametrize("rho", [0.3, 1.5, 2.7])
def test_p_zero_is_the_rl_operator_bit_for_bit(rho):
    values = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 130))
    assert np.array_equal(RLOperator(0.0, 2.0, 129, rho, p=0.0)(values), RLOperator(0.0, 2.0, 129, rho)(values))


def test_resolvent_has_no_rows():
    op = RLOperator(0.0, 1.0, 16, ALPHA, p=-1.0)
    with pytest.raises(ValueError, match="not its resolvent's"):
        op.row(3)


def test_one_weight_build_and_one_field_call_per_funnel(monkeypatch):
    """One quadrature_weights call serves both policies, and the field is
    called once, by the monotonicity probe, also when rhs is replaced by a
    wrapper (as a tracer does): the solve reads the affine record."""
    builds, calls = [], []
    real_weights = rl.quadrature_weights

    def weights(*args):
        builds.append(args)
        return real_weights(*args)

    monkeypatch.setattr(rl, "quadrature_weights", weights)
    problem = affine_problem(-1.0, 10.0)
    field = problem.rhs
    problem.rhs = functools.wraps(field)(lambda t, u: calls.append(np.broadcast(t, u).shape) or field(t, u))
    with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
        solution_funnel(problem, n=256)
    assert len(builds) == 1
    assert calls == [(17, 17)]


def test_residual_is_the_defect_of_the_discrete_equations():
    n, T, p = 256, 10.0, -1.0
    traj = solve_with_policy(affine_problem(p, T), "lower", n=n)
    w = dense(n, T)
    init = 1.0 + 0.5 * traj.ts
    defect = np.abs(traj.us - init - w @ (p * traj.us - 0.1)).max()
    assert traj.residual == pytest.approx(defect, abs=1e-13)
    assert traj.residual < 1e-12


def test_an_affine_rhs_is_solved_directly():
    """An AffineField given as rhs through the Python API is the affine
    record, so the benchmark's oscillator at T = 40, where Picard diverges,
    gives the funnel of the same problem read from a file, bit for bit."""
    problem = CaputoProblem(1.5, 0.0, 40.0, 1.0, 0.0, rhs=AffineField(-1.0, -0.1, 0.1))
    with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
        g = solution_funnel(problem, n=2048)
        ref = solution_funnel(affine_problem(-1.0, 40.0, u1=0.0), n=2048)
    assert problem.affine is problem.rhs
    assert np.array_equal(g.lo, ref.lo) and np.array_equal(g.hi, ref.hi)


def test_the_affine_record_is_no_constructor_argument():
    with pytest.raises(TypeError, match="affine"):
        CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs=AffineField(-1.0), affine=AffineField(-1.0))


def test_a_reassigned_affine_field_is_the_one_solved():
    """The affine record is read from rhs, so the field assigned last is solved."""
    problem = CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs=AffineField(-1.0))
    problem.rhs = AffineField(1.0)
    fresh = CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs=AffineField(1.0))
    us = solve_with_policy(problem, "lower", n=64).us
    assert np.array_equal(us, solve_with_policy(fresh, "lower", n=64).us)
    assert us[-1] == pytest.approx(1.93952, abs=1e-5)


def test_a_callable_assigned_to_rhs_is_solved_by_picard():
    """A plain callable replacing an AffineField is no affine record: it is
    solved as that callable, by Picard iteration."""
    problem = CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs=AffineField(-1.0), rhs_lipschitz_u=0.8)
    calls = []
    problem.rhs = lambda t, u: calls.append(1) or (0.4 * u, 0.4 * u)
    assert problem.affine is None
    traj = solve_with_policy(problem, "lower", n=64)
    assert traj.iterations_used > 2 and len(calls) == traj.iterations_used
    direct = solve_with_policy(CaputoProblem(1.5, 0.0, 1.0, 1.0, 0.0, rhs=AffineField(0.4)), "lower", n=64)
    assert np.abs(traj.us - direct.us).max() < 1e-10


def test_a_callable_field_keeps_picard():
    record = affine_problem(-0.4, 1.0)
    problem = dataclasses.replace(record, rhs=lambda t, u: record.rhs(t, u))
    traj = solve_with_policy(problem, "lower", n=128)
    assert traj.iterations_used > 2
    direct = solve_with_policy(record, "lower", n=128)
    assert np.abs(traj.us - direct.us).max() < 1e-10


@functools.cache
def oscillator_nodes(T):
    """(A, C) at t = k T / 8, k = 1..8, for the oscillator D^1.5 u = -u + q,
    u(0) = 1, u'(0) = 0: u = A + q C with A = E_1.5(-t^1.5) and
    C = t^1.5 E_{1.5,2.5}(-t^1.5)."""
    out = []
    for k in range(1, 9):
        t = k * T / 8
        z = -(t**ALPHA)
        out.append((mittag_leffler(ALPHA, 1.0, z), t**ALPHA * mittag_leffler(ALPHA, ALPHA + 1.0, z)))
    return tuple(out)


@pytest.mark.parametrize("n", [2048, 16384])
@pytest.mark.parametrize("T", [20.0, 40.0])
def test_oscillator_funnel_over_long_horizons(T, n):
    """The benchmark's oscillator, whose Picard iteration diverges at T = 20
    and 40 (contraction factor 67 and 190), against the Mittag-Leffler
    closed form: at t = T within the benchmark's 5e-6 (2048/N)^2, and at
    every t = k T / 8 within that bound at the step of the benchmark's
    grid, scaled as the product rule's O(h^2) error."""
    problem = affine_problem(-1.0, T, u1=0.0)
    with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
        g = solution_funnel(problem, n=n)
    tol = 5e-6 * (2048 / n) ** 2
    for k, (a, c) in enumerate(oscillator_nodes(T), start=1):
        i = k * n // 8
        lo, hi = sorted((a - 0.1 * c, a + 0.1 * c))
        err = max(abs(g.lo[i] - lo), abs(g.hi[i] - hi))
        assert err <= tol * (T / 10.0) ** 2, (k, err)
    assert err <= tol
