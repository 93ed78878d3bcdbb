"""The O(N) Toeplitz/FFT RL operator against independent references: the
dense row-by-row matrix, an mpmath hat-basis quadrature, and truncated-power
closed forms."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import numpy.fft
import pytest

from _reference import rl_scalar, rl_weight_matrix
from svfrac import (
    CaputoProblem,
    GridMap,
    RLOperator,
    Selection,
    gamma_fn,
    quadrature_weights,
    rl,
    rl_setvalued,
    run_verification,
    solution_funnel,
    solve_with_policy,
)

ORDERS = (1e-3, 0.3, 1.0, 2.7, 50.0)


@pytest.mark.parametrize("rho", ORDERS)
@pytest.mark.parametrize("n_segments", [1, 2, 7, 64, 1024])
def test_matches_dense_matrix(n_segments, rho):
    dense = rl_weight_matrix(0.0, 1.0, n_segments, rho)
    op = RLOperator(0.0, 1.0, n_segments, rho)
    rng = np.random.default_rng(n_segments)
    u = np.linspace(0.0, 1.0, n_segments + 1)
    for f in (rng.uniform(-1.0, 1.0, n_segments + 1), np.ones(n_segments + 1), u):
        ref = dense @ f
        got = RLOperator(0.0, 1.0, n_segments, rho)(f)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # One operator, applied again and again, gives a fresh operator's bits.
        assert np.array_equal(op(f), got)
    tol = 1e-13 * np.abs(dense).max()
    for n in range(n_segments + 1):
        assert np.abs(op.row(n) - dense[n, : n + 1]).max() <= tol


def test_batched_rows_match_single_applies():
    values = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 51))
    batched = RLOperator(-1.0, 2.0, 50, 0.7)(values)
    op = RLOperator(-1.0, 2.0, 50, 0.7)
    assert np.array_equal(op(values), batched)
    for v, got in zip(values, batched):
        assert np.array_equal(got, RLOperator(-1.0, 2.0, 50, 0.7)(v))
        assert np.array_equal(got, op(v))


@pytest.mark.parametrize("shape", [(), (50,), (2, 52), (51, 2)])
def test_values_must_end_in_the_grid_nodes(shape):
    op = RLOperator(0.0, 1.0, 50, 0.7)
    with pytest.raises(ValueError, match="51 grid nodes"):
        op(np.zeros(shape))


@pytest.mark.parametrize("rho", ORDERS)
@pytest.mark.parametrize("n_segments", [1, 7, 64, 4096])
def test_row_is_the_weights_row_bit_for_bit(n_segments, rho):
    """row(n), rebuilt from the moments of distances 0..n-1, has the bits
    of the full build's row."""
    kernel, col0 = quadrature_weights(-1.0, 2.0, n_segments, rho)
    op = RLOperator(-1.0, 2.0, n_segments, rho)
    for n in (0, 1, n_segments // 3 + 1, n_segments):
        assert np.array_equal(op.row(n), np.concatenate(([col0[n]], kernel[:n][::-1])))


def test_operator_keeps_its_spectrum_and_column_but_no_kernel():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = RLOperator(0.0, 1.0, 65536, 0.5)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= op.spectrum.nbytes + op.col0.nbytes + 4096


def test_setvalued_takes_only_maps_on_the_operators_grid():
    op = RLOperator(0.0, 1.0, 8, 0.5)
    for f in (GridMap.from_builtin("hat", 0.0, 2.0, 8), GridMap.from_builtin("hat", 0.0, 1.0, 16)):
        with pytest.raises(ValueError, match="not the operator's"):
            op.setvalued(f)
    f = GridMap.from_builtin("hat", 0.0, 1.0, 8)
    assert np.array_equal(op.setvalued(f).hi, rl_setvalued(f, 0.5).hi)


@pytest.fixture
def spectra(monkeypatch):
    """count() -> (kernel transforms, other transforms) among the
    numpy.fft.rfft calls so far; a kernel is one that quadrature_weights built."""
    inputs, kernels = [], []
    real_rfft, real_weights = numpy.fft.rfft, rl.quadrature_weights

    def rfft(a, *args, **kwargs):
        inputs.append(a)
        return real_rfft(a, *args, **kwargs)

    def weights(*args):
        kernel, col0 = real_weights(*args)
        kernels.append(kernel)
        return kernel, col0

    monkeypatch.setattr(numpy.fft, "rfft", rfft)
    monkeypatch.setattr(rl, "quadrature_weights", weights)

    def count():
        of_kernels = sum(any(a is k for k in kernels) for a in inputs)
        return of_kernels, len(inputs) - of_kernels

    return count


OSCILLATOR = CaputoProblem.from_json(
    {"alpha": 1.5, "t0": 0.0, "T": 10.0, "u0": 1.0, "u1": 0.0,
     "rhs": {"kind": "affine", "params": {"p": -1.0, "q_lo": -0.1, "q_hi": 0.1}}}
)


def test_one_kernel_spectrum_per_setvalued_integral(spectra):
    rl_setvalued(GridMap.from_builtin("sin_envelope", 0.0, 1.0, 64), 0.5)
    assert spectra() == (1, 2)


def test_one_kernel_spectrum_per_solve(spectra):
    traj = solve_with_policy(OSCILLATOR, "lower", n=256)
    assert traj.iterations_used > 2
    assert spectra() == (1, traj.iterations_used)
    with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
        solution_funnel(OSCILLATOR, n=256)
    assert spectra()[0] == 3


def test_one_kernel_spectrum_per_verified_order(spectra):
    """A default verify: one operator per rho, two rows per (fixture, rho)."""
    assert len(run_verification()) == 8 * 24
    assert spectra() == (4, 2 * 24)


@pytest.mark.parametrize("rho", ORDERS)
def test_row_zero_is_exactly_zero(rho):
    f = GridMap.from_builtin("sin_envelope", 0.0, 1.0, 333)
    g = rl_setvalued(f, rho)
    assert g.lo[0] == 0.0 and g.hi[0] == 0.0


@pytest.mark.parametrize("rho", ORDERS)
@pytest.mark.parametrize("kind", ["sym_linear", "constant", "affine", "abs_envelope", "sin_envelope", "hat"])
def test_lower_endpoint_never_above_upper(kind, rho):
    g = rl_setvalued(GridMap.from_builtin(kind, 0.0, 1.0, 257), rho)
    assert (g.lo <= g.hi).all()


@pytest.mark.parametrize("rho", ORDERS)
def test_point_valued_map_gives_point_values(rho):
    vals = np.random.default_rng(4).uniform(-3.0, 3.0, 130)
    g = rl_setvalued(GridMap(0.0, 2.0, vals, vals), rho)
    assert np.array_equal(g.lo, g.hi)
    # A selection is the point-valued map: its integral is the scalar one.
    sel = Selection(0.0, 2.0, vals)
    g = rl_setvalued(sel, rho)
    assert np.array_equal(g.lo, g.hi)
    ref = np.array([rl_scalar(sel, rho, n) for n in range(vals.size)])
    assert np.abs(g.lo - ref).max() <= 1e-13 * np.abs(ref).max()


def _hat_weight(n_segments, rho, n, j):
    """mpmath weight of node j for target node n on the uniform grid of
    [0, 1], from quadrature of s^(rho-1) against the hat function of node j
    (s = (u_n - t) / h in step units)."""
    rho = mp.mpf(rho)

    def seg(lo, phi):
        if lo == 0:  # s = r^(1/rho) removes the endpoint singularity
            return mp.quad(lambda r: phi(r ** (1 / rho)), [0, 1]) / rho
        return mp.quad(lambda s: s ** (rho - 1) * phi(s), [lo, lo + 1])

    k = n - j
    total = mp.mpf(0)
    if j >= 1:
        total += seg(k, lambda s: (k + 1) - s)
    if j <= n - 1:
        total += seg(k - 1, lambda s: s - (k - 1))
    return total * mp.power(mp.mpf(n_segments), -rho) / mp.gamma(rho)


@pytest.mark.parametrize("rho", [1e-3, 0.5, 2.7, 50.0])
@pytest.mark.parametrize("n_segments", [64, 65536])
def test_rows_against_mpmath_hat_quadrature(n_segments, rho):
    op = RLOperator(0.0, 1.0, n_segments, rho)
    with mp.workdps(30):
        for n in (1, 2, n_segments // 2, n_segments):
            row = op.row(n)
            row_sum = (n / n_segments) ** rho / gamma_fn(rho + 1.0)
            for j in sorted({0, 1, n // 2, n - 1, n}):
                ref = _hat_weight(n_segments, rho, n, j)
                err = abs(mp.mpf(row[j]) - ref)
                # The moment differences cancel to about (n - j) ulps.
                assert err <= 1e-10 * abs(ref)
                assert err <= 1e-13 * row_sum


def test_fine_grid_truncated_powers_in_linear_memory():
    n, rho = 65536, 0.5
    u = np.linspace(0.0, 1.0, n + 1)
    f = GridMap(0.0, 1.0, -np.maximum(u - 0.25, 0.0), np.maximum(u - 0.5, 0.0))
    tracemalloc.start()
    try:
        g = rl_setvalued(f, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # J^rho (u - c)_+ = (u - c)_+^(rho + 1) / Gamma(rho + 2)
    scale = 1.0 / math.gamma(rho + 2.0)
    assert np.abs(g.lo + scale * np.maximum(u - 0.25, 0.0) ** (rho + 1.0)).max() <= 1e-9
    assert np.abs(g.hi - scale * np.maximum(u - 0.5, 0.0) ** (rho + 1.0)).max() <= 1e-9
    assert peak < 50e6


def test_large_order_underflows_instead_of_overflowing():
    weights = quadrature_weights(0.0, 1.0, 16, 200.0)
    assert all(np.isfinite(w).all() for w in weights)
    g = rl_setvalued(GridMap.from_builtin("sym_linear", 0.0, 1.0, 16), 200.0)
    assert np.abs(g.hi).max() <= 1e-300


def test_invalid_arguments():
    with pytest.raises(ValueError):
        quadrature_weights(0.0, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        quadrature_weights(0.0, 1.0, 8, float("nan"))
    with pytest.raises(ValueError):
        quadrature_weights(1.0, 1.0, 8, 0.5)
    with pytest.raises(OverflowError):
        quadrature_weights(0.0, 1e200, 8, 5.0)
