"""The O(N) Toeplitz/FFT RL operator against independent references: the
dense row-by-row matrix, an mpmath hat-basis quadrature, and truncated-power
closed forms."""

import dataclasses
import math
import tracemalloc
from math import gamma as gamma_fn

import mpmath as mp
import numpy as np
import numpy.fft
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _reference import rl_scalar, rl_weight_matrix, weight_scale_reference
from svfrac import (
    CaputoProblem,
    GridMap,
    RLOperator,
    Selection,
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


@pytest.mark.parametrize("shape", [(51,), (3, 51)])
def test_apply_in_place_matches_a_new_output(shape):
    """op(v, out=v) writes op(v)'s bits into v, its zero column 0 included."""
    v = np.random.default_rng(2).uniform(-1.0, 1.0, shape)
    op = RLOperator(-1.0, 2.0, 50, 0.7)
    expected = op(v)
    assert op(v, out=v) is v
    assert np.array_equal(v, expected)
    assert not v[..., 0].any()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    ints=st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=65),
    shift=st.integers(-40, 20),
    rho=st.sampled_from((0.3, 1.0, 2.7)),
    k=st.integers(-800, 1023),
)
@example(ints=[1, 1, 1, 1, 1], shift=0, rho=1.0, k=1022)  # sums beyond the float range unscaled
@example(ints=[3, -5, 7], shift=-40, rho=0.3, k=-800)
def test_power_of_two_scaling_commutes_with_the_apply(ints, shift, rho, k):
    """op(2^k v) == 2^k op(v) bit for bit, for every integer k that keeps
    2^k v finite with a bit to spare: the integral on [0, 1] is at most
    1/Gamma(rho + 1) < 2 times max|v|. The entries of v, 0 or at least
    2^-40 in size, stay normal down to k = -800."""
    v = np.ldexp(np.array(ints, dtype=float), shift)
    assume(np.isfinite(np.ldexp(v, k + 1)).all())
    op = RLOperator(0.0, 1.0, v.size - 1, rho)
    assert np.array_equal(op(np.ldexp(v, k)), np.ldexp(op(v), k))


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


def test_setvalued_holds_two_results_and_one_workspace():
    """At N = 4096 the integral's peak holds lo, the width (applied in
    place) and one apply's workspace, a spectrum and a real buffer of the
    FFT size: about 197 KB. One more spectrum, output or product of an
    apply takes it above 216 KB."""
    f = GridMap.from_builtin("sin_envelope", 0.0, 1.0, 4096)
    op = RLOperator(0.0, 1.0, 4096, 0.5)
    tracemalloc.start()
    try:
        op.setvalued(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 216_000


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
    """Picard iteration, which a field that is no AffineField keeps:
    one kernel transform per solve and one transform per sweep. (The
    direct solve of a builtin makes one weight build per funnel; see
    test_resolvent.py.)"""
    callable_field = dataclasses.replace(OSCILLATOR, rhs=lambda t, u: OSCILLATOR.rhs(t, u))
    traj = solve_with_policy(callable_field, "lower", n=256)
    assert traj.iterations_used > 2
    assert spectra() == (1, traj.iterations_used)
    with pytest.warns(UserWarning, match="not a guaranteed enclosure"):
        solution_funnel(callable_field, n=256)
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


@pytest.mark.parametrize("rho", [0.3, 0.7, 1.5, 2.7])
def test_width_clamp_keeps_hi_at_or_above_lo(rho):
    """Under lo = 1e3 sin(40 u), a width that is 0 on [0, 1/2] and 1 + u
    after it integrates, at N = 4096, to hundreds of negative roundoff
    values (1602, 592, 1120 and 1545 at these orders): the integral of the
    width is clamped at 0, or hi = lo + W(width) falls below lo and the
    integral map is rejected."""
    n = 4096
    u = np.linspace(0.0, 1.0, n + 1)
    lo = 1e3 * np.sin(40.0 * u)
    f = GridMap(0.0, 1.0, lo, lo + np.where(u <= 0.5, 0.0, 1.0 + u))
    assert (RLOperator(0.0, 1.0, n, rho)(f.hi - f.lo) < 0.0).sum() > 500
    g = rl_setvalued(f, rho)
    assert (g.hi >= g.lo).all()


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


def _scale_or_overflow(scale, *args):
    try:
        return scale(*args).hex()
    except OverflowError:
        return "OverflowError"


@given(
    a=st.floats(-1e308, 1e308),
    b=st.floats(-1e308, 1e308),
    rho=st.floats(min_value=2.2250738585072014e-308, max_value=1e308),
)
@example(a=0.0, b=1e308, rho=2.7)  # overflow
@example(a=0.0, b=1e-5, rho=200.0)  # underflow to 0
@example(a=-3.5, b=11.0, rho=0.5)
@example(a=0.0, b=1.7e308, rho=2.55e305)  # rho log(b - a) = inf, lgamma(rho) finite
def test_weight_scale_is_the_former_expression_bit_for_bit(a, b, rho):
    """The weights' scale (b - a)^rho / Gamma(rho) is _scaled_power with M = 1,
    the former exp(rho log(b - a) - lgamma(rho)) bit for bit, and overflows
    where it did."""
    assume(a < b and math.isfinite(b - a))
    got = _scale_or_overflow(rl._scaled_power, 1.0, a, b, rho, rho)
    assert got == _scale_or_overflow(weight_scale_reference, a, b, rho)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        quadrature_weights(0.0, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        quadrature_weights(0.0, 1.0, 8, float("nan"))
    with pytest.raises(ValueError):
        quadrature_weights(1.0, 1.0, 8, 0.5)
    with pytest.raises(OverflowError):
        quadrature_weights(0.0, 1e200, 8, 5.0)
