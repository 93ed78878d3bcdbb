"""Riemann-Liouville fractional integration with exact weakly singular moments.

The kernel (u - t)^(rho - 1) is integrated in closed form against the hat
basis of the piecewise-linear representation, segment by segment, in the
variable s = u - t. No singular point is ever sampled, and the resulting
quadrature is exact (to roundoff) on the whole representation class.

On a uniform grid the weight of node j for target node n depends only on
n - j, except in column 0. The whole operator is therefore one Toeplitz
kernel plus one column, built in O(N) and applied by FFT in O(N log N) time
and O(N) memory.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import numpy.fft  # at module scope, so that no operation pays for the import

from .gridmap import GridMap, selection_draws


def positive(name: str, value: float, *, strict: bool = True) -> float:
    """`value` as a float; ValueError unless it is finite and >= the smallest
    normal float (>= 0 when `strict` is False). The kernel moments divide by
    the order, which overflows for a subnormal one."""
    value = float(value)
    low = sys.float_info.min if strict else 0.0
    if not (math.isfinite(value) and value >= low):
        raise ValueError(f"{name} must be finite and >= {low!r}, got {value}")
    return value


def gamma_fn(x: float) -> float:
    """Euler gamma on the positive half-line."""
    return math.gamma(positive("gamma_fn argument", x))


def _pow_diff(s0: np.ndarray, s1: np.ndarray, p: float) -> np.ndarray:
    """s0**p - s1**p for 0 <= s1 <= s0 as s1**p * expm1(p * log(s0/s1)), stable for
    small p; s0**p where that is not finite (s1 = 0, or 0 * inf at huge p)."""
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    with np.errstate(all="ignore"):  # log(0), 0/0 and 0 * inf are replaced below
        d = s1**p * np.expm1(p * np.log(s0 / s1))
        return np.where(np.isfinite(d), d, s0**p)


def _hat_moments(s0: np.ndarray, s1: np.ndarray, h, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of s^(rho-1) over segments [s1, s0] of length h against the
    two hat functions of each segment: (weight of the node at s0, at s1)."""
    m0 = _pow_diff(s0, s1, rho) / rho
    d1 = _pow_diff(s0, s1, rho + 1.0) / (rho + 1.0)
    return (d1 - s1 * m0) / h, (s0 * m0 - d1) / h


def quadrature_weights(
    a: float, b: float, n_segments: int, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """The RL operator of order rho on the uniform grid of [a, b], as
    (kernel, col0).

    For target node n >= 1 the exact product-integration weight of node j is
    kernel[n - j] for 1 <= j <= n and col0[n] for j = 0, so that
    sum_j w_j * f(u_j) = (1/Gamma(rho)) * int_a^{u_n} (u_n - t)^(rho-1) f(t) dt
    for piecewise-linear f. kernel holds b_0..b_{N-1}; col0 holds c_0..c_N
    with c_0 = 0, so row 0 is zero. The moments are taken in s / (b - a) and
    scaled by (b - a)^rho / Gamma(rho) through logs, so large orders
    underflow to 0 instead of overflowing.
    """
    rho = positive("fractional order rho", rho)
    if n_segments < 1:
        raise ValueError(f"grid needs at least 1 segment, got {n_segments}")
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"domain requires finite a < b, got [{a}, {b}]")
    x = np.arange(n_segments + 1) / n_segments
    w_left, w_right = _hat_moments(x[1:], x[:-1], 1.0 / n_segments, rho)
    try:
        scale = math.exp(rho * math.log(b - a) - math.lgamma(rho))
    except OverflowError:
        raise OverflowError(f"the weights of order {rho} on [{a}, {b}] are not finite") from None
    kernel = np.concatenate((w_right[:1], w_left[:-1] + w_right[1:]))
    col0 = np.concatenate(([0.0], w_left))
    return kernel * scale, col0 * scale


def rl_apply(weights: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
    """The operator `weights` (from quadrature_weights) applied to each row of
    `values`, of shape (..., N+1), by one zero-padded FFT convolution."""
    kernel, col0 = weights
    values = np.asarray(values, dtype=float)
    n = kernel.size
    size = 1 << (2 * n - 2).bit_length()  # power of two >= 2n - 1
    spec = numpy.fft.rfft(kernel, size) * numpy.fft.rfft(values[..., 1:], size)
    out = np.zeros(values.shape)
    out[..., 1:] = numpy.fft.irfft(spec, size)[..., :n] + col0[1:] * values[..., :1]
    return out


def _row(weights: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Weights of nodes 0..n for target node n."""
    kernel, col0 = weights
    if not 0 <= n < col0.size:
        raise ValueError(f"target index {n} outside 0..{col0.size - 1}")
    return np.concatenate(([col0[n]], kernel[:n][::-1]))


def node_row(f: GridMap, rho: float, n: int) -> np.ndarray:
    """Weights of nodes 0..n of f's grid in the RL integral of order rho at node n."""
    return _row(quadrature_weights(f.a, f.b, f.n_segments, rho), n)


def rl_setvalued(f: GridMap, rho: float) -> GridMap:
    """Set-valued RL integral: node intervals spanned by the integrals of the
    two extremal selections. Node values are exact for the representation;
    between nodes the result is the piecewise-linear interpolant (the true
    endpoint functions are smoother, so this is an O(step) approximation).

    The upper endpoint is the lower one plus the integral of the width
    hi - lo >= 0. The kernel is nonnegative, so that integral is clamped at
    0 against FFT roundoff; point-valued maps give lo == hi exactly. An
    integral beyond the float range is an OverflowError.
    """
    weights = quadrature_weights(f.a, f.b, f.n_segments, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        lo, width = rl_apply(weights, np.stack((f.lo, f.hi - f.lo)))
        hi = lo + np.maximum(width, 0.0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise OverflowError(f"the integral of order {rho} on [{f.a}, {f.b}] is not finite")
    return GridMap(f.a, f.b, lo, hi)


def selection_integrals(f: GridMap, row: np.ndarray, draws: np.ndarray) -> tuple[float, ...]:
    """Sorted, deduplicated RL integrals, at the target node of `row` (the
    weights of nodes 0..n), of both extremal selections of f and of the
    selection lo + r * (hi - lo) for each row r of `draws`."""
    m = row.size
    base = float(row @ f.lo[:m])
    sampled = base + draws[:, :m] @ (row * (f.hi[:m] - f.lo[:m]))
    return tuple(sorted({base, float(row @ f.hi[:m]), *sampled.tolist()}))


def rl_selection_oracle(
    f: GridMap, rho: float, n: int, samples: int, seed: int
) -> tuple[float, ...]:
    """Monte-Carlo image of the integrable-selection family at node n.

    Returns the sorted, deduplicated set of RL integrals of `samples` random
    selections plus both extremal selections (injected so the hull of the
    returned set is tight against rl_setvalued).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = selection_draws(f.n_segments + 1, range(seed, seed + samples))
    return selection_integrals(f, node_row(f, rho, n), draws)
