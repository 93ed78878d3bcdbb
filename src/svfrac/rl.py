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

from .gridmap import GridMap, _check_domain


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
    small p; s0**p where that is not finite (s1 = 0, or 0 * inf at huge p).
    Each step but s1**p works in place in the result, and s0**p is taken
    only where it is needed."""
    s0, s1 = np.broadcast_arrays(np.asarray(s0, dtype=float), np.asarray(s1, dtype=float))
    with np.errstate(all="ignore"):  # log(0), 0/0 and 0 * inf are replaced below
        d = np.divide(s0, s1)
        np.log(d, out=d)
        np.multiply(p, d, out=d)
        np.expm1(d, out=d)
        np.multiply(s1**p, d, out=d)
        bad = ~np.isfinite(d)
        d[bad] = s0[bad] ** p
        return d


def _hat_moments(s0: np.ndarray, s1: np.ndarray, h, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of s^(rho-1) over segments [s1, s0] of length h against the
    two hat functions of each segment: (weight of the node at s0, at s1),
    that is (d1 - s1 m0) / h and (s0 m0 - d1) / h with m0 and d1 the moments
    of orders 0 and 1, each step in place where its operands allow."""
    m0 = _pow_diff(s0, s1, rho)
    m0 /= rho
    d1 = _pow_diff(s0, s1, rho + 1.0)
    d1 /= rho + 1.0
    at_s0 = s1 * m0
    np.subtract(d1, at_s0, out=at_s0)
    at_s0 /= h
    np.multiply(s0, m0, out=m0)
    m0 -= d1
    m0 /= h
    return at_s0, m0


def _scaled_moments(a: float, b: float, n_segments: int, rho: float, count: int):
    """Kernel b_0..b_{count-1} and column c_1..c_count of the operator of
    order rho on the uniform grid of [a, b], from the hat moments of
    distances 0..count-1. Every step is elementwise, so a prefix
    (count < n_segments) has the bits of the full build's."""
    x = np.arange(count + 1) / n_segments
    w_left, w_right = _hat_moments(x[1:], x[:-1], 1.0 / n_segments, rho)
    try:
        scale = math.exp(rho * math.log(b - a) - math.lgamma(rho))
    except OverflowError:
        raise OverflowError(f"the weights of order {rho} on [{a}, {b}] are not finite") from None
    kernel = w_right  # b_0 = w_right[0], b_k = w_right[k] + w_left[k - 1]
    kernel[1:] += w_left[:-1]
    kernel *= scale
    w_left *= scale
    return kernel, w_left


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
    _check_domain(a, b)
    kernel, column = _scaled_moments(a, b, n_segments, rho, n_segments)
    return kernel, np.concatenate(([0.0], column))


class RLOperator:
    """The RL operator of order rho on the uniform grid of [a, b] with
    n_segments segments: one quadrature_weights build, kept as col0 and the
    kernel's spectrum, taken once. The kernel itself is not kept, since it
    would stay alive through every apply; row(n) rebuilds its prefix."""

    def __init__(self, a: float, b: float, n_segments: int, rho: float):
        # By its module-level name, where the benchmark's span and peak probe wrap it.
        kernel, self.col0 = quadrature_weights(a, b, n_segments, rho)
        self.a, self.b, self.n_segments, self.rho = a, b, n_segments, float(rho)
        self._size = 1 << (2 * n_segments - 2).bit_length()  # power of two >= 2N - 1
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the results
            self.spectrum = numpy.fft.rfft(kernel, self._size)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The operator applied to each row of `values`, of shape (..., N+1),
        by a zero-padded FFT convolution. The rows are transformed one at a
        time, each spectrum multiplied by the kernel's in place, so the FFT
        temporaries are those of one row."""
        values = np.asarray(values, dtype=float)
        n, size = self.n_segments, self._size
        if values.shape[-1:] != (n + 1,):
            raise ValueError(f"values of shape {values.shape} do not end in the {n + 1} grid nodes")
        out = np.zeros(values.shape)
        for row, target in zip(values.reshape(-1, n + 1), out.reshape(-1, n + 1)):
            spec = numpy.fft.rfft(row[1:], size)
            # Kernel first, as in spectrum * spec: swapping the operands of the
            # complex product can change its last bits.
            np.multiply(self.spectrum, spec, out=spec)
            target[1:] = numpy.fft.irfft(spec, size)[:n]
            target[1:] += self.col0[1:] * row[0]
        return out

    def row(self, n: int) -> np.ndarray:
        """Weights of nodes 0..n for target node n, rebuilt from the hat
        moments of distances 0..n-1."""
        if not 0 <= n <= self.n_segments:
            raise ValueError(f"target index {n} outside 0..{self.n_segments}")
        kernel, _ = _scaled_moments(self.a, self.b, self.n_segments, self.rho, n)
        return np.concatenate(([self.col0[n]], kernel[::-1]))

    def setvalued(self, f: GridMap) -> GridMap:
        """rl_setvalued(f, rho) for f on this operator's grid."""
        if (f.a, f.b, f.n_segments) != (self.a, self.b, self.n_segments):
            raise ValueError(f"the map's grid ({f.a}, {f.b}, {f.n_segments}) is not the operator's")
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            lo = self(f.lo)
            width = self(f.hi - f.lo)
            hi = np.add(lo, np.maximum(width, 0.0, out=width), out=width)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise OverflowError(f"the integral of order {self.rho} on [{f.a}, {f.b}] is not finite")
        return GridMap(f.a, f.b, lo, hi)


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
    return RLOperator(f.a, f.b, f.n_segments, rho).setvalued(f)


def selection_integrals(f: GridMap, row: np.ndarray, draws: np.ndarray) -> tuple[float, ...]:
    """Sorted, deduplicated RL integrals, at the target node of `row` (the
    weights of nodes 0..n), of both extremal selections of f and of the
    selection lo + r * (hi - lo) for each row r of `draws`."""
    m = row.size
    base = float(row @ f.lo[:m])
    sampled = base + draws[:, :m] @ (row * (f.hi[:m] - f.lo[:m]))
    return tuple(sorted({base, float(row @ f.hi[:m]), *sampled.tolist()}))
