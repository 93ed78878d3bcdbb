"""Riemann-Liouville fractional integration with exact weakly singular moments.

The kernel (u - t)^(rho - 1) is integrated in closed form against the hat
basis of the piecewise-linear representation, segment by segment, in the
variable s = u - t. No singular point is ever sampled, and the resulting
quadrature is exact (to roundoff) on the whole representation class.

On a uniform grid the weight of node j for target node n depends only on
n - j, except in column 0. The whole operator is therefore one Toeplitz
kernel plus one column, built in O(N) and applied by FFT in O(N log N) time
and O(N) memory. The resolvent (I - pW)^-1 W of that operator W, which
solves the discrete Volterra equation v = W(p v + g) as v = R g, has the
same shape, and is built from W's weights in O(N log N) time.
"""

from __future__ import annotations

import contextlib
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


def _scaled_power(m: float, a: float, b: float, power: float, gamma_arg: float) -> float:
    """m * (b-a)^power / Gamma(gamma_arg), through logs; OverflowError when
    the value is beyond the float range."""
    m = positive("sup-norm bound M", m, strict=False)
    _check_domain(a, b)
    if m == 0.0:
        return 0.0
    try:
        log_power, log_gamma = power * math.log(b - a), math.lgamma(gamma_arg)
        if log_power - log_gamma == 0.0:
            return m  # exp(log m) need not be m
        value = math.exp(math.log(m) + log_power - log_gamma)
    except OverflowError:
        value = math.inf
    # exp(inf) is inf without an error: power * log(b - a) can overflow alone.
    if not math.isfinite(value):
        raise OverflowError(f"the scale with exponent {power} on [{a}, {b}] is not finite")
    return value


def _bound(m: float, a: float, b: float, power: float, gamma_arg: float) -> float:
    """_scaled_power(m, a, b, power, gamma_arg), which checks the arguments and
    the float range, but in closed form where each factor and the result are
    finite normal floats, so that exact factors give the exact bound (4 /
    Gamma(3) = 2, not exp's 2.0000000000000004)."""
    value = _scaled_power(m, a, b, power, gamma_arg)
    with contextlib.suppress(OverflowError):  # from ** or gamma beyond the float range
        factors = (float(m), (b - a) ** power, math.gamma(gamma_arg))
        exact = factors[0] * factors[1] / factors[2]
        if all(sys.float_info.min <= x < math.inf for x in (*factors, exact)):
            return exact
    return value


def bound_sup(rho: float, m: float, a: float, b: float) -> float:
    """Uniform bound M*(b-a)^rho / (Gamma(rho)*rho) on the integral map."""
    rho = positive("fractional order rho", rho)
    return _bound(m, a, b, rho, rho + 1.0)


def bound_l0(rho: float, m: float, a: float, b: float) -> float:
    """Lipschitz constant M*(b-a)^(rho-1) / Gamma(rho) of the integral map,
    valid for rho >= 1 (differentiation under the integral sign; M at rho = 1)."""
    rho = positive("fractional order rho", rho)
    if rho < 1:
        raise ValueError(f"Lipschitz inheritance requires rho >= 1, got {rho}")
    return _bound(m, a, b, rho - 1.0, rho)


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


def _row_moments(n_segments: int, rho: float, count: int, shift: float = 0.0):
    """The unscaled row of target node `count` on n_segments segments of
    [0, 1] (of a target `shift` past node count - 1, for a shift > 0), from
    the hat moments of its segments in s: [k, k + 1] / n_segments, k < count,
    or with a shift [0, shift], then [shift + (k - 1) / n_segments,
    shift + k / n_segments], 0 < k < count. Returns (kernel, left, right):
    left[k + 1] and right[k] are the far- and near-node moments of segment
    k, and kernel[k] = right[k] + left[k] weighs the node at distance k.
    left[0] is 0, so left times the scale is col0. Every step is
    elementwise, so a prefix (count < n_segments) has the bits of the full
    build's."""
    x, h = np.arange(count + 1) / n_segments, 1.0 / n_segments
    if shift:
        x = np.append(0.0, shift + x[:-1])
        h = np.diff(x)
    left, right = _hat_moments(x[1:], x[:-1], h, rho)
    left = np.append(0.0, left)
    right = np.append(right, 0.0)
    return right[:-1] + left[:-1], left, right


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
    kernel, col0, _ = _row_moments(n_segments, rho, n_segments)
    scale = _scaled_power(1.0, a, b, rho, rho)
    kernel *= scale
    col0 *= scale
    return kernel, col0


ALTERNATING_LIMIT = 10.0  # largest log-growth over the grid of an alternating resolvent


def _growth(kernel: np.ndarray, p: float) -> float:
    """The rate t >= 0 at which r, the coefficients of 1 / (1 - p k(z)),
    grows as e^(j t): z = e^-t is the root of 1 - p k(z) in (0, 1), which
    exists when p kernel[0] < 1 < p k(1). There 1 - p k(e^-t) is concave and
    increasing in t, so Newton's method rises to the root from t = 0. 0
    when there is no such root.

    Newton's first step from z = 0, to (1 - p kernel[0]) / (p kernel[1]),
    is negative where p kernel[0] > 1 or p < 0. The iterates then go on
    toward a root z = -e^-t of the negative side, if there is one. There r
    alternates in sign and grows by e^t per step: the product rule is
    unstable at this step, and its solution is no approximation of the
    inclusion. That is a ValueError once the growth over the grid, e^(t N),
    exceeds e^ALTERNATING_LIMIT; below it, r is not weighted."""
    n = kernel.size
    if n < 2 or p * kernel[1] == 0.0:
        return 0.0
    first = (1.0 - p * kernel[0]) / (p * kernel[1])
    sign = math.copysign(1.0, first)
    if sign > 0.0 and not p * kernel.sum() > 1.0:
        return 0.0
    t = 0.0 if sign > 0.0 else -math.log(-first)
    distance = np.arange(n, dtype=float)
    for _ in range(100):
        if not t >= 0.0:
            return 0.0
        terms = np.exp(-t * distance)
        terms *= kernel
        terms[1::2] *= sign
        step = (1.0 - p * terms.sum()) / (p * (terms @ distance))
        t -= step
        if abs(step) < 1e-3 / n:
            break
    else:
        return 0.0
    if sign > 0.0:
        return t
    if t * n > ALTERNATING_LIMIT:
        raise ValueError(f"the grid is too coarse for p = {p}: the solution of the discrete equations "
                         f"alternates in sign and grows {math.exp(t):.3g}-fold per step; refine the grid")
    return 0.0


def _resolvent(
    kernel: np.ndarray, col0: np.ndarray, p: float, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The resolvent R = (I - pW)^-1 W of the operator W = (kernel, col0), in
    W's shape: its kernel s = r * kernel and its column 0 r * col0[1:], where
    r holds the first N coefficients of 1 / (1 - p k(z)), k(z) the
    generating function of the kernel.

    r comes from Newton's doubling x <- x (2 - (1 - p k) x) mod z^2m (Brent &
    Kung, J. ACM 25, 1978), its two products per step by FFTs of size
    2m <= size: the middle product, whose wrapped terms miss the
    coefficients m..2m-1 it keeps, and the correction. An FFT's error is
    relative to the largest value it transforms, so a growing r is taken
    as r_j w_j, with w_j = e^(-j t) and t its growth rate (see _growth):
    the weights carry through every convolution, as (r w) * (k w) =
    (r * k) w, so the kernel and column 0 are weighted on the way in.

    Works in place in kernel and col0. Returns the spectrum at `size` of
    s w, col0 holding R's column 0, unweighted, and the weights w (None
    when r does not grow, and w = 1). ValueError when the step is
    singular, 1 - p kernel[0] = 0, or too coarse for p (see _growth)."""
    n = kernel.size
    a0 = 1.0 - p * kernel[0]
    if a0 == 0.0:
        raise ValueError(f"singular step: 1 - p b_0 = 0 at p = {p}, b_0 = {kernel[0]}")
    t = _growth(kernel, p)
    weights = np.exp(-t * np.arange(n)) if t else None
    if weights is not None:
        kernel *= weights
        col0[1:] *= weights
    # Two spectra and one real buffer of the full size; each Newton step works in their heads.
    spec, other, work = np.empty(size // 2 + 1, dtype=complex), np.empty(size // 2 + 1, dtype=complex), np.empty(size)
    r = np.empty(n)
    r[0] = 1.0 / a0
    m = 1
    while m < n:
        top, fft_size = min(2 * m, n), 2 * m
        x_hat = numpy.fft.rfft(r[:m], fft_size, out=other[: m + 1])
        a_hat = numpy.fft.rfft(kernel[:top], fft_size, out=spec[: m + 1])
        a_hat *= -p
        a_hat += 1.0
        a_hat *= x_hat
        e = numpy.fft.irfft(a_hat, fft_size, out=work[:fft_size])  # (1 - p k) x = 1 + z^m e[m:top]
        numpy.fft.rfft(e[m:top], fft_size, out=a_hat)
        a_hat *= x_hat
        numpy.fft.irfft(a_hat, fft_size, out=work[:fft_size])
        np.negative(work[: top - m], out=r[m:top])
        m = top
    r_hat = numpy.fft.rfft(r, size, out=other)
    for column in (col0[1:], kernel):
        np.multiply(r_hat, numpy.fft.rfft(column, size, out=spec), out=spec)
        numpy.fft.irfft(spec, size, out=work)
        column[:] = work[:n]
    if weights is not None:
        col0[1:] /= weights
    return numpy.fft.rfft(kernel, size, out=spec), col0, weights


class RLOperator:
    """The RL operator of order rho on the uniform grid of [a, b] with
    n_segments segments: one quadrature_weights build, kept as col0 and the
    kernel's spectrum, taken once. The kernel itself is not kept, since it
    would stay alive through every apply; row(n) rebuilds its prefix.

    With p != 0 the operator is instead the resolvent (I - pW)^-1 W of that
    operator W (see _resolvent), whose spectrum and column 0 replace W's, so
    that __call__ applies it; row and setvalued are W's alone. p = 0 gives W
    itself, bit for bit. A growing resolvent keeps the spectrum of its
    weighted kernel s w, and its apply weights each row by w on the way in
    and unweights the result on the way out, so that a growing solution's
    early nodes keep their own relative accuracy."""

    def __init__(self, a: float, b: float, n_segments: int, rho: float, p: float = 0.0):
        # By its module-level name, where the benchmark's span and peak probe wrap it.
        kernel, self.col0 = quadrature_weights(a, b, n_segments, rho)
        self.a, self.b, self.n_segments, self.rho, self.p = a, b, n_segments, float(rho), float(p)
        self._size = 1 << (2 * n_segments - 2).bit_length()  # power of two >= 2N - 1
        self._weights = None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # an overflow shows in the results
            if self.p:
                self.spectrum, self.col0, self._weights = _resolvent(kernel, self.col0, self.p, self._size)
                if not (np.isfinite(self.spectrum).all() and np.isfinite(self.col0).all()):
                    raise OverflowError(f"the resolvent of order {self.rho} with p = {self.p} "
                                        f"on [{a}, {b}] is beyond the float range")
            else:
                self.spectrum = numpy.fft.rfft(kernel, self._size)

    def __call__(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator applied to each row of `values`, of shape (..., N+1),
        by a zero-padded FFT convolution, into `out` (a new array if None; a
        float array of the same shape, `values` itself included). The rows
        go one at a time through one workspace, a spectrum and a real buffer
        of the FFT size, so an apply allocates nothing else.

        Each row is scaled by 2^-e, with 2^e just above max|row[1:]|, before
        its transform and by 2^e after it, so the FFT's sums stay in range
        for a row near the float limit. Power-of-two scaling commutes with
        every operation in the normal range: other rows keep their bits."""
        values = np.asarray(values, dtype=float)
        n, size = self.n_segments, self._size
        if values.shape[-1:] != (n + 1,):
            raise ValueError(f"values of shape {values.shape} do not end in the {n + 1} grid nodes")
        if out is None:
            out = np.empty(values.shape)
        spec, work = np.empty(size // 2 + 1, dtype=complex), np.empty(size)
        head, weights = work[:n], self._weights
        for row, target in zip(values.reshape(-1, n + 1), out.reshape(-1, n + 1)):
            first = row[0]  # before target, which may be row, is written
            rest = row[1:] if weights is None else np.multiply(row[1:], weights, out=target[1:])
            e = math.frexp(np.abs(rest, out=head).max())[1]
            numpy.fft.rfft(np.ldexp(rest, -e, out=head), size, out=spec)
            # Kernel first, as in spectrum * spec: swapping the operands of the
            # complex product can change its last bits.
            np.multiply(self.spectrum, spec, out=spec)
            numpy.fft.irfft(spec, size, out=work)
            np.ldexp(head, e, out=target[1:])
            if weights is not None:
                target[1:] /= weights
            target[1:] += np.multiply(self.col0[1:], first, out=head)
            target[0] = 0.0
        return out

    def row(self, n: int) -> np.ndarray:
        """Weights of nodes 0..n for target node n, rebuilt from the hat
        moments of distances 0..n-1."""
        self._own_weights()
        if not 0 <= n <= self.n_segments:
            raise ValueError(f"target index {n} outside 0..{self.n_segments}")
        kernel, _, _ = _row_moments(self.n_segments, self.rho, n)
        kernel *= _scaled_power(1.0, self.a, self.b, self.rho, self.rho)
        return np.concatenate(([self.col0[n]], kernel[::-1]))

    def _own_weights(self) -> None:
        if self.p:
            raise ValueError("rows and set-valued integrals are the RL operator's, not its resolvent's")

    def setvalued(self, f: GridMap) -> GridMap:
        """rl_setvalued(f, rho) for f on this operator's grid: one apply over the rows (lo, hi - lo), in place."""
        self._own_weights()
        if (f.a, f.b, f.n_segments) != (self.a, self.b, self.n_segments):
            raise ValueError(f"the map's grid ({f.a}, {f.b}, {f.n_segments}) is not the operator's")
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            rows = np.stack((f.lo, f.hi - f.lo))
            self(rows, out=rows)
            np.maximum(rows[1], 0.0, out=rows[1])
            rows[1] += rows[0]
        if not np.isfinite(rows).all():
            raise OverflowError(f"the integral of order {self.rho} on [{f.a}, {f.b}] is not finite")
        return GridMap._of_rows(f.a, f.b, rows)


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


_DOT_RUN = 8192  # entries per np.dot call of integral_set


def integral_set(f: GridMap, row: np.ndarray) -> tuple[float, ...]:
    """The RL integrals, at the target node of `row` (the weights of nodes
    0..n), of both extremal selections of f, row @ lo and row @ hi, sorted
    and deduplicated: one value for a point map. For nonnegative weights
    they are the ends of the discrete integral set, since every selection
    lo + r (hi - lo), 0 <= r <= 1, integrates to a value between them. Each
    adds up np.dot over runs of _DOT_RUN nodes: OpenBLAS splits a dot of
    more than 10000 entries across threads, which waits for them on a
    loaded host and makes the sum depend on the thread count."""
    m = row.size

    def integral(values):
        return float(sum(np.dot(row[k : k + _DOT_RUN], values[k : k + _DOT_RUN]) for k in range(0, m, _DOT_RUN)))

    return tuple(sorted({integral(values) for values in f.rows[:, :m]}))
