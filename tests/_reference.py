"""References for tests: the O(N^2) row-by-row RL weight matrix, the
dense matrix of given Toeplitz weights and forward substitution on it, the
Mittag-Leffler function as its mpmath series, the
weight scale (b - a)^rho / Gamma(rho) in its own log form, the
continuity modulus with every segment clipped for each pair, the modulus in
mpmath, the random-selection integrals at one node, the RL integral
of a selection at one node, CSV text formatted one value at a time, the
SplitMix64 draws in Python ints, the variation and Lipschitz constant
written with np.diff, and the other measures and the set-valued integral in
two-endpoint form: the Hausdorff distance as np.maximum(|Δlo|, |Δhi|), the
sup bound, the modulus's envelope, and the integral by two applies.
None of them is used by the package; each is an independent construction
that its fast counterpart is checked against. Four test-only conveniences
sit with them: the interval value of a map at a point, one random
selection of a map, the Monte-Carlo oracle of a node's selection
integrals, and the +1/-1 node pattern of the chattering demo."""

import math
from math import gamma as gamma_fn

import mpmath
import numpy as np

from svfrac import GridMap, RLOperator, Selection
from svfrac.gridmap import SEED_LIMIT, _check_seed, selection_draws
from svfrac.rl import _hat_moments, integral_set


def kernel_hat_weights(c: float, rho: float, ts: np.ndarray) -> np.ndarray:
    """Weights w with sum_i w_i * f(ts_i) = integral of (c - t)^(rho-1) * f(t)
    over [ts[0], ts[-1]] for piecewise-linear f on breakpoints ts.

    Requires c >= ts[-1]; breakpoints may be non-uniform. No 1/Gamma factor.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size < 2:
        return np.zeros(ts.size)
    if c < ts[-1] - 1e-15 * max(1.0, abs(ts[-1])):
        raise ValueError("kernel target must lie at or beyond the last breakpoint")
    w_left, w_right = _hat_moments(c - ts[:-1], np.maximum(c - ts[1:], 0.0), np.diff(ts), rho)
    w = np.zeros(ts.size)
    w[:-1] += w_left
    w[1:] += w_right
    return w


def eval_interval(f, u: float) -> tuple[float, float]:
    """The value (lo, hi) of the map f at the point u of its domain, by
    linear interpolation of both endpoint functions between the nodes."""
    nodes = f.nodes
    return float(np.interp(u, nodes, f.lo)), float(np.interp(u, nodes, f.hi))


def variation_by_diff(f) -> float:
    """Hausdorff-metric total variation of f as the sum of the node increments
    max(|diff(lo)|, |diff(hi)|)."""
    return float(np.maximum(np.abs(np.diff(f.lo)), np.abs(np.diff(f.hi))).sum())


def lipschitz_by_diff(f) -> float:
    """Hausdorff-metric Lipschitz constant of f as the largest node increment
    max(|diff(lo)|, |diff(hi)|) over the step."""
    return float(np.maximum(np.abs(np.diff(f.lo)), np.abs(np.diff(f.hi))).max() / f.step)


def hausdorff_two_ends(a, b):
    """The Hausdorff distance of intervals a = (lo, hi) and b = (lo, hi),
    np.maximum(|a[0] - b[0]|, |a[1] - b[1]|), broadcast like its operands."""
    return np.maximum(np.abs(a[0] - b[0]), np.abs(a[1] - b[1]))


def sup_bound_two_ends(f) -> float:
    """max(|lo|.max(), |hi|.max()) of the map f."""
    return float(max(np.abs(f.lo).max(), np.abs(f.hi).max()))


def envelope_two_ends(f) -> np.ndarray:
    """The node envelope max(|lo_i|, |hi_i|) of the map f, which its
    continuity modulus integrates."""
    return np.maximum(np.abs(f.lo), np.abs(f.hi))


def setvalued_two_applies(f, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the set-valued integral of f by two applies of one
    operator W: lo = W lo, then the width hi - lo integrated in place,
    clamped at 0 and added to lo."""
    op = RLOperator(f.a, f.b, f.n_segments, rho)
    lo = op(f.lo)
    width = f.hi - f.lo
    op(width, out=width)
    return lo, np.add(lo, np.maximum(width, 0.0, out=width), out=width)


def rl_scalar(f, rho: float, n: int) -> float:
    """Riemann-Liouville integral of order rho of the selection f, evaluated at node n."""
    return float(RLOperator(f.a, f.b, f.n_segments, rho).row(n) @ f.values[: n + 1])


def random_selection(f, seed: int) -> Selection:
    """Node values lo_i + u_i (hi_i - lo_i), with u_i draw i of the
    SplitMix64 stream of `seed`, an integer in [0, 2**63) (see
    selection_draws); pure in (f, seed)."""
    return Selection(f.a, f.b, f.lo + selection_draws(f.lo.size, seed) * (f.hi - f.lo))


def selection_integrals(f, row: np.ndarray, seeds) -> np.ndarray:
    """RL integrals, at the target node of `row` (the weights of nodes
    0..m-1), of the random selections of `seeds` (see random_selection),
    each as row @ lo + row @ (r * (hi - lo)) with r the seed's draws."""
    m = row.size
    draws = np.array([selection_draws(m, seed) for seed in seeds])
    return float(row @ f.lo[:m]) + draws @ (row * (f.hi[:m] - f.lo[:m]))


def rl_selection_oracle(f, rho: float, n: int, samples: int, seed: int) -> tuple[float, ...]:
    """Monte-Carlo image of the integrable-selection family at node n.

    Returns the sorted, deduplicated set of RL integrals of `samples` random
    selections, of seeds seed, seed + 1, ..., each mod 2**63, plus both
    extremal selections (injected so the hull of the returned set is tight
    against rl_setvalued).
    """
    seed = _check_seed(seed)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    row = RLOperator(f.a, f.b, f.n_segments, rho).row(n)
    seeds = [(seed + k) % SEED_LIMIT for k in range(samples)]
    return tuple(sorted({*integral_set(f, row), *selection_integrals(f, row, seeds).tolist()}))


def rl_weight_matrix(a: float, b: float, n_segments: int, rho: float) -> np.ndarray:
    """Dense lower-triangular W with (W @ f_values)[n] = rl_scalar(f, rho, n),
    built row by row from kernel_hat_weights. O(N^2) time and memory."""
    nodes = np.linspace(a, b, n_segments + 1)
    g = gamma_fn(rho)
    w = np.zeros((n_segments + 1, n_segments + 1))
    for n in range(1, n_segments + 1):
        w[n, : n + 1] = kernel_hat_weights(float(nodes[n]), rho, nodes[: n + 1]) / g
    return w


def toeplitz_matrix(kernel: np.ndarray, col0: np.ndarray) -> np.ndarray:
    """The dense lower-triangular matrix of the operator (kernel, col0) of
    quadrature_weights: W[n, 0] = col0[n] and W[n, j] = kernel[n - j] for
    1 <= j <= n."""
    n = kernel.size
    w = np.zeros((n + 1, n + 1))
    w[:, 0] = col0
    for i in range(1, n + 1):
        w[i, 1 : i + 1] = kernel[:i][::-1]
    return w


def forward_substitution(w: np.ndarray, p: float, init: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The solution u of u = init + w (p u + q) for a lower-triangular w,
    node by node: (1 - p w[n, n]) u[n] = init[n] + (w q)[n] + p w[n, :n] @ u[:n]."""
    rhs = init + w @ q
    u = np.zeros(init.size)
    for i in range(init.size):
        u[i] = (rhs[i] + p * (w[i, :i] @ u[:i])) / (1.0 - p * w[i, i])
    return u


def mittag_leffler(a: float, b: float, z: float, dps: int = 40) -> float:
    """E_{a,b}(z) = sum_k z^k / Gamma(a k + b), summed in mpmath with `dps`
    digits beyond those the largest term cancels."""
    z = mpmath.mpf(z)
    # The terms peak near exp(|z|^(1/a)): carry that many more digits.
    extra = int(abs(float(z)) ** (1.0 / a) / math.log(10)) + 1
    with mpmath.workdps(dps + extra):
        total, k = mpmath.mpf(0), 0
        while True:
            term = z**k / mpmath.gamma(a * k + b)
            total += term
            if k > abs(z) and abs(term) < mpmath.mpf(10) ** -(dps + 5):
                return float(total)
            k += 1


def weight_scale_reference(a: float, b: float, rho: float) -> float:
    """(b - a)^rho / Gamma(rho) as exp(rho log(b - a) - lgamma(rho)), the
    expression the weights were scaled by before the one log-form scale;
    OverflowError where it leaves the float range."""
    value = math.exp(rho * math.log(b - a) - math.lgamma(rho))
    if not math.isfinite(value):  # exp(inf) is inf, without an error
        raise OverflowError("math range error")
    return value


def modulus_clipped_reference(f, rho, u, v):
    """The array modulus with every segment clipped to [a, u] and to [u, v]
    for each pair, in blocks of 2048 // N pairs: the moments of each clipped
    segment in the distances c - x_k from the target c, against the
    interpolated envelope at its two ends. f may be a sequence of maps on
    one grid: the moments of each pair are taken once for them all, and the
    result has one row per map on a leading axis. It shares with
    continuity_modulus only rl._hat_moments, not the Toeplitz rows."""
    maps = [f] if isinstance(f, GridMap) else list(f)
    us, vs = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    x = maps[0].nodes
    henvs = [envelope_two_ends(m) for m in maps]

    def clip(lo, hi):
        return np.minimum(np.maximum(x[:-1], lo), hi), np.minimum(np.maximum(x[1:], lo), hi)

    def integrals(c, left, right):
        length = right - left
        w_left, w_right = _hat_moments(
            c - left, np.maximum(c - right, 0.0), np.where(length > 0, length, 1.0), rho
        )
        return np.array([(w_left * np.interp(left, x, h) + w_right * np.interp(right, x, h)).sum(axis=1)
                         for h in henvs])

    step = max(1, 2048 // maps[0].n_segments)
    out = np.empty((len(maps), us.size))
    for k in range(0, us.size, step):
        uk, vk = us.ravel()[k : k + step, None], vs.ravel()[k : k + step, None]
        head = clip(maps[0].a, uk)
        i_v, i_u = integrals(vk, *head), integrals(uk, *head)
        out[:, k : k + step] = np.abs(i_v - i_u) + integrals(vk, *clip(uk, vk))
    out = out.reshape((len(maps),) + us.shape) * math.exp(-math.lgamma(rho))
    return out[0] if isinstance(f, GridMap) else out


def modulus_mpmath(f, rho, pairs, dps=30):
    """continuity_modulus at the pairs (x_i, v) of `pairs`, in `dps`
    digits. v is a node index j >= i (an int) or a point of [x_i, b] (a
    float). The nodes sit at a + m h, h = (b - a) / N, exactly; a float v
    sits at x_k + (v - x_k) past the float node x_k <= v below it, that
    offset d taken exactly. The closed-form moments of s^(rho-1) and s^rho
    over each piece of s = v - t on which the interpolated envelope is
    linear (the segments [k h + d, (k + 1) h + d], then [0, d] with h(v) at
    its near end) weigh the envelope at the two ends of the piece, and the
    sums over the pieces of [a, x_i] and [x_i, v] are exact."""
    with mpmath.workdps(dps):
        n, r = f.n_segments, mpmath.mpf(rho)
        step = (mpmath.mpf(f.b) - mpmath.mpf(f.a)) / n
        env = [mpmath.mpf(float(e)) for e in np.maximum(np.abs(f.lo), np.abs(f.hi))]
        tables = {}

        def moments(s0, s1):
            # weights of the ends at s0 and at s1 of the piece [s1, s0] of s
            m0 = (s0**r - s1**r) / r
            m1 = (s0 ** (r + 1) - s1 ** (r + 1)) / (r + 1)
            return (m1 - s1 * m0) / (s0 - s1), (s0 * m0 - m1) / (s0 - s1)

        def integral(k, d, first, last):
            # nodes first..last against the kernel at x_k + d
            far, near = tables.setdefault(d, ([], []))
            for q in range(len(far), k):  # the segments [q h + d, (q + 1) h + d] of s
                w_far, w_near = moments((q + 1) * step + d, q * step + d)
                far.append(w_far)
                near.append(w_near)
            qs = range(k - first - 1, k - last - 1, -1)
            return (mpmath.fdot([far[q] for q in qs], env[first:last])
                    + mpmath.fdot([near[q] for q in qs], env[first + 1 : last + 1]))

        gamma = mpmath.gamma(r)
        out = []
        for i, v in pairs:
            k, d = v, mpmath.mpf(0)
            if not isinstance(v, (int, np.integer)):
                k = int(np.searchsorted(f.nodes, v, side="right")) - 1
                d = mpmath.mpf(v) - mpmath.mpf(float(f.nodes[k]))
            phi = abs(integral(k, d, 0, i) - integral(i, 0, 0, i)) + integral(k, d, i, k)
            if d:
                far, near = moments(d, mpmath.mpf(0))
                phi += far * env[k] + near * (env[k] + (env[k + 1] - env[k]) * d / step)
            out.append(float(phi / gamma))
        return out


def _duty_cycle(on_count: int, n: int) -> np.ndarray:
    """+1/-1 pattern with `on_count` +1 entries spread evenly across n slots."""
    pattern = -np.ones(n)
    if on_count > 0:
        idx = np.floor(np.arange(on_count) * n / on_count).astype(int)
        pattern[idx] = 1.0
    return pattern


def csv_reference(header: str, *columns) -> str:
    """The header line, then one line per row: each value of the row as
    `%.12g`, one value at a time, joined by commas."""
    lines = [header]
    for i in range(len(columns[0])):
        lines.append(",".join("%.12g" % float(c[i]) for c in columns))
    return "\n".join(lines) + "\n"


_MASK64 = (1 << 64) - 1


def splitmix64_mix(z: int) -> int:
    """SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014) on
    Python ints, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_draw(seed: int, m: int) -> float:
    """Draw m of the stream of `seed`: (mix(mix(seed) + (m + 1) G) >> 11) 2**-53."""
    return (splitmix64_mix(splitmix64_mix(seed) + (m + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
