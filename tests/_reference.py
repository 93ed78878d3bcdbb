"""References for tests: the O(N^2) row-by-row RL weight matrix, the
continuity modulus with every segment clipped for each pair, the RL integral
of a selection at one node, the chattering demo on two-point values, CSV
text formatted one value at a time, and the SplitMix64 draws in Python ints.
None of them is used by the package; each is an independent construction
that its fast counterpart is checked against. Two test-only conveniences
sit with them: one random selection of a map, and the Monte-Carlo oracle
of a node's selection integrals."""

import math

import numpy as np

from svfrac import RLOperator, Selection, gamma_fn, regularity
from svfrac.gridmap import oracle_seeds, selection_draws
from svfrac.rl import _hat_moments, _pow_diff, selection_integrals


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


def rl_scalar(f, rho: float, n: int) -> float:
    """Riemann-Liouville integral of order rho of the selection f, evaluated at node n."""
    return float(RLOperator(f.a, f.b, f.n_segments, rho).row(n) @ f.values[: n + 1])


def random_selection(f, seed: int) -> Selection:
    """Node values lo_i + u_i (hi_i - lo_i), with u_i draw i of the
    SplitMix64 stream of `seed`, an integer in [0, 2**63) (see
    selection_draws); pure in (f, seed)."""
    return Selection(f.a, f.b, f.lo + selection_draws(f.lo.size, [seed])[0] * (f.hi - f.lo))


def rl_selection_oracle(f, rho: float, n: int, samples: int, seed: int) -> tuple[float, ...]:
    """Monte-Carlo image of the integrable-selection family at node n.

    Returns the sorted, deduplicated set of RL integrals of `samples` random
    selections plus both extremal selections (injected so the hull of the
    returned set is tight against rl_setvalued).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = selection_draws(f.n_segments + 1, oracle_seeds(seed, samples))
    return selection_integrals(f, RLOperator(f.a, f.b, f.n_segments, rho).row(n), draws)


def rl_weight_matrix(a: float, b: float, n_segments: int, rho: float) -> np.ndarray:
    """Dense lower-triangular W with (W @ f_values)[n] = rl_scalar(f, rho, n),
    built row by row from kernel_hat_weights. O(N^2) time and memory."""
    nodes = np.linspace(a, b, n_segments + 1)
    g = gamma_fn(rho)
    w = np.zeros((n_segments + 1, n_segments + 1))
    for n in range(1, n_segments + 1):
        w[n, : n + 1] = kernel_hat_weights(float(nodes[n]), rho, nodes[: n + 1]) / g
    return w


def modulus_clipped_reference(f, rho, u, v):
    """The array modulus with every segment clipped to [a, u] and to [u, v]
    for each pair, in blocks of pairs. continuity_modulus, from one row of
    terms per distinct target, sums the same N terms of each integral in the
    same order, so it must match bit for bit."""
    us, vs = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    x = f.nodes
    henv = np.maximum(np.abs(f.lo), np.abs(f.hi))

    def clip(lo, hi):
        left = np.minimum(np.maximum(x[:-1], lo), hi)
        right = np.minimum(np.maximum(x[1:], lo), hi)
        return left, right, np.interp(left, x, henv), np.interp(right, x, henv)

    def integrals(c, segments):
        left, right, h_left, h_right = segments
        length = right - left
        w_left, w_right = _hat_moments(
            c - left, np.maximum(c - right, 0.0), np.where(length > 0, length, 1.0), rho
        )
        return (w_left * h_left + w_right * h_right).sum(axis=1)

    step = max(1, regularity._BLOCK_ENTRIES // f.n_segments)
    out = np.empty(us.size)
    for k in range(0, us.size, step):
        uk, vk = us.ravel()[k : k + step, None], vs.ravel()[k : k + step, None]
        head = clip(f.a, uk)
        i_v, i_u = integrals(vk, head), integrals(uk, head)
        out[k : k + step] = np.abs(i_v - i_u) + integrals(vk, clip(uk, vk))
    return out.reshape(us.shape) * math.exp(-math.lgamma(rho))


def rl_piecewise_constant(
    seg_values: np.ndarray, a: float, b: float, rho: float, c: float
) -> float:
    """(1/Gamma(rho)) * integral of (c - t)^(rho-1) against a piecewise-constant
    function with one value per uniform segment of [a, b]; c >= b."""
    seg_values = np.asarray(seg_values, dtype=float)
    ts = np.linspace(a, b, seg_values.size + 1)
    s0 = c - ts[:-1]
    s1 = np.maximum(c - ts[1:], 0.0)
    m0 = _pow_diff(s0, s1, rho) / rho
    return float((m0 @ seg_values) / gamma_fn(rho))


def _duty_cycle(on_count: int, n: int) -> np.ndarray:
    """+1/-1 pattern with `on_count` +1 segments spread evenly across n slots."""
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
