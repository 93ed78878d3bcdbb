"""Hausdorff-metric regularity of interval-valued maps and quantitative bounds.

Measured quantities (total variation, Lipschitz constant) are exact for the
piecewise-linear representation class; for maps sampled from smoother
originals they lower-bound the true values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridmap import GridMap
from .rl import _hat_moments, positive


def total_variation(f: GridMap) -> float:
    """Total variation w.r.t. the Hausdorff metric.

    For intervals H_d reduces to the max of endpoint increments; within one
    segment both endpoint slopes are constant, so increments are additive and
    refinement cannot increase the partition sum. The node sum is the exact
    supremum over all partitions.
    """
    return float(np.maximum(np.abs(np.diff(f.lo)), np.abs(np.diff(f.hi))).sum())


def lipschitz_constant(f: GridMap) -> float:
    """Smallest Hausdorff-metric Lipschitz constant of the representation."""
    du = f.step
    return float(np.maximum(np.abs(np.diff(f.lo)), np.abs(np.diff(f.hi))).max() / du)


def _scaled_power(m: float, a: float, b: float, power: float, gamma_arg: float) -> float:
    """m * (b-a)^power / Gamma(gamma_arg), through logs; OverflowError when
    the value is beyond the float range."""
    m = positive("sup-norm bound M", m, strict=False)
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"domain requires finite a < b, got [{a}, {b}]")
    if m == 0.0:
        return 0.0
    return math.exp(math.log(m) + power * math.log(b - a) - math.lgamma(gamma_arg))


def bound_sup(rho: float, m: float, a: float, b: float) -> float:
    """Uniform bound M*(b-a)^rho / (Gamma(rho)*rho) on the integral map."""
    rho = positive("fractional order rho", rho)
    return _scaled_power(m, a, b, rho, rho + 1.0)


def bound_l0(rho: float, m: float, a: float, b: float) -> float:
    """Lipschitz constant M*(b-a)^(rho-1) / Gamma(rho) of the integral map,
    valid for rho > 1 (differentiation under the integral sign)."""
    rho = positive("fractional order rho", rho)
    if rho <= 1:
        raise ValueError(f"Lipschitz inheritance requires rho > 1, got {rho}")
    return _scaled_power(m, a, b, rho - 1.0, rho)


# Entries per temporary array in continuity_modulus, and target x segment
# entries of its moment table, so that its memory stays bounded whatever the
# number of pairs.
_BLOCK_ENTRIES = 1024
_TABLE_ENTRIES = 16 * _BLOCK_ENTRIES


def _segment_terms(x, h, j, lo, hi, c, rho: float) -> np.ndarray:
    """Per entry (broadcast), the integral of (c - t)^(rho-1) times the
    piecewise-linear function with node values h over segment j of the
    nodes x clipped to [lo, hi], for c at or beyond hi. Zero-length clips
    give 0."""
    left = np.minimum(np.maximum(x[j], lo), hi)
    right = np.minimum(np.maximum(x[j + 1], lo), hi)
    length = right - left
    w_left, w_right = _hat_moments(
        c - left, np.maximum(c - right, 0.0), np.where(length > 0, length, 1.0), rho
    )
    return w_left * np.interp(left, x, h) + w_right * np.interp(right, x, h)


def continuity_modulus(f: GridMap, rho: float, u, v):
    """Modulus dominating H_d between integral values at u and v (u <= v):

        (1/Gamma(rho)) * ( int_a^u |(v-t)^(rho-1) - (u-t)^(rho-1)| h(t) dt
                           + int_u^v (v-t)^(rho-1) h(t) dt )

    with h the piecewise-linear interpolant of the node envelope
    max(|lo_i|, |hi_i|). On each segment the true envelope is convex, so the
    interpolant dominates it and the modulus remains a valid upper bound.
    The kernel difference has a single sign on [a, u] (negative for rho > 1,
    positive for rho < 1, zero for rho = 1), so its absolute integral is the
    absolute difference of the two product integrals.

    u and v may be arrays, broadcast against each other; the result has
    their shape (a float for scalars). Each of the three integrals is a sum
    of closed-form hat moments over the grid segments clipped to [a, u] or
    [u, v]. The terms of the integral over [a, c] at c depend only on the
    target c (a u or a v), so they are taken once per distinct target, as a
    row of a (targets x segments) table. The row at u is the integral at u.
    The row at v, masked to the segments left of u or right of u, gives the
    two integrals at v once the segment holding u is put in, clipped to
    [a, u] or to [u, v]: the only terms taken per pair. Every integral thus
    sums the same terms in the same order as a clip of every segment for
    each pair would, and gives the same bits.

    Memory stays bounded whatever the number of pairs. Pairs are taken in
    chunks of _TABLE_ENTRIES / 2N (at least 1, and at most _BLOCK_ENTRIES / 2,
    since a chunk's per-pair terms are one array), so the table has at most
    max(_TABLE_ENTRIES, 2N) entries; the table and the masked rows are
    computed in blocks of about _BLOCK_ENTRIES entries.
    """
    rho = positive("fractional order rho", rho)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast(u, v).shape
    us, vs = np.broadcast_to(u, shape).ravel(), np.broadcast_to(v, shape).ravel()
    bad = np.flatnonzero(~((f.a <= us) & (us <= vs) & (vs <= f.b)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"need a <= u <= v <= b, got u={us[k]}, v={vs[k]} on [{f.a}, {f.b}]")
    x, n = f.nodes, f.n_segments
    henv = np.maximum(np.abs(f.lo), np.abs(f.hi))
    chunk = max(1, min(_BLOCK_ENTRIES // 2, _TABLE_ENTRIES // (2 * n)))
    step = max(1, _BLOCK_ENTRIES // n)
    out = np.empty(us.size)
    for c0 in range(0, out.size, chunk):
        uc, vc, oc = us[c0 : c0 + chunk], vs[c0 : c0 + chunk], out[c0 : c0 + chunk]
        targets, inverse = np.unique(np.concatenate((uc, vc)), return_inverse=True)
        iu, iv = inverse[: uc.size], inverse[uc.size :]
        table = np.zeros((targets.size, n))
        for k in range(0, targets.size, step):
            c = targets[k : k + step, None]
            m = min(n, np.searchsorted(x, c[-1, 0], side="right"))  # segments from a to c
            table[k : k + step, :m] = _segment_terms(x, henv, np.arange(m), f.a, c, c, rho)
        # The segment holding u (the last one for u = b), clipped to [a, u]
        # and to [u, v], at v.
        ju = np.minimum(np.searchsorted(x, uc, side="right") - 1, n - 1)
        head, tail_u = _segment_terms(
            x, henv, np.concatenate((ju, ju)), np.concatenate((np.full(uc.size, f.a), uc)),
            np.concatenate((uc, vc)), np.concatenate((vc, vc)), rho,
        ).reshape(2, -1)
        for k in range(0, uc.size, step):
            b = slice(k, k + step)
            uk = uc[b, None]
            at = np.arange(len(uk))
            i_u, row_v = table[iu[b]], table[iv[b]]
            i_v = np.where(x[1:] <= uk, row_v, 0.0)
            tail = np.where(x[:-1] >= uk, row_v, 0.0)
            i_v[at, ju[b]], tail[at, ju[b]] = head[b], tail_u[b]
            oc[b] = np.abs(i_v.sum(axis=1) - i_u.sum(axis=1)) + tail.sum(axis=1)
    out *= math.exp(-math.lgamma(rho))
    return out.reshape(shape) if shape else float(out[0])


@dataclass
class RegularityReport:
    """One measured-vs-bound comparison for a theorem suite entry."""

    theorem: str
    fixture: str
    rho: float
    measured: float
    bound: float
    passed: bool
    status: str = "checked"
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {
            "theorem": self.theorem,
            "fixture": self.fixture,
            "rho": self.rho,
            "measured": self.measured,
            "bound": self.bound,
            "pass": self.passed,
            "status": self.status,
        }
        if self.details:
            obj["details"] = self.details
        return obj
