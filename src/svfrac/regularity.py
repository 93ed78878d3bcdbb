"""Hausdorff-metric regularity of interval-valued maps and quantitative bounds.

Measured quantities (total variation, Lipschitz constant) are exact for the
piecewise-linear representation class; for maps sampled from smoother
originals they lower-bound the true values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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
    try:
        return math.exp(math.log(m) + power * math.log(b - a) - math.lgamma(gamma_arg))
    except OverflowError:
        raise OverflowError(f"the bound with exponent {power} on [{a}, {b}] is not finite") from None


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


_BLOCK_ENTRIES = 2048  # pairs x segments per chunk of continuity_modulus


def _segment_terms(x, hs, j, lo, hi, c, rho: float):
    """For each node-value array h in hs: per entry (broadcast), the integral
    of (c - t)^(rho-1) times the piecewise-linear function with node values
    h over segment j of the nodes x clipped to [lo, hi], for c at or beyond
    hi. Zero-length clips give 0. The kernel moments are taken once, for
    every h."""
    left = np.minimum(np.maximum(x[j], lo), hi)
    right = np.minimum(np.maximum(x[j + 1], lo), hi)
    length = right - left
    w_left, w_right = _hat_moments(
        c - left, np.maximum(c - right, 0.0), np.where(length > 0, length, 1.0), rho
    )
    for h in hs:
        yield w_left * np.interp(left, x, h) + w_right * np.interp(right, x, h)


def continuity_modulus(f: GridMap | Sequence[GridMap], rho: float, u, v):
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
    their shape (a float for scalars). f may also be a sequence of maps on
    one grid; the result then has one row per map on a leading axis, each
    bit-identical to the call on that map alone. A result beyond the float
    range is an OverflowError.

    Each integral is a sum of closed-form hat moments over the N grid
    segments clipped to [a, u] or [u, v]. Pairs are taken in the order of
    v, so that repeated targets share a chunk, in chunks of _BLOCK_ENTRIES
    / N. Per chunk, every segment clipped to [a, c] at c is taken once per
    distinct target c (a u or a v), as a row of N terms whose kernel
    moments every map shares: the row sum at u is the integral at u. The
    row at v, split at u, gives the two integrals at v once the segment
    holding u is put in, clipped to [a, u] or to [u, v]. Each integral thus
    sums the same N terms in the same order as a clip of every segment for
    each pair would, and gives the same bits.
    """
    single = isinstance(f, GridMap)
    maps = [f] if single else list(f)
    rho = positive("fractional order rho", rho)
    if not maps:
        raise ValueError("need at least one map")
    a, b, n = maps[0].a, maps[0].b, maps[0].n_segments
    if any((m.a, m.b, m.n_segments) != (a, b, n) for m in maps):
        raise ValueError("maps must share one grid")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast(u, v).shape
    us, vs = np.broadcast_to(u, shape).ravel(), np.broadcast_to(v, shape).ravel()
    bad = np.flatnonzero(~((a <= us) & (us <= vs) & (vs <= b)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"need a <= u <= v <= b, got u={us[k]}, v={vs[k]} on [{a}, {b}]")
    x = maps[0].nodes
    henvs = [np.maximum(np.abs(m.lo), np.abs(m.hi)) for m in maps]
    chunk = max(1, _BLOCK_ENTRIES // n)
    order = np.argsort(vs, kind="stable")
    out = np.empty((len(maps), us.size))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        for c0 in range(0, us.size, chunk):
            pos = order[c0 : c0 + chunk]
            uc, vc, p = us[pos], vs[pos], np.arange(pos.size)
            targets, inverse = np.unique(np.concatenate((uc, vc)), return_inverse=True)
            c = targets[:, None]
            rows = _segment_terms(x, henvs, np.arange(n), a, c, c, rho)
            # The segment holding u (the last one for u = b), clipped to
            # [a, u] and to [u, v], at v.
            ju = np.minimum(np.searchsorted(x, uc, side="right") - 1, n - 1)
            ends = _segment_terms(
                x, henvs, ju, np.stack((np.full(uc.size, a), uc)), np.stack((uc, vc)), vc, rho
            )
            split = np.stack((x[1:] <= uc[:, None], x[:-1] >= uc[:, None]))
            for row, end, o in zip(rows, ends, out):
                at_v = np.where(split, row[inverse[pos.size :]], 0.0)
                at_v[:, p, ju] = end
                head, tail = at_v.sum(axis=2)
                o[pos] = np.abs(head - row.sum(axis=1)[inverse[: pos.size]]) + tail
        out *= math.exp(-math.lgamma(rho))
    if not np.isfinite(out).all():
        raise OverflowError(f"the continuity modulus of order {rho} on [{a}, {b}] is not finite")
    if single:
        return out[0].reshape(shape) if shape else float(out[0, 0])
    return out.reshape((len(maps),) + shape)


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

    def __post_init__(self):
        # numpy scalars become Python ones, so that the report serializes.
        self.measured = float(self.measured)
        self.bound = float(self.bound)
        self.passed = bool(self.passed)

    def to_json(self) -> dict:
        """The fields, with `passed` written as "pass"; empty details are left out."""
        obj = dict(vars(self))
        obj["pass"] = obj.pop("passed")
        if not self.details:
            del obj["details"]
        return obj
