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

from .gridmap import GridMap, _check_domain
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
    _check_domain(a, b)
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

    u is a grid node (a value of the nodes; a is node 0) and v any point of
    [u, b]; an off-node u is a ValueError. u and v may be arrays, broadcast
    against each other; the result has their shape (a float for scalars).
    f may also be a sequence of maps on one grid; the result then has one
    row per map on a leading axis, each bit-identical to the call on that
    map alone. A result beyond the float range is an OverflowError.

    Per chunk of _BLOCK_ENTRIES / N pairs, taken in the order of v so that
    repeated targets share a chunk, the N segments clipped to [a, c] give
    one row of terms per distinct target c (a u or a v), in kernel moments
    that every map shares. The row sum at u is the integral over [a, u] at
    u; the row at v, split at the node u, gives those at v over [a, u] and
    [u, v]. Each sums the N terms of a per-pair clip of every segment, in
    order, so the bits are those of the general form for any u,
    tests/_reference.py::modulus_clipped_reference.
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
    off = np.flatnonzero(x[np.searchsorted(x, us)] != us)  # an index <= n, as u <= b
    if off.size:
        raise ValueError(f"u must be a grid node, got u={us[off[0]]} on {n} segments of [{a}, {b}]")
    henvs = [np.maximum(np.abs(m.lo), np.abs(m.hi)) for m in maps]
    chunk = max(1, _BLOCK_ENTRIES // n)
    order = np.argsort(vs, kind="stable")
    out = np.empty((len(maps), us.size))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        for c0 in range(0, us.size, chunk):
            pos = order[c0 : c0 + chunk]
            targets, inverse = np.unique(np.concatenate((us[pos], vs[pos])), return_inverse=True)
            c = targets[:, None]
            left, right = np.minimum(x[:-1], c), np.minimum(x[1:], c)
            w_left, w_right = _hat_moments(c - left, c - right, np.where(right > left, right - left, 1.0), rho)
            # The segments left and right of the node u.
            split = np.stack((x[1:] <= us[pos, None], x[:-1] >= us[pos, None]))
            for h, o in zip(henvs, out):
                row = w_left * np.interp(left, x, h) + w_right * np.interp(right, x, h)
                i_v, tail = np.where(split, row[inverse[pos.size :]], 0.0).sum(axis=2)
                o[pos] = np.abs(i_v - row.sum(axis=1)[inverse[: pos.size]]) + tail
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
