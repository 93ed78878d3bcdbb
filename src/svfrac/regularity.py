"""Hausdorff-metric regularity of interval-valued maps and quantitative bounds.

Measured quantities (total variation, Lipschitz constant) are exact for the
piecewise-linear representation class; for maps sampled from smoother
originals they lower-bound the true values.
"""

from __future__ import annotations

import json
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


# Pair x segment entries per temporary array in continuity_modulus, so that
# its memory stays bounded whatever the number of pairs.
_BLOCK_ENTRIES = 1024


def _clip(x, h, lo, hi):
    """Every segment of the nodes x clipped to [lo, hi] (columns): its ends
    and the values there of the piecewise-linear function with node values h."""
    left, right = np.minimum(np.maximum(x[:-1], lo), hi), np.minimum(np.maximum(x[1:], lo), hi)
    return left, right, np.interp(left, x, h), np.interp(right, x, h)


def _kernel_integrals(c, segments, rho: float) -> np.ndarray:
    """Per row, the integral of (c - t)^(rho-1) times the piecewise-linear
    function over the clipped `segments` of _clip, for a column c at or
    beyond their right ends. Zero-length segments contribute 0."""
    left, right, h_left, h_right = segments
    length = right - left
    w_left, w_right = _hat_moments(
        c - left, np.maximum(c - right, 0.0), np.where(length > 0, length, 1.0), rho
    )
    return (w_left * h_left + w_right * h_right).sum(axis=1)


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
    their shape (a float for scalars). Every grid segment is clipped to
    [a, u] and to [u, v] and integrated in closed form, for blocks of pairs
    of at most about _BLOCK_ENTRIES pair x segment entries.
    """
    rho = positive("fractional order rho", rho)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast(u, v).shape
    us, vs = np.broadcast_to(u, shape).ravel(), np.broadcast_to(v, shape).ravel()
    bad = np.flatnonzero(~((f.a <= us) & (us <= vs) & (vs <= f.b)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"need a <= u <= v <= b, got u={us[k]}, v={vs[k]} on [{f.a}, {f.b}]")
    x = f.nodes
    henv = np.maximum(np.abs(f.lo), np.abs(f.hi))
    step = max(1, _BLOCK_ENTRIES // f.n_segments)
    out = np.empty(us.size)
    for k in range(0, out.size, step):
        uk, vk = us[k : k + step, None], vs[k : k + step, None]
        head = _clip(x, henv, f.a, uk)
        i_v, i_u = _kernel_integrals(vk, head, rho), _kernel_integrals(uk, head, rho)
        out[k : k + step] = np.abs(i_v - i_u) + _kernel_integrals(vk, _clip(x, henv, uk, vk), rho)
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

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)
