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
from .rl import kernel_hat_weights, positive


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


def _breakpoints(f: GridMap, left: float, right: float) -> np.ndarray:
    nodes = f.nodes
    inner = nodes[(nodes > left) & (nodes < right)]
    return np.concatenate(([left], inner, [right]))


def continuity_modulus(f: GridMap, rho: float, u: float, v: float) -> float:
    """Modulus dominating H_d between integral values at u and v (u <= v):

        (1/Gamma(rho)) * ( int_a^u |(v-t)^(rho-1) - (u-t)^(rho-1)| h(t) dt
                           + int_u^v (v-t)^(rho-1) h(t) dt )

    with h the piecewise-linear interpolant of the node envelope
    max(|lo_i|, |hi_i|). On each segment the true envelope is convex, so the
    interpolant dominates it and the modulus remains a valid upper bound.
    The kernel difference has a single sign on [a, u] (negative for rho > 1,
    positive for rho < 1, zero for rho = 1), so its absolute integral is the
    absolute difference of the two product integrals.
    """
    rho = positive("fractional order rho", rho)
    if not (f.a <= u <= v <= f.b):
        raise ValueError(f"need a <= u <= v <= b, got u={u}, v={v} on [{f.a}, {f.b}]")
    if u == v:
        return 0.0
    nodes = f.nodes
    henv = np.maximum(np.abs(f.lo), np.abs(f.hi))

    def h_at(ts):
        return np.interp(ts, nodes, henv)

    total = 0.0
    if u > f.a:
        ts1 = _breakpoints(f, f.a, u)
        hv = h_at(ts1)
        i_v = float(kernel_hat_weights(v, rho, ts1) @ hv)
        i_u = float(kernel_hat_weights(u, rho, ts1) @ hv)
        total += abs(i_v - i_u)
    ts2 = _breakpoints(f, u, v)
    total += float(kernel_hat_weights(v, rho, ts2) @ h_at(ts2))
    return total * math.exp(-math.lgamma(rho))


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
