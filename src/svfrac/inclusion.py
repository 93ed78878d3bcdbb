"""Caputo fractional differential inclusions via the integral-inclusion form.

The inclusion of order alpha in (1, 2) with initial value and slope is solved
on its equivalent integral form by Picard iteration: at each sweep a policy
(lower / upper / midpoint endpoint of the right-hand side) selects a
single-valued integrand, which is fractionally integrated by the exact
product quadrature. Successive approximation converges when the declared
Lipschitz constant of the field makes the integral operator a contraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gridmap import GridMap, _csv
from .regularity import bound_sup
from .rl import RLOperator, positive

POLICIES = ("lower", "upper", "midpoint")
PROBE_NODES = 17  # times and states on the probe grid of rhs_monotone_in_u
PROBE_SPAN = 10.0  # its states lie within PROBE_SPAN of u0


def _rhs_constant(lo: float = 1.0, hi: float | None = None):
    hi = lo if hi is None else hi
    return lambda t, u: (lo, hi)


def _rhs_symmetric(k: float = 1.0):
    return _rhs_constant(-k, k)


def _rhs_time_identity(width: float = 0.0):
    return lambda t, u: (t - width, t + width)


def _rhs_affine(p: float = 0.0, q_lo: float = 0.0, q_hi: float = 0.0):
    return lambda t, u: (p * u + q_lo, p * u + q_hi)


_RHS_BUILTINS = {
    "constant": _rhs_constant,
    "symmetric": _rhs_symmetric,
    "time_identity": _rhs_time_identity,
    "affine": _rhs_affine,
}


@dataclass
class CaputoProblem:
    """Inclusion of order alpha in (1, 2) with the elementwise field rhs(ts, us) -> (lo, hi)."""

    alpha: float
    t0: float
    T: float
    u0: float
    u1: float
    rhs: Callable[[np.ndarray, np.ndarray], tuple]
    rhs_lipschitz_u: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"order alpha must lie in (1, 2), got {self.alpha}")
        for name in ("t0", "T", "u0", "u1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t0 < self.T:
            raise ValueError(f"time domain requires t0 < T, got [{self.t0}, {self.T}]")
        positive("declared Lipschitz constant", self.rhs_lipschitz_u, strict=False)

    def contraction_factor(self) -> float:
        """L (T - t0)^alpha / Gamma(alpha + 1), the sup bound of 3.3 with M = L."""
        return bound_sup(self.alpha, self.rhs_lipschitz_u, self.t0, self.T)

    @classmethod
    def from_json(cls, obj: dict) -> "CaputoProblem":
        """The problem of a problem-file object. The rhs params become floats
        here, so an ill-typed one fails on reading, not at the first sweep.
        Text that is no number is a TypeError, like a value of another type;
        a number out of range is a ValueError."""
        rhs_spec = obj["rhs"]
        kind = rhs_spec["kind"]
        if kind not in _RHS_BUILTINS:
            raise ValueError(
                f"unknown rhs kind {kind!r}; known: {sorted(_RHS_BUILTINS)}"
            )
        try:
            params = {name: float(x) for name, x in rhs_spec.get("params", {}).items()}
            values = {name: float(obj[name]) for name in ("alpha", "t0", "T", "u0", "u1")}
            lipschitz = float(obj.get("lipschitz_u", 0.0))
        except ValueError as exc:
            raise TypeError(str(exc)) from exc
        return cls(**values, rhs=_RHS_BUILTINS[kind](**params), rhs_lipschitz_u=lipschitz)


@dataclass
class Trajectory:
    ts: np.ndarray
    us: np.ndarray
    iterations_used: int
    residual: float

    def to_csv(self, out=None) -> str | None:
        return _csv("t,u", self.ts, self.us, out=out)


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance within max_iter sweeps."""

    def __init__(self, residuals: list[float], max_iter: int, tol: float):
        self.residuals = residuals
        last = residuals[-1]
        reason = (
            f"last residual {last:.3e} > tol {tol:.3e}" if np.isfinite(last)
            else f"the iterate left the float range (last residual {last})"
        )
        super().__init__(f"no convergence after {max_iter} iterations: {reason}")


def _endpoints(p: CaputoProblem, ts, us) -> tuple[np.ndarray, np.ndarray]:
    """The field's endpoint arrays on the broadcast points (ts, us), from one call;
    ValueError at the first node, in flat order, where not finite lo <= hi."""
    ts, us = np.broadcast_arrays(ts, us)
    lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), ts.shape) for x in p.rhs(ts, us))
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"rhs must give finite lo <= hi, got [{lo.flat[k]}, {hi.flat[k]}] "
                         f"at node {k} (t={ts.flat[k]}, u={us.flat[k]})")
    return lo, hi


def _policy_values(p: CaputoProblem, ts: np.ndarray, us: np.ndarray, policy: str) -> np.ndarray:
    lo, hi = _endpoints(p, ts, us)
    if policy == "lower":
        return lo
    if policy == "upper":
        return hi
    return 0.5 * lo + 0.5 * hi


def solve_with_policy(
    p: CaputoProblem,
    policy: str = "midpoint",
    n: int = 256,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> Trajectory:
    """Picard iteration on the integral form with a fixed endpoint policy.

    The integrand is sampled at the grid nodes and treated as piecewise
    linear, the same representation-class approximation used everywhere else.
    Non-convergence raises NonConvergenceError carrying the residual history,
    also when an iterate leaves the float range: the sweep stops there, before
    the field is evaluated on it, with a non-finite last residual. An initial
    line u0 + u1 (t - t0) beyond the float range is a ValueError instead.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    positive("tolerance", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if p.contraction_factor() >= 1.0:
        warnings.warn(
            "declared Lipschitz constant gives contraction factor "
            f"{p.contraction_factor():.3g} >= 1; Picard iteration may diverge",
            stacklevel=2,
        )
    apply = RLOperator(p.t0, p.T, n, p.alpha)
    ts = np.linspace(p.t0, p.T, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        init = p.u0 + p.u1 * (ts - p.t0)
    if not np.isfinite(init).all():
        raise ValueError(f"initial line u0 + u1 (t - t0) is beyond the float range on [{p.t0}, {p.T}]")
    us = init.copy()
    residuals: list[float] = []
    for it in range(1, max_iter + 1):
        v = _policy_values(p, ts, us, policy)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging iterate stops below
            nxt = init + apply(v)
            res = float(np.abs(nxt - us).max())
        residuals.append(res)
        if not np.isfinite(res):
            raise NonConvergenceError(residuals, it, tol)
        us = nxt
        if res <= tol:
            return Trajectory(ts=ts, us=us, iterations_used=it, residual=res)
    raise NonConvergenceError(residuals, max_iter, tol)


def rhs_monotone_in_u(p: CaputoProblem) -> bool:
    """Probe whether both endpoint functions of the field are nondecreasing
    in u on a sample grid; the funnel is a guaranteed enclosure of
    policy-constant solutions only in that case."""
    ts = np.linspace(p.t0, p.T, PROBE_NODES)[:, None]
    us = np.linspace(p.u0 - PROBE_SPAN, p.u0 + PROBE_SPAN, PROBE_NODES)
    lo, hi = _endpoints(p, ts, us)
    return not (np.any(np.diff(lo) < -1e-12) or np.any(np.diff(hi) < -1e-12))


def solution_funnel(
    p: CaputoProblem, n: int = 256, max_iter: int = 50, tol: float = 1e-10
) -> GridMap:
    """Envelope of the lower-policy and upper-policy trajectories.

    This is an envelope of policy trajectories, not a certified reachable
    set. A warning is issued when the monotonicity probe fails and the
    enclosure property is therefore not guaranteed.
    """
    low = solve_with_policy(p, "lower", n, max_iter, tol)
    high = solve_with_policy(p, "upper", n, max_iter, tol)
    if not rhs_monotone_in_u(p):
        warnings.warn(
            "rhs endpoints are not nondecreasing in u on the probe grid; "
            "the funnel is not a guaranteed enclosure",
            stacklevel=2,
        )
    lo = np.minimum(low.us, high.us)
    hi = np.maximum(low.us, high.us)
    return GridMap(p.t0, p.T, lo, hi)


def funnel_to_csv(g: GridMap, out=None) -> str | None:
    return _csv("t,lo,hi", g.nodes, g.lo, g.hi, out=out)
