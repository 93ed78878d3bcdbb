"""Caputo fractional differential inclusions via the integral-inclusion form.

The inclusion of order alpha in (1, 2) with initial value and slope is
solved on its equivalent integral form u = init + W F(t, u), with W the
exact product quadrature, one endpoint policy (lower / upper / midpoint of
the right-hand side) at a time. A field that is an AffineField, as every
problem-file builtin is, makes these discrete equations linear:
u = init + W(p u + q). They are solved directly, as u = init + R(p init + q)
with R = (I - pW)^-1 W, one Toeplitz operator built once per grid and p
(Lubich, SIAM J. Math. Anal. 17, 1986). Any other field, a Python
callable given through the Python API, is solved by Picard iteration, which
converges when the declared Lipschitz constant of the field makes the
integral operator a contraction.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gridmap import POLICIES, GridMap, _csv, _no_bool
from .rl import RLOperator, bound_sup, positive

PROBE_NODES = 17  # times and states on the probe grid of rhs_monotone_in_u
PROBE_SPAN = 10.0  # its states lie within PROBE_SPAN of u0


@dataclass(frozen=True)
class AffineField:
    """The field F(t, u) = [p u + lo + slope t, p u + hi + slope t]: affine in
    u with one factor p, its endpoints affine in t. Called as
    field(ts, us) -> (lo, hi), like any rhs."""

    p: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    slope: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")

    def __call__(self, t, u):
        base = self.p * u + self.slope * t
        return base + self.lo, base + self.hi


def _rhs_constant(lo: float = 1.0, hi: float | None = None) -> AffineField:
    return AffineField(lo=lo, hi=lo if hi is None else hi)


def _rhs_symmetric(k: float = 1.0) -> AffineField:
    return _rhs_constant(-k, k)


def _rhs_time_identity(width: float = 0.0) -> AffineField:
    return AffineField(lo=-width, hi=width, slope=1.0)


def _rhs_affine(p: float = 0.0, q_lo: float = 0.0, q_hi: float = 0.0) -> AffineField:
    return AffineField(p, q_lo, q_hi)


_RHS_BUILTINS = {
    "constant": _rhs_constant,
    "symmetric": _rhs_symmetric,
    "time_identity": _rhs_time_identity,
    "affine": _rhs_affine,
}


@dataclass
class CaputoProblem:
    """Inclusion of order alpha in (1, 2) with the elementwise field rhs(ts, us) -> (lo, hi).

    `affine` is rhs read at each use and unwrapped (inspect.unwrap), when
    that is an AffineField: the solvers solve directly from it and call rhs
    only in the monotonicity probe, also when rhs is a functools.wraps
    wrapper. rhs_lipschitz_u is read by Picard iteration alone."""

    alpha: float
    t0: float
    T: float
    u0: float
    u1: float
    rhs: Callable[[np.ndarray, np.ndarray], tuple]
    rhs_lipschitz_u: float = 0.0

    @property
    def affine(self) -> AffineField | None:
        field = inspect.unwrap(self.rhs)
        return field if isinstance(field, AffineField) else None

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
        Text that is no number, or a boolean, is a TypeError, like a value of
        another type; a number out of range is a ValueError. Keys it does not
        read, such as a declared Lipschitz constant, are ignored: every
        builtin is an AffineField, solved directly."""
        rhs_spec = obj["rhs"]
        kind = rhs_spec["kind"]
        if kind not in _RHS_BUILTINS:
            raise ValueError(
                f"unknown rhs kind {kind!r}; known: {sorted(_RHS_BUILTINS)}"
            )
        try:
            params = {name: float(_no_bool(x, name)) for name, x in rhs_spec.get("params", {}).items()}
            values = {name: float(_no_bool(obj[name], name)) for name in ("alpha", "t0", "T", "u0", "u1")}
        except ValueError as exc:
            raise TypeError(str(exc)) from exc
        unknown = sorted(params.keys() - inspect.signature(_RHS_BUILTINS[kind]).parameters.keys())
        if unknown:
            raise TypeError(f"rhs kind {kind!r} got unknown parameters {unknown}")
        return cls(**values, rhs=_RHS_BUILTINS[kind](**params))


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


def _endpoints(field, ts, us) -> tuple[np.ndarray, np.ndarray]:
    """The field's endpoint arrays on the broadcast points (ts, us), from one call;
    ValueError at the first node, in flat order, where not finite lo <= hi."""
    ts, us = np.broadcast_arrays(ts, us)
    lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), ts.shape) for x in field(ts, us))
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"rhs must give finite lo <= hi, got [{lo.flat[k]}, {hi.flat[k]}] "
                         f"at node {k} (t={ts.flat[k]}, u={us.flat[k]})")
    return lo, hi


def _policy_values(field, ts: np.ndarray, us: np.ndarray, policy: str) -> np.ndarray:
    lo, hi = _endpoints(field, ts, us)
    if policy == "lower":
        return lo
    if policy == "upper":
        return hi
    return 0.5 * lo + 0.5 * hi


def _initial_line(p: CaputoProblem, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid nodes and u0 + u1 (t - t0) on them; ValueError beyond the float range."""
    ts = np.linspace(p.t0, p.T, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        init = p.u0 + p.u1 * (ts - p.t0)
    if not np.isfinite(init).all():
        raise ValueError(f"initial line u0 + u1 (t - t0) is beyond the float range on [{p.t0}, {p.T}]")
    return ts, init


def _solve_affine(p: CaputoProblem, n: int, policies) -> np.ndarray:
    """The solution of u = init + W(p u + q) for each policy, one row each,
    as u = init + R(p init + q) with one resolvent operator R for them all.
    The initial line is rebuilt where it is needed rather than kept through
    the apply, whose workspace is the solve's peak. OverflowError when a
    solution is beyond the float range."""
    resolvent = RLOperator(p.t0, p.T, n, p.alpha, p=p.affine.p)
    us = np.array([_policy_values(p.affine, *_initial_line(p, n), policy) for policy in policies])
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        resolvent(us, out=us)
        us += _initial_line(p, n)[1]
    if not np.isfinite(us).all():
        raise OverflowError(f"the solution on [{p.t0}, {p.T}] is beyond the float range")
    return us


def solve_with_policy(
    p: CaputoProblem,
    policy: str = "midpoint",
    n: int = 256,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> Trajectory:
    """The integral form with a fixed endpoint policy, on the grid of n segments.

    The integrand is sampled at the grid nodes and treated as piecewise
    linear, the same representation-class approximation used everywhere else.

    An affine field (p.affine) is solved directly, in one step: the
    trajectory reads iterations_used 1, and its residual is the defect
    max|u - init - W F(t, u)| of the discrete equations. A solution beyond
    the float range is an OverflowError.

    Any other field is solved by Picard iteration, whose residual is the
    last sweep's change; a tol that is not a positive normal float or a
    max_iter below 1 is a ValueError. Non-convergence raises
    NonConvergenceError carrying the residual history, also when an iterate
    leaves the float range: the sweep stops there, before the field is
    evaluated on it, with a non-finite last residual.

    An initial line u0 + u1 (t - t0) beyond the float range is a ValueError.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if p.affine is not None:
        (us,) = _solve_affine(p, n, (policy,))
        ts, init = _initial_line(p, n)
        apply = RLOperator(p.t0, p.T, n, p.alpha)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect is reported as it is
            defect = us - init - apply(_policy_values(p.affine, ts, us, policy))
        return Trajectory(ts=ts, us=us, iterations_used=1, residual=float(np.abs(defect).max()))
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
    ts, init = _initial_line(p, n)
    us = init.copy()
    residuals: list[float] = []
    for it in range(1, max_iter + 1):
        v = _policy_values(p.rhs, ts, us, policy)
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
    return not (np.diff(_endpoints(p.rhs, ts, us)) < -1e-12).any()


def solution_funnel(
    p: CaputoProblem, n: int = 256, max_iter: int = 50, tol: float = 1e-10
) -> GridMap:
    """Envelope of the lower-policy and upper-policy trajectories, both
    solved directly from one resolvent operator for an affine field, and by
    Picard iteration otherwise (see solve_with_policy).

    This is an envelope of policy trajectories, not a certified reachable
    set. A warning is issued when the monotonicity probe fails and the
    enclosure property is therefore not guaranteed.
    """
    if p.affine is not None:
        us = _solve_affine(p, n, ("lower", "upper"))
    else:
        us = np.array([solve_with_policy(p, policy, n, max_iter, tol).us for policy in ("lower", "upper")])
    if not rhs_monotone_in_u(p):
        warnings.warn(
            "rhs endpoints are not nondecreasing in u on the probe grid; "
            "the funnel is not a guaranteed enclosure",
            stacklevel=2,
        )
    us.sort(axis=0)
    return GridMap._of_rows(p.t0, p.T, us)


def funnel_to_csv(g: GridMap, out=None) -> str | None:
    return _csv("t,lo,hi", g.nodes, *g.rows, out=out)
