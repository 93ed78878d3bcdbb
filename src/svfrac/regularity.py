"""Hausdorff-metric regularity of interval-valued maps and quantitative bounds.

Measured quantities (total variation, Lipschitz constant) are exact for the
piecewise-linear representation class; for maps sampled from smoother
originals they lower-bound the true values. A measure beyond the float
range is an OverflowError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gridmap import GridMap
from .rl import _row_moments, _scaled_power, positive


def hausdorff(a, b):
    """Hausdorff distance between intervals a = (lo, hi) and b = (lo, hi), max over rows k (as of
    a GridMap's `rows`) of |a[k] - b[k]|; floats or arrays, broadcast against each other."""
    return functools.reduce(np.maximum, (np.abs(x - y) for x, y in zip(a, b, strict=True)))


def _measure(name: str, f: GridMap, reduce, scale: float = 1.0) -> float:
    """reduce(H_d between consecutive node intervals of f) / scale; OverflowError if not finite."""
    with np.errstate(over="ignore"):  # rejected below
        value = float(reduce(hausdorff(f.rows[:, 1:], f.rows[:, :-1])) / scale)
    if not math.isfinite(value):
        raise OverflowError(f"the {name} of the map on [{f.a}, {f.b}] is not finite")
    return value


def total_variation(f: GridMap) -> float:
    """Total variation w.r.t. the Hausdorff metric.

    For intervals H_d reduces to the max of endpoint increments; within one
    segment both endpoint slopes are constant, so increments are additive and
    refinement cannot increase the partition sum. The node sum is the exact
    supremum over all partitions.
    """
    return _measure("total variation", f, np.sum)


def lipschitz_constant(f: GridMap) -> float:
    """Smallest Hausdorff-metric Lipschitz constant of the representation."""
    return _measure("Lipschitz constant", f, np.max, f.step)


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


_SUM_RUN = 4096  # nodes per einsum call of _node_sums
_PAIR_CHUNK = 512  # pairs whose edge terms continuity_modulus takes at once


def _node_sums(hs: np.ndarray, first: int, w: np.ndarray) -> np.ndarray:
    """w @ hs[m, first:first + w.size] for every row m of hs, one einsum per
    run of _SUM_RUN nodes, the runs added in order. einsum sums a run of at
    most its buffer (8192 entries) in one loop per row, so each value has
    the same bits whichever other rows share the call."""
    total = np.zeros(hs.shape[0])
    for k in range(0, w.size, _SUM_RUN):
        run = w[k : k + _SUM_RUN]
        total += np.einsum("mk,k->m", hs[:, first + k : first + k + run.size], run)
    return total


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

    With u = x_i, Phi = |A - B| + C: A and C integrate h against the
    kernel at v over [a, u] and [u, v], B against the kernel at u over
    [a, u]. Each is a partial sum of an operator row in the hat moments of
    [0, 1]: row j for v = x_j, and for v past x_k the row of a virtual node
    j = k + 1 at v, whose segments end at the distances v - x_k,
    v - x_k + step, ..., and whose first segment weighs h(v). A - B is one
    sum of row j's weights less row i's, so that its roundoff is relative
    to the difference. One table of moments serves the node rows; a virtual
    row is built for its pair and dropped. Each sum runs over its pair's
    nodes in a fixed order (_node_sums), and the edge terms are elementwise
    over chunks of _PAIR_CHUNK pairs, so each value depends on its map and
    pair alone.
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
    i = np.searchsorted(x, us)  # <= n, as u <= b
    off = np.flatnonzero(x[i] != us)
    if off.size:
        raise ValueError(f"u must be a grid node, got u={us[off[0]]} on {n} segments of [{a}, {b}]")
    j = np.searchsorted(x, vs)  # v's node, or the virtual node k + 1 of x_k < v < x_(k+1)
    at_node = x[j] == vs
    hs = np.empty((len(maps), n + 1))
    for m, h in zip(maps, hs):  # one map at a time: no list of the envelopes
        np.abs(m.rows).max(axis=0, out=h)
    top = int(j.max(initial=0))
    kernel, left, right = _row_moments(n, rho, top)
    # rev[m - 1] weighs node m of row top. Reversed rows are contiguous
    # copies: einsum sums a reversed view in another order, with other bits.
    rev = kernel[::-1].copy()
    out = np.empty((len(maps), us.size))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        for c in range(0, us.size, _PAIR_CHUNK):
            ic, jc, vc, nodes = (arr[c : c + _PAIR_CHUNK] for arr in (i, j, vs, at_node))
            # The moments at v of node 0 and node i over [a, u], of node i over [u, v], and of v.
            edge = np.array([left[jc], right[jc - ic], left[jc - ic], np.zeros(ic.size)])
            sums = np.zeros((2, len(maps), ic.size))  # C over nodes i+1..j, A - B over nodes 1..i-1
            for p, (ip, jp, node) in enumerate(zip(ic.tolist(), jc.tolist(), nodes.tolist())):
                row, end = rev, rev.size
                if not node:
                    kernel_v, left_v, right_v = _row_moments(n, rho, jp, (vc[p] - x[jp - 1]) / (b - a))
                    row = kernel_v[::-1].copy()
                    edge[:, p] = left_v[jp], right_v[jp - ip], left_v[jp - ip], right_v[0]
                    end = jp - 1  # hs holds no value at v: its weight is edge[3]
                first = row.size - jp  # row[first + m - 1] weighs node m
                sums[0, :, p] = _node_sums(hs, ip + 1, row[first + ip : end])
                if 1 < ip < jp:
                    sums[1, :, p] = _node_sums(hs, 1, row[first : first + ip - 1] - rev[top - ip : top - 1])
            # |A - B| + C, its terms taken and added in the order of
            # |w0 h(a) + sums[1] + w1 h_i| + (edge[2] h_i + sums[0]) + edge[3] h(v),
            # in out's slice, with sums as scratch once read.
            inner = ic > 0  # A and B integrate over [a, x_i]
            h_i, chunk = hs[:, ic], out[:, c : c + _PAIR_CHUNK]
            np.multiply(np.where(inner, edge[0] - left[ic], 0.0), hs[:, :1], out=chunk)
            chunk += sums[1]
            chunk += np.multiply(np.where(inner, edge[1] - right[0], 0.0), h_i, out=sums[1])
            np.abs(chunk, out=chunk)
            h_i *= edge[2]
            h_i += sums[0]
            chunk += h_i
            for m, h in enumerate(hs):
                sums[0, m] = np.interp(vc, x, h)
            chunk += np.multiply(edge[3], sums[0], out=sums[0])
            chunk[:, ic == jc] = 0.0
        try:
            out *= _scaled_power(1.0, a, b, rho, rho)
        except OverflowError:  # the scale alone is beyond the float range
            out[...] = math.inf
    if not np.isfinite(out).all():
        raise OverflowError(f"the continuity modulus of order {rho} on [{a}, {b}] is not finite")
    if single:
        return out[0].reshape(shape) if shape else float(out[0, 0])
    return out.reshape((len(maps),) + shape)


@dataclass(slots=True)
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
        obj = {"theorem": self.theorem, "fixture": self.fixture, "rho": self.rho, "measured": self.measured,
               "bound": self.bound, "status": self.status}
        if self.details:
            obj["details"] = self.details
        obj["pass"] = self.passed
        return obj
