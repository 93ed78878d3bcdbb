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


# Entries per temporary array in continuity_modulus, and entries of its
# per-map tables together, so that its memory stays bounded whatever the
# number of pairs and maps.
_BLOCK_ENTRIES = 1024
_TABLE_ENTRIES = 16 * _BLOCK_ENTRIES


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


def _masked_sums(x, rows, u, j, ends):
    """Sums of the table rows `rows` (maps x pairs x segments) at the pairs'
    v, masked to the segments left of u and to those right of u, with the
    segment j holding u taken from `ends` (maps x 2 x pairs): the integrals
    at v over [a, u] and over [u, v], each of shape (maps, pairs)."""
    masked = np.zeros((rows.shape[0], 2) + rows.shape[1:])
    np.copyto(masked, rows[:, None], where=np.stack((x[1:] <= u, x[:-1] >= u)))
    masked[:, :, np.arange(j.size), j] = ends
    return masked.sum(axis=3).transpose(1, 0, 2)


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
    bit-identical to the call on that map alone.

    Each of the three integrals is a sum of closed-form hat moments over the
    grid segments clipped to [a, u] or [u, v]. The terms of the integral
    over [a, c] at c depend only on the target c (a u or a v) and the map,
    so they are taken once per distinct target, as a row of a (targets x
    segments) table per map; the kernel moments of a row are taken once and
    applied to every map's envelope. The row sum at u is the integral at u.
    The row at v, masked to the segments left of u or right of u, gives the
    two integrals at v once the segment holding u is put in, clipped to
    [a, u] or to [u, v]: the only terms taken per pair. Every integral thus
    sums the same terms in the same order as a clip of every segment for
    each pair would, and gives the same bits.

    Memory stays bounded whatever the number of pairs and of maps, F. Pairs
    are taken in the order of v, in chunks of at most _BLOCK_ENTRIES / 2 and
    at most _TABLE_ENTRIES / 4F pairs, since a chunk keeps up to 4F entries
    per pair: the integrals at its targets and the terms of the segments
    holding u. A chunk's targets are taken in ascending blocks of at most
    _BLOCK_ENTRIES / N rows, whose F tables hold at most _TABLE_ENTRIES
    entries (FN when one row per map is more), and the pairs whose v is in
    a block are masked in blocks of half as many pairs, two rows each.
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
    chunk = max(1, min(_BLOCK_ENTRIES // 2, _TABLE_ENTRIES // (4 * len(maps))))
    rows = max(1, min(_BLOCK_ENTRIES // n, _TABLE_ENTRIES // (n * len(maps))))
    step = max(1, rows // 2)
    out = np.empty((len(maps), us.size))
    # Pairs are taken in the order of v, so that a chunk's pairs whose v is
    # in one block of targets are one slice.
    order = np.argsort(vs, kind="stable")
    for c0 in range(0, us.size, chunk):
        pos = order[c0 : c0 + chunk]
        uc, vc, oc = us[pos], vs[pos], np.empty((len(maps), pos.size))
        targets, inverse = np.unique(np.concatenate((uc, vc)), return_inverse=True)
        iu, iv = inverse[: uc.size], inverse[uc.size :]
        # The segment holding u (the last one for u = b), clipped to [a, u]
        # and to [u, v], at v.
        ju = np.minimum(np.searchsorted(x, uc, side="right") - 1, n - 1)
        ends = np.stack([t.reshape(2, -1) for t in _segment_terms(
            x, henvs, np.concatenate((ju, ju)), np.concatenate((np.full(uc.size, a), uc)),
            np.concatenate((uc, vc)), np.concatenate((vc, vc)), rho,
        )])
        at_u = np.empty((len(maps), targets.size))
        # Targets ascend, so each block's rows reach at least as many
        # segments as the block before: the columns it does not write are
        # still zero.
        tables = np.zeros((len(maps), rows, n))
        for k in range(0, targets.size, rows):
            c = targets[k : k + rows, None]
            m = min(n, np.searchsorted(x, c[-1, 0], side="right"))  # segments from a to c
            terms = _segment_terms(x, henvs, np.arange(m), a, c, c, rho)
            # terms leads the zip, so it runs out and frees its moments here.
            for row_terms, table, i_u in zip(terms, tables, at_u):
                table[: c.size, :m] = row_terms
                i_u[k : k + c.size] = table[: c.size].sum(axis=1)
            # The pairs whose v is in this block; u <= v, so their integrals
            # at u are in at_u already.
            first, last = np.searchsorted(iv, (k, k + c.size))
            for s0 in range(first, last, step):
                p = slice(s0, min(s0 + step, last))
                i_v, tail = _masked_sums(x, tables[:, iv[p] - k], uc[p, None], ju[p], ends[:, :, p])
                oc[:, p] = np.abs(i_v - at_u[:, iu[p]]) + tail
        out[:, pos] = oc
    out *= math.exp(-math.lgamma(rho))
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
