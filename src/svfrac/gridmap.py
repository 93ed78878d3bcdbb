"""Interval-valued functions on [a, b] with piecewise-linear endpoint functions.

A GridMap stores interval values at the nodes of a uniform grid; both
endpoint functions are linearly interpolated between nodes, so the
ordering lo <= hi and boundedness hold on the whole domain automatically.
A Selection is a single-valued piecewise-linear function on the same grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .interval import Interval

_BUILTIN_KINDS = ("constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat")


class GridMap:
    """Interval-valued map on [a, b] sampled at n_segments + 1 uniform nodes."""

    def __init__(self, a: float, b: float, lo: Sequence[float], hi: Sequence[float]):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"domain requires finite a < b, got [{a}, {b}]")
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 2:
            raise ValueError("lo and hi must be equal-length 1-d sequences with >= 2 nodes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("node values must be finite")
        if (lo > hi).any():
            bad = int(np.argmax(lo > hi))
            raise ValueError(f"lo > hi at node {bad}: [{lo[bad]}, {hi[bad]}]")
        self.a = float(a)
        self.b = float(b)
        self.lo = lo
        self.hi = hi
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def n_segments(self) -> int:
        return self.lo.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.lo.size)

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.n_segments

    def interval_at(self, i: int) -> Interval:
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def eval(self, u: float) -> Interval:
        if not self.a <= u <= self.b:
            raise ValueError(f"evaluation point {u} outside [{self.a}, {self.b}]")
        nodes = self.nodes
        return Interval(
            float(np.interp(u, nodes, self.lo)),
            float(np.interp(u, nodes, self.hi)),
        )

    def sup_bound(self) -> float:
        """sup over [a,b] of sup_{x in F(u)} |x|.

        Exact: |linear| attains its maximum on a segment at an endpoint.
        """
        return float(max(np.abs(self.lo).max(), np.abs(self.hi).max()))

    def extremal_lower(self) -> "Selection":
        return Selection(self.a, self.b, self.lo.copy())

    def extremal_upper(self) -> "Selection":
        return Selection(self.a, self.b, self.hi.copy())

    def random_selection(self, seed: int) -> "Selection":
        """Node values drawn uniformly from [lo_i, hi_i]; pure in (self, seed)."""
        y = self.lo + selection_draws(self.lo.size, [seed])[0] * (self.hi - self.lo)
        return Selection(self.a, self.b, y)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_builtin(
        cls, kind: str, a: float = 0.0, b: float = 1.0, n_segments: int = 256, **params
    ) -> "GridMap":
        u = np.linspace(a, b, n_segments + 1)
        if kind == "constant":
            lo = float(params.get("lo", -1.0))
            hi = float(params.get("hi", 1.0))
            return cls(a, b, np.full(u.size, lo), np.full(u.size, hi))
        if kind == "sym_linear":
            s = float(params.get("slope", 1.0))
            return cls(a, b, -s * u, s * u)
        if kind == "affine":
            c_lo = float(params.get("c_lo", 0.0))
            s_lo = float(params.get("s_lo", 0.5))
            c_hi = float(params.get("c_hi", 1.0))
            s_hi = float(params.get("s_hi", 1.0))
            return cls(a, b, c_lo + s_lo * u, c_hi + s_hi * u)
        if kind == "abs_envelope":
            c = float(params.get("center", 0.5 * (a + b)))
            return cls(a, b, -np.abs(u - c), np.abs(u - c))
        if kind == "sin_envelope":
            amp = float(params.get("amp", 1.0))
            off = float(params.get("off", 0.3))
            freq = float(params.get("freq", 2.0 * math.pi))
            return cls(a, b, -amp + off * np.sin(freq * u), amp + off * np.cos(freq * u))
        if kind == "hat":
            h = float(params.get("height", 1.0))
            mid = 0.5 * (a + b)
            hat = h * (1.0 - np.abs(u - mid) / (0.5 * (b - a)))
            return cls(a, b, np.zeros(u.size), hat)
        raise ValueError(f"unknown builtin map kind {kind!r}; known: {sorted(_BUILTIN_KINDS)}")

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "segments": self.n_segments,
            "kind": "samples",
            "lo": [float(x) for x in self.lo],
            "hi": [float(x) for x in self.hi],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GridMap":
        a = float(obj["a"])
        b = float(obj["b"])
        n = int(obj["segments"])
        kind = obj.get("kind", "samples")
        if kind == "samples":
            lo = obj["lo"]
            hi = obj["hi"]
            if len(lo) != n + 1 or len(hi) != n + 1:
                raise ValueError("lo/hi length must be segments + 1")
            return cls(a, b, lo, hi)
        return cls.from_builtin(kind, a, b, n, **obj.get("params", {}))

    def to_csv(self) -> str:
        return _csv("u,lo,hi", self.nodes, self.lo, self.hi)


class Selection:
    """Single-valued piecewise-linear function on the same uniform grid as a GridMap."""

    def __init__(self, a: float, b: float, values: Sequence[float]):
        values = np.asarray(values, dtype=float)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"domain requires finite a < b, got [{a}, {b}]")
        if values.ndim != 1 or values.size < 2 or not np.isfinite(values).all():
            raise ValueError("selection values must be a finite 1-d sequence with >= 2 nodes")
        self.a = float(a)
        self.b = float(b)
        self.values = values
        self.values.setflags(write=False)

    @property
    def n_segments(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.size)

    def eval(self, u: float) -> float:
        if not self.a <= u <= self.b:
            raise ValueError(f"evaluation point {u} outside [{self.a}, {self.b}]")
        return float(np.interp(u, self.nodes, self.values))

    def is_selection_of(self, f: GridMap, tol: float = 0.0) -> bool:
        """Node-wise membership; implies membership on all of [a,b] because
        the selection and both endpoint functions are linear on each segment.
        Cross-grid attachment is an error, not False."""
        if (f.a, f.b, f.n_segments) != (self.a, self.b, self.n_segments):
            raise ValueError("selection and map must share the same grid")
        return bool(
            np.all(f.lo - tol <= self.values) and np.all(self.values <= f.hi + tol)
        )

    def variation(self) -> float:
        """Total variation; exact for piecewise-linear functions."""
        return float(np.abs(np.diff(self.values)).sum())

    def lipschitz(self) -> float:
        """Smallest Lipschitz constant; exact for piecewise-linear functions."""
        du = (self.b - self.a) / self.n_segments
        return float(np.abs(np.diff(self.values)).max() / du)


def _csv(header: str, *columns) -> str:
    """The header line, then one CSV line of `.12g` values per row of the columns."""
    row = ",".join(["%.12g"] * len(columns))
    return "\n".join([header, *[row % values for values in zip(*columns)]]) + "\n"


def selection_draws(n_nodes: int, seeds) -> np.ndarray:
    """One row of uniform [0, 1) draws per seed: GridMap.random_selection(s)
    takes the node values lo + row * (hi - lo) from the row of seed s."""
    return np.array([np.random.default_rng(s).random(n_nodes) for s in seeds])
