"""Interval-valued functions on [a, b] with piecewise-linear endpoint functions.

A GridMap stores interval values at the nodes of a uniform grid; both
endpoint functions are linearly interpolated between nodes, so the
ordering lo <= hi and boundedness hold on the whole domain automatically.
A Selection is the point-valued GridMap: its lo and hi are one array.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .interval import Interval

_BUILTIN_KINDS = ("constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat")
CSV_BLOCK = 512  # CSV rows formatted by one % and written by one write


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
        """The builtin map `kind` on [a, b]; an unknown parameter is a TypeError."""
        u = np.linspace(a, b, n_segments + 1)
        if kind == "constant":
            lo = np.full(u.size, float(params.pop("lo", -1.0)))
            hi = np.full(u.size, float(params.pop("hi", 1.0)))
        elif kind == "sym_linear":
            s = float(params.pop("slope", 1.0))
            lo, hi = -s * u, s * u
        elif kind == "affine":
            c_lo = float(params.pop("c_lo", 0.0))
            s_lo = float(params.pop("s_lo", 0.5))
            c_hi = float(params.pop("c_hi", 1.0))
            s_hi = float(params.pop("s_hi", 1.0))
            lo, hi = c_lo + s_lo * u, c_hi + s_hi * u
        elif kind == "abs_envelope":
            c = float(params.pop("center", 0.5 * (a + b)))
            lo, hi = -np.abs(u - c), np.abs(u - c)
        elif kind == "sin_envelope":
            amp = float(params.pop("amp", 1.0))
            off = float(params.pop("off", 0.3))
            freq = float(params.pop("freq", 2.0 * math.pi))
            lo, hi = -amp + off * np.sin(freq * u), amp + off * np.cos(freq * u)
        elif kind == "hat":
            h = float(params.pop("height", 1.0))
            mid = 0.5 * (a + b)
            lo, hi = np.zeros(u.size), h * (1.0 - np.abs(u - mid) / (0.5 * (b - a)))
        else:
            raise ValueError(f"unknown builtin map kind {kind!r}; known: {sorted(_BUILTIN_KINDS)}")
        # params is this call's own dict, so the pops above leave only unknown names.
        if params:
            raise TypeError(f"builtin map kind {kind!r} got unknown parameters {sorted(params)}")
        return GridMap(a, b, lo, hi)

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
        n = obj["segments"]
        # int() would silently truncate 2.5 to 2 and read true as 1.
        if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
            raise ValueError(f"segments must be an integer, got {n!r}")
        n = int(n)
        kind = obj.get("kind", "samples")
        if kind == "samples":
            lo = obj["lo"]
            hi = obj["hi"]
            if len(lo) != n + 1 or len(hi) != n + 1:
                raise ValueError("lo/hi length must be segments + 1")
            return GridMap(a, b, lo, hi)
        return cls.from_builtin(kind, a, b, n, **obj.get("params", {}))

    def to_csv(self, out=None) -> str | None:
        return _csv("u,lo,hi", self.nodes, self.lo, self.hi, out=out)


class Selection(GridMap):
    """Single-valued piecewise-linear function on a uniform grid: the
    point-valued GridMap, whose lo and hi are one array, `values`."""

    def __init__(self, a: float, b: float, values: Sequence[float]):
        values = np.asarray(values, dtype=float)
        super().__init__(a, b, values, values)

    @property
    def values(self) -> np.ndarray:
        return self.lo

    def eval(self, u: float) -> float:
        return super().eval(u).lo

    def is_selection_of(self, f: GridMap) -> bool:
        """Node-wise membership; implies membership on all of [a,b] because
        the selection and both endpoint functions are linear on each segment.
        Cross-grid attachment is an error, not False."""
        if (f.a, f.b, f.n_segments) != (self.a, self.b, self.n_segments):
            raise ValueError("selection and map must share the same grid")
        return bool(np.all(f.lo <= self.values) and np.all(self.values <= f.hi))


def _csv(header: str, *columns, out=None) -> str | None:
    """The header line, then one CSV line of `.12g` values per row of the
    columns, written to the text stream `out` CSV_BLOCK rows at a time, so
    that only one block's text exists at once. Without a stream, the text is
    returned."""

    def blocks():
        yield header + "\n"
        line = ",".join(["%.12g"] * len(columns)) + "\n"
        for start in range(0, len(columns[0]), CSV_BLOCK):
            block = np.column_stack([c[start : start + CSV_BLOCK] for c in columns])
            yield line * len(block) % tuple(block.ravel().tolist())

    if out is None:
        return "".join(blocks())
    out.writelines(blocks())
    return None


def selection_draws(n_nodes: int, seeds) -> np.ndarray:
    """One row of uniform [0, 1) draws per seed: GridMap.random_selection(s)
    takes the node values lo + row * (hi - lo) from the row of seed s. Each
    row is drawn into the result in place."""
    out = np.empty((len(seeds), n_nodes))
    for row, s in zip(out, seeds):
        np.random.default_rng(s).random(out=row)
    return out
