"""Interval-valued functions on [a, b] with piecewise-linear endpoint functions.

A GridMap stores interval values at the nodes of a uniform grid; both
endpoint functions are linearly interpolated between nodes, so the
ordering lo <= hi and boundedness hold on the whole domain automatically.
A Selection is the point-valued GridMap: its lo and hi are one array.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .interval import Interval

_BUILTIN_KINDS = ("constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat")
CSV_BLOCK = 512  # CSV rows formatted by one % and written by one write


def _check_domain(a: float, b: float) -> None:
    """ValueError unless a < b with a finite length b - a, which also makes a
    and b finite. Every grid, weight and bound on [a, b] checks this before
    it computes anything, since an infinite b - a makes the nodes NaN."""
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"domain requires a < b with a finite length b - a, got [{a}, {b}]")


class GridMap:
    """Interval-valued map on [a, b] sampled at n_segments + 1 uniform nodes."""

    def __init__(self, a: float, b: float, lo: Sequence[float], hi: Sequence[float]):
        _check_domain(a, b)
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

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_builtin(
        cls, kind: str, a: float = 0.0, b: float = 1.0, n_segments: int = 256, **params
    ) -> "GridMap":
        """The builtin map `kind` on [a, b]; an unknown parameter is a TypeError."""
        _check_domain(a, b)  # before the nodes, which an infinite b - a makes NaN
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
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
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


SEED_LIMIT = 2**63  # seeds are integers in [0, SEED_LIMIT)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _check_seed(seed) -> int:
    """`seed` as an int; ValueError, naming it, unless 0 <= seed < 2**63."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1  # not an integer: rejected below with the range
    if not 0 <= value < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**63), got {seed!r}")
    return value


def oracle_seeds(seed: int, count: int) -> list[int]:
    """The seeds of an oracle of `count` draws: seed, seed + 1, ..., each
    mod 2**63, so that every seed in [0, 2**63) has its oracle."""
    seed = _check_seed(seed)
    return [(seed + k) % SEED_LIMIT for k in range(count)]


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on the uint64 array z, in place and
    mod 2**64; tmp is scratch space of z's shape."""
    for shift, mult in zip((30, 27), _MIX):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mult
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def selection_draws(n_nodes: int, seeds) -> np.ndarray:
    """One row of uniform [0, 1) draws per seed, an integer in [0, 2**63):
    row r holds draws 0..n_nodes-1 of the stream of seeds[r].

    Draw m of seed s is SplitMix64's counter-based (mix(mix(s) + (m + 1) G)
    >> 11) 2**-53, with G = 0x9E3779B97F4A7C15 and mix its output function
    (Steele, Lea & Flood, OOPSLA 2014): a multiple of 2**-53, a pure
    function of (s, m). Each row is computed in place on uint64 arrays."""
    out = np.empty((len(seeds), n_nodes))
    keys = np.array([_check_seed(s) for s in seeds], dtype=np.uint64)
    _mix(keys, np.empty_like(keys))
    counter = np.arange(1, n_nodes + 1, dtype=np.uint64)
    counter *= _GOLDEN
    z, tmp = np.empty_like(counter), np.empty_like(counter)
    for row, key in zip(out, keys):
        _mix(np.add(counter, key, out=z), tmp)
        z >>= np.uint64(11)
        np.multiply(z, 2.0**-53, out=row)
    return out


def draw_indices(seed: int, k: int, count: int) -> np.ndarray:
    """floor(u * k) for the first `count` draws u of the stream of `seed`:
    integers in [0, k), for k up to 2**53."""
    return (selection_draws(count, [seed])[0] * k).astype(np.intp)
