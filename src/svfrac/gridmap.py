"""Interval-valued functions on [a, b] with piecewise-linear endpoint functions.

A GridMap stores the interval values at the nodes of a uniform grid as one
read-only (2, N+1) array `rows`, whose rows, the views lo and hi, are linearly
interpolated between nodes, so lo <= hi and boundedness hold on the whole
domain. A Selection is the one-row map, whose lo is its hi; a map's
extremal selections are views of its rows.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

_BUILTIN_KINDS = ("constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat")
CSV_BLOCK = 512  # CSV rows formatted by one % and written by one write


def _no_bool(value, name: str):
    """value; a ValueError naming `name` when it is a bool, which float()
    reads as 0 or 1 (JSON's false and true are not numbers)."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _check_domain(a: float, b: float, n: int = 1) -> None:
    """ValueError unless a < b with a finite length b - a, which also makes a
    and b finite, and the float nodes of n segments strictly increase (a step
    below the float spacing at a or b repeats them). linspace's roundoff is a
    few spacings at a normal step, so only a subnormal step, or one within 64
    spacings, has its nodes compared. Every grid, weight and bound on [a, b]
    checks this before it computes anything, since an infinite b - a makes
    the nodes NaN."""
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"domain requires a < b with a finite length b - a, got [{a}, {b}]")
    if n > 1 and (b - a) / n < max(64 * np.spacing(max(-a, b)), np.finfo(float).tiny):
        if not (np.diff(np.linspace(a, b, n + 1)) > 0).all():
            raise ValueError(f"the nodes of {n} segments of [{a}, {b}] repeat: the step is below the float spacing")


class GridMap:
    """Interval-valued map on [a, b] sampled at n_segments + 1 uniform nodes."""

    def __init__(self, a: float, b: float, lo: Sequence[float], hi: Sequence[float]):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        self._hold(a, b, np.stack((lo, hi)) if lo.shape == hi.shape else np.empty(0))  # _hold rejects empty

    def _hold(self, a: float, b: float, rows: np.ndarray) -> "GridMap":
        """Check and keep, read-only and uncopied, the float node values `rows`: lo first, hi last."""
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError("lo and hi must be equal-length 1-d sequences with >= 2 nodes")
        _check_domain(a, b, rows.shape[1] - 1)
        if not np.isfinite(rows).all():
            raise ValueError("node values must be finite")
        if (rows[0] > rows[-1]).any():
            bad = int(np.argmax(rows[0] > rows[-1]))
            raise ValueError(f"lo > hi at node {bad}: [{rows[0, bad]}, {rows[-1, bad]}]")
        rows.setflags(write=False)
        self.a, self.b, self.rows = float(a), float(b), rows
        ends = list(rows)  # one view for one row
        self.lo, self.hi = ends[0], ends[-1]
        return self

    @classmethod
    def _of_rows(cls, a: float, b: float, rows: np.ndarray) -> "GridMap":
        """The map on [a, b] of the float (2, N+1) array `rows`, held without a copy."""
        return cls.__new__(cls)._hold(a, b, rows)

    @property
    def n_segments(self) -> int:
        return self.rows.shape[1] - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.rows.shape[1])

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.n_segments

    def sup_bound(self) -> float:
        """sup over [a,b] of sup_{x in F(u)} |x|, exact: |linear| attains its
        maximum on a segment at an endpoint."""
        return float(np.abs(self.rows).max())

    def extremal_lower(self) -> "Selection":
        return Selection._of_rows(self.a, self.b, self.rows[:1])

    def extremal_upper(self) -> "Selection":
        return Selection._of_rows(self.a, self.b, self.rows[-1:])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_builtin(
        cls, kind: str, a: float = 0.0, b: float = 1.0, n_segments: int = 256, **params
    ) -> "GridMap":
        """The builtin map `kind` on [a, b]; an unknown parameter is a TypeError,
        a boolean one a ValueError."""
        _check_domain(a, b, n_segments)  # before the nodes, which an infinite b - a makes NaN
        for name, value in params.items():
            _no_bool(value, name)
        u = np.linspace(a, b, n_segments + 1)
        mid = 0.5 * a + 0.5 * b  # not 0.5 * (a + b), which overflows near the float limit
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
            c = float(params.pop("center", mid))
            lo, hi = -np.abs(u - c), np.abs(u - c)
        elif kind == "sin_envelope":
            amp = float(params.pop("amp", 1.0))
            off = float(params.pop("off", 0.3))
            freq = float(params.pop("freq", 2.0 * math.pi))
            lo, hi = -amp + off * np.sin(freq * u), amp + off * np.cos(freq * u)
        elif kind == "hat":
            h = float(params.pop("height", 1.0))
            lo, hi = np.zeros(u.size), h * (1.0 - np.abs(u - mid) / (0.5 * (b - a)))
        else:
            raise ValueError(f"unknown builtin map kind {kind!r}; known: {sorted(_BUILTIN_KINDS)}")
        # params is this call's own dict, so the pops above leave only unknown names.
        if params:
            raise TypeError(f"builtin map kind {kind!r} got unknown parameters {sorted(params)}")
        return GridMap(a, b, lo, hi)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        rows = self.rows.tolist()
        return {"a": self.a, "b": self.b, "segments": self.n_segments, "kind": "samples",
                "lo": rows[0], "hi": rows[-1]}

    @classmethod
    def from_json(cls, obj: dict) -> "GridMap":
        a, b = (float(_no_bool(obj[key], key)) for key in ("a", "b"))
        n = obj["segments"]
        # int() would silently truncate 2.5 to 2 and read true as 1.
        if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
            raise ValueError(f"segments must be an integer, got {n!r}")
        n = int(n)
        kind = obj.get("kind", "samples")
        if kind == "samples":
            lo, hi = obj["lo"], obj["hi"]
            if len(lo) != n + 1 or len(hi) != n + 1:
                raise ValueError("lo/hi length must be segments + 1")
            return GridMap(a, b, lo, hi)
        return cls.from_builtin(kind, a, b, n, **obj.get("params", {}))

    def to_csv(self, out=None) -> str | None:
        return _csv("u,lo,hi", self.nodes, self.lo, self.hi, out=out)


class Selection(GridMap):
    """Single-valued piecewise-linear function on a uniform grid: the
    one-row GridMap, whose lo and hi are one view, `values`."""

    def __init__(self, a: float, b: float, values: Sequence[float]):
        self._hold(a, b, np.array(values, dtype=float)[None])  # a copy, as in GridMap

    @property
    def values(self) -> np.ndarray:
        return self.lo

    def is_selection_of(self, f: GridMap) -> bool:
        """Node-wise membership; implies membership on all of [a,b] because
        the selection and both endpoint functions are linear on each segment.
        Cross-grid attachment is an error, not False."""
        if (f.a, f.b, f.n_segments) != (self.a, self.b, self.n_segments):
            raise ValueError("selection and map must share the same grid")
        return bool(np.all((f.rows[:1] <= self.rows) & (self.rows <= f.rows[-1:])))


def midpoint_selection(g: GridMap) -> Selection:
    """Midpoint selection, the default policy of the inclusion solver."""
    return Selection._of_rows(g.a, g.b, (0.5 * g.lo + 0.5 * g.hi)[None])


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
DEFAULT_SEED = 42  # of verify's 3.4 draws
POLICIES = ("lower", "upper", "midpoint")  # inclusion's selection policies
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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on the uint64 array z, mod 2**64."""
    z = (z ^ z >> 30) * _MIX[0]
    z = (z ^ z >> 27) * _MIX[1]
    return z ^ z >> 31


def selection_draws(n_nodes: int, seed: int) -> np.ndarray:
    """Draws 0..n_nodes-1, uniform in [0, 1), of the stream of `seed`, an
    integer in [0, 2**63).

    Draw m of seed s is SplitMix64's counter-based (mix(mix(s) + (m + 1) G)
    >> 11) 2**-53, with G = 0x9E3779B97F4A7C15 and mix its output function
    (Steele, Lea & Flood, OOPSLA 2014): a multiple of 2**-53, a pure
    function of (s, m), computed without state, at once on one uint64 array."""
    key = _mix(np.array([_check_seed(seed)], dtype=np.uint64))
    return (_mix(np.arange(1, n_nodes + 1, dtype=np.uint64) * _GOLDEN + key) >> 11) * 2.0**-53


def draw_indices(seed: int, k: int, count: int) -> np.ndarray:
    """floor(u * k) for the first `count` draws u of the stream of `seed`:
    integers in [0, k), for k up to 2**53."""
    return (selection_draws(count, seed) * k).astype(np.intp)
