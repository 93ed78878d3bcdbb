"""Nonempty compact intervals of the real line and the Hausdorff metric on them."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [lo, hi] with lo <= hi.

    Degenerate intervals (lo == hi) are valid and model singletons.
    Construction with lo > hi or non-finite endpoints is a hard error;
    silent repair would mask upstream bugs.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        return cls(float(obj["lo"]), float(obj["hi"]))


def hausdorff(a: Interval, b: Interval) -> float:
    """Hausdorff distance between two intervals: max of endpoint distances."""
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))
