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

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        return cls(float(obj["lo"]), float(obj["hi"]))


def hausdorff(a: Interval, b: Interval) -> float:
    """Hausdorff distance between two intervals: max of endpoint distances."""
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


def hausdorff_to_zero(a: Interval) -> float:
    """Hausdorff distance to the singleton {0}, i.e. sup of |x| over x in a."""
    return max(abs(a.lo), abs(a.hi))


def contains(a: Interval, x: float) -> bool:
    """Membership test, closed at both endpoints."""
    return a.lo <= x <= a.hi


def convex_combo(a: Interval, b: Interval, lam: float) -> Interval:
    """Pointwise convex combination lam*a + (1-lam)*b."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"combination weight must lie in [0, 1], got {lam}")
    return Interval(lam * a.lo + (1.0 - lam) * b.lo, lam * a.hi + (1.0 - lam) * b.hi)
