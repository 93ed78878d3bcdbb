import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svfrac import Interval, hausdorff


def brute_hausdorff(a, b, samples=20001):
    """Independent oracle: sup-inf over fine samplings of both intervals."""
    xs = np.linspace(a.lo, a.hi, samples)
    ys = np.linspace(b.lo, b.hi, samples)
    d1 = max(min(abs(x - b.lo), abs(x - b.hi)) if not (b.lo <= x <= b.hi) else 0.0 for x in xs)
    d2 = max(min(abs(y - a.lo), abs(y - a.hi)) if not (a.lo <= y <= a.hi) else 0.0 for y in ys)
    return max(d1, d2)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw):
    x = draw(finite)
    y = draw(finite)
    return Interval(min(x, y), max(x, y))


class TestConstruction:
    def test_degenerate_is_valid(self):
        a = Interval(2.0, 2.0)
        assert a.hi - a.lo == 0.0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            Interval(bad, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, bad)

    def test_json_roundtrip(self):
        a = Interval(-1.5, 2.25)
        assert Interval.from_json(a.to_json()) == a


class TestHausdorff:
    def test_identity_case(self):
        assert hausdorff(Interval(0, 1), Interval(0, 1)) == 0.0

    def test_forced_by_definition(self):
        assert hausdorff(Interval(-1, 1), Interval(0, 3)) == 2.0

    def test_against_brute_force_oracle(self):
        a, b = Interval(1, 3), Interval(2, 6)
        assert hausdorff(a, b) == 3.0
        assert abs(brute_hausdorff(a, b) - 3.0) < 1e-3

    def test_to_zero_examples(self):
        assert hausdorff(Interval(-1, 2), Interval(0.0, 0.0)) == 2.0
        assert hausdorff(Interval(0, 0), Interval(0.0, 0.0)) == 0.0

    def test_to_zero_against_brute_force(self):
        a = Interval(-5, -3)
        assert hausdorff(a, Interval(0.0, 0.0)) == 5.0
        sup = max(abs(x) for x in np.linspace(a.lo, a.hi, 10001))
        assert abs(sup - 5.0) < 1e-12

    @given(intervals(), intervals())
    def test_metric_symmetry_nonnegativity(self, a, b):
        assert hausdorff(a, b) >= 0.0
        assert hausdorff(a, b) == hausdorff(b, a)
        assert (hausdorff(a, b) == 0.0) == (a == b)

    @given(intervals(), intervals(), intervals())
    def test_triangle_inequality(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9

    @given(intervals())
    def test_to_zero_matches_distance_to_origin(self, a):
        assert max(abs(a.lo), abs(a.hi)) == hausdorff(a, Interval(0.0, 0.0))
