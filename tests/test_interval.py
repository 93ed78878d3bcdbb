"""Interval values: their validation as the node intervals of a GridMap,
the Hausdorff distance between them in the array form of
svfrac.regularity.hausdorff, and the measures built on it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference import lipschitz_by_diff, variation_by_diff
from svfrac import GridMap, hausdorff, lipschitz_constant, total_variation


def brute_hausdorff(a, b, samples=20001):
    """Independent oracle: sup-inf over fine samplings of both intervals."""
    xs = np.linspace(a[0], a[1], samples)
    ys = np.linspace(b[0], b[1], samples)
    d1 = max(min(abs(x - b[0]), abs(x - b[1])) if not (b[0] <= x <= b[1]) else 0.0 for x in xs)
    d2 = max(min(abs(y - a[0]), abs(y - a[1])) if not (a[0] <= y <= a[1]) else 0.0 for y in ys)
    return max(d1, d2)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw):
    x = draw(finite)
    y = draw(finite)
    return min(x, y), max(x, y)


@st.composite
def grid_maps(draw):
    """A map on [a, b] with 1 to 40 segments and node values within 1e6."""
    n = draw(st.integers(min_value=2, max_value=41))
    x = draw(arrays(np.float64, n, elements=finite))
    y = draw(arrays(np.float64, n, elements=finite))
    a = draw(st.floats(min_value=-1e3, max_value=1e3))
    length = draw(st.floats(min_value=1e-3, max_value=1e3))
    return GridMap(a, a + length, np.minimum(x, y), np.maximum(x, y))


def constant_map(lo, hi):
    """The map on [0, 1] whose two nodes hold the interval value [lo, hi]."""
    return GridMap(0.0, 1.0, [lo, lo], [hi, hi])


class TestConstruction:
    def test_degenerate_is_valid(self):
        a = constant_map(2.0, 2.0)
        assert np.all(a.hi - a.lo == 0.0)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            constant_map(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            constant_map(bad, 1.0)
        with pytest.raises(ValueError):
            constant_map(0.0, bad)


class TestHausdorff:
    def test_identity_case(self):
        assert hausdorff((0, 1), (0, 1)) == 0.0

    def test_forced_by_definition(self):
        assert hausdorff((-1, 1), (0, 3)) == 2.0

    def test_against_brute_force_oracle(self):
        a, b = (1, 3), (2, 6)
        assert hausdorff(a, b) == 3.0
        assert abs(brute_hausdorff(a, b) - 3.0) < 1e-3

    def test_to_zero_examples(self):
        assert hausdorff((-1, 2), (0.0, 0.0)) == 2.0
        assert hausdorff((0, 0), (0.0, 0.0)) == 0.0

    def test_to_zero_against_brute_force(self):
        a = (-5, -3)
        assert hausdorff(a, (0.0, 0.0)) == 5.0
        sup = max(abs(x) for x in np.linspace(a[0], a[1], 10001))
        assert abs(sup - 5.0) < 1e-12

    @given(intervals(), intervals())
    def test_metric_symmetry_nonnegativity(self, a, b):
        assert hausdorff(a, b) >= 0.0
        assert hausdorff(a, b) == hausdorff(b, a)
        assert (hausdorff(a, b) == 0.0) == (a == b)

    @given(intervals(), intervals(), intervals())
    def test_triangle_inequality(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9

    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
    def test_bounds_how_far_an_interval_sticks_out(self, lo, hi, v0, v1):
        """H((lo, hi), (v0, v1)) >= max(lo - v0, v1 - hi) for any finite
        floats, rounding and overflow included: |x| >= x and
        fl(v1 - hi) = -fl(hi - v1). So the endpoint identity's Hausdorff
        test implies that the oracle's hull lies inside the interval."""
        assert hausdorff((lo, hi), (v0, v1)) >= max(lo - v0, v1 - hi)

    @given(intervals())
    def test_to_zero_matches_distance_to_origin(self, a):
        assert max(abs(a[0]), abs(a[1])) == hausdorff(a, (0.0, 0.0))

    def test_one_interval_broadcasts_against_node_arrays(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 16)
        box = (-0.25, 0.5)
        d = hausdorff((f.lo, f.hi), box)
        assert d.shape == (17,)
        assert np.array_equal(d, [hausdorff((lo, hi), box) for lo, hi in zip(f.lo, f.hi)])
        assert np.array_equal(hausdorff(box, (f.lo, f.hi)), d)


class TestMeasuresOnTheOnePrimitive:
    @given(grid_maps())
    def test_variation_equals_the_diff_form(self, f):
        assert total_variation(f) == variation_by_diff(f)

    @given(grid_maps())
    def test_lipschitz_equals_the_diff_form(self, f):
        assert lipschitz_constant(f) == lipschitz_by_diff(f)
