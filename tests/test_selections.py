import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svfrac import (
    GridMap,
    Selection,
    lipschitz_constant,
    midpoint_selection,
    rl_setvalued,
    total_variation,
)
from svfrac import verify
from svfrac.cli import main
from svfrac.verify import selection_reports


def integral_of_canonical(rho=1.0, n=64):
    return rl_setvalued(GridMap.from_builtin("sym_linear", 0, 1, n), rho)


def reports_of(f, rho):
    """selection_reports(f, rho) by (theorem, selection kind)."""
    return {(r.theorem, r.fixture): r for r in selection_reports(f, rho)}


class TestExtremalSelections:
    def test_canonical_integral_map(self):
        g = integral_of_canonical()
        lo, hi = g.extremal_lower(), g.extremal_upper()
        u = g.nodes
        assert np.allclose(lo.values, -(u**2) / 2, atol=1e-14)
        assert np.allclose(hi.values, u**2 / 2, atol=1e-14)
        assert np.all(lo.values <= hi.values)

    def test_degenerate(self):
        g = GridMap(0, 1, [0, 1], [0, 1])
        lo, hi = g.extremal_lower(), g.extremal_upper()
        assert np.array_equal(lo.values, hi.values)

    def test_constant_map_order_two(self):
        f = GridMap.from_builtin("constant", 0, 1, 32, lo=0.0, hi=1.0)
        g = rl_setvalued(f, 2.0)
        lo, hi = g.extremal_lower(), g.extremal_upper()
        assert np.allclose(lo.values, 0.0, atol=1e-15)
        assert np.allclose(hi.values, g.nodes**2 / 2, atol=1e-13)

    def test_membership_and_inheritance(self):
        for name in ("affine", "sin_envelope", "hat"):
            f = GridMap.from_builtin(name, 0, 1, 48)
            g = rl_setvalued(f, 1.5)
            for sel in (g.extremal_lower(), g.extremal_upper()):
                assert sel.is_selection_of(g)
                assert total_variation(sel) <= total_variation(g) + 1e-12
                assert lipschitz_constant(sel) <= lipschitz_constant(g) + 1e-12


class TestRegularSelection:
    def test_canonical_witness(self):
        """The canonical map's lower selection -u integrates at rho = 1 to
        -u^2/2: V = 0.5 against (|r(a)| + V(r)) (b - a) = 1."""
        r = reports_of(GridMap.from_builtin("sym_linear", 0, 1, 64), 1.0)[("3.5", "lower")]
        assert r.passed and r.status == "checked"
        assert abs(r.measured - 0.5) < 1e-12
        assert abs(r.bound - 1.0) < 1e-15

    def test_degenerate_variation_equality(self):
        """A point-valued map's three selections are the map: each reads the
        variation of its integral."""
        f = GridMap(0, 1, [0, 1, 0], [0, 1, 0])
        reports = reports_of(f, 1.5)
        for kind in ("lower", "upper", "midpoint"):
            assert reports[("3.5", kind)].measured == total_variation(rl_setvalued(f, 1.5))

    def test_zero_witness_of_constant_map(self):
        """[0, 1] at rho = 2: the lower selection 0 reads V <= 1e-15 against
        bound 0, the upper one u^2/2 reads 0.5 against bound 0.5."""
        f = GridMap.from_builtin("constant", 0, 1, 32, lo=0.0, hi=1.0)
        reports = reports_of(f, 2.0)
        lower, upper = reports[("3.5", "lower")], reports[("3.5", "upper")]
        assert lower.passed and lower.measured <= 1e-15 and lower.bound == 0.0
        assert upper.passed and abs(upper.measured - 0.5) < 1e-13 and abs(upper.bound - 0.5) < 1e-15


class TestMidpointSelection:
    def test_symmetric_map_gives_zero(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 16)
        assert np.allclose(midpoint_selection(f).values, 0.0)

    def test_degenerate(self):
        g = GridMap(0, 1, [1, 2], [1, 2])
        assert np.array_equal(midpoint_selection(g).values, [1, 2])

    def test_near_the_float_limit(self):
        """lo + hi overflows here; the midpoint itself does not."""
        g = GridMap(0, 1, [1e308, 1e308], [1.7e308, 1.7e308])
        assert np.array_equal(midpoint_selection(g).values, [1.35e308, 1.35e308])

    def test_half_slope(self):
        u = np.linspace(0, 1, 17)
        g = GridMap(0, 1, np.zeros(17), u)
        mid = midpoint_selection(g)
        assert np.allclose(mid.values, u / 2)
        assert abs(lipschitz_constant(mid) - 0.5) < 1e-14


class TestConvexCombination:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_is_selection(self, lam):
        g = rl_setvalued(GridMap.from_builtin("sin_envelope", 0, 1, 32), 0.8)
        assert Selection(g.a, g.b, lam * g.lo + (1 - lam) * g.hi).is_selection_of(g)


class TestCertificates:
    def test_json_carries_12_significant_digits(self, tmp_path):
        out = tmp_path / "reports.json"
        assert main(["selections", "--builtin", "sym_linear", "--rho", "1.5", "--grid", "32",
                     "--output", str(out)]) == 0
        obj = next(o for o in json.loads(out.read_text()) if (o["theorem"], o["fixture"]) == ("3.5", "upper"))
        variation = total_variation(rl_setvalued(GridMap.from_builtin("sym_linear", 0, 1, 32), 1.5).extremal_upper())
        assert abs(obj["measured"] - variation) < 1e-12 * max(1, variation)
        assert obj["pass"] is True

    def test_midpoint_certificate(self):
        g = integral_of_canonical(rho=1.5)
        r = reports_of(GridMap.from_builtin("sym_linear", 0, 1, 64), 1.5)[("3.5", "midpoint")]
        assert r.passed
        assert r.measured <= total_variation(g) + 1e-12


def test_each_selection_is_measured_once_per_call(monkeypatch):
    """selection_reports measures the variation of each selection of F (its
    mass) and of G, and at rho >= 1 the Lipschitz constant of each selection
    of G: never F or G themselves."""
    f = GridMap.from_builtin("sym_linear", 0, 1, 32)
    calls = []
    for name in ("total_variation", "lipschitz_constant"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda m, _real=real, _name=name: calls.append((_name, m)) or _real(m))
    for rho, lipschitz in ((1.5, 3), (1.0, 3), (0.5, 0)):
        calls.clear()
        assert len(selection_reports(f, rho)) == 6
        assert sorted(name for name, _ in calls) == ["lipschitz_constant"] * lipschitz + ["total_variation"] * 6
        assert all(isinstance(m, Selection) for _, m in calls)


def near_symmetric_map(n, c, seed):
    """(-c x, c x + 1e-14 c noise) for x = |a random walk| and noise in [0, 1):
    the midpoint selection, and its own bounds, are about 1e-14 of the map."""
    rng = np.random.default_rng(seed)
    x = np.abs(np.cumsum(rng.standard_normal(n + 1)))
    return GridMap(0.0, 1.0, -c * x, c * x + 1e-14 * c * rng.random(n + 1))


class TestSelectionReportsProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 1024), c=st.floats(-6, 6).map(lambda e: 10.0**e), seed=st.integers(0, 2**32 - 1))
    def test_near_symmetric_random_maps_pass(self, n, c, seed):
        """Every report passes. The slacks are of F's scale: slacks of the
        midpoint's own bounds, which are about 0, fail valid maps here."""
        f = near_symmetric_map(n, c, seed)
        for rho in (*verify.DEFAULT_RHOS, 1.000001):
            failed = [r.to_json() for r in selection_reports(f, rho) if not r.passed]
            assert not failed, (n, c, seed, rho, failed)
