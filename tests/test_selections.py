import json

import numpy as np
import pytest

from svfrac import (
    GridMap,
    Selection,
    lipschitz_constant,
    midpoint_selection,
    rl_setvalued,
    total_variation,
)
from svfrac import selections
from svfrac.selections import certify_extremals, certify_midpoint


def integral_of_canonical(rho=1.0, n=64):
    return rl_setvalued(GridMap.from_builtin("sym_linear", 0, 1, n), rho)


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
        cert = certify_extremals(integral_of_canonical())[0]
        assert cert.kind == "lower-extremal"
        assert cert.membership_checked
        assert abs(cert.variation - 0.5) < 1e-12
        assert abs(cert.parent_variation - 0.5) < 1e-12

    def test_degenerate_variation_equality(self):
        g = GridMap(0, 1, [0, 1, 0], [0, 1, 0])
        cert = certify_extremals(g)[0]
        assert cert.variation == cert.parent_variation

    def test_zero_witness_of_constant_map(self):
        f = GridMap.from_builtin("constant", 0, 1, 32, lo=0.0, hi=1.0)
        cert = certify_extremals(rl_setvalued(f, 2.0))[0]
        assert np.allclose(cert.selection.values, 0.0, atol=1e-15)
        assert cert.variation <= 1e-15
        assert abs(cert.parent_variation - 0.5) < 1e-13


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
    def test_json_carries_12_significant_digits(self):
        f = GridMap.from_builtin("sym_linear", 0, 1, 32)
        g = rl_setvalued(f, 1.5)
        lo_cert, hi_cert = certify_extremals(g)
        obj = json.loads(json.dumps(hi_cert.to_json(), sort_keys=True))
        assert abs(obj["variation"] - hi_cert.variation) < 1e-12 * max(1, hi_cert.variation)
        assert obj["membership_checked"] is True
        assert obj["kind"] == "upper-extremal"

    def test_midpoint_certificate(self):
        g = integral_of_canonical(rho=1.5)
        cert = certify_midpoint(g)
        assert cert.kind == "midpoint"
        assert cert.membership_checked
        assert cert.variation <= cert.parent_variation + 1e-12


def test_parent_regularity_is_measured_once_per_call(monkeypatch):
    """certify_extremals measures the map's variation and Lipschitz constant
    once for both certificates: three of each per call, not four."""
    g = integral_of_canonical(1.5, 32)
    calls = []
    for name in ("total_variation", "lipschitz_constant"):
        real = getattr(selections, name)
        monkeypatch.setattr(selections, name, lambda f, _real=real, _name=name: calls.append((_name, f)) or _real(f))
    certs = certify_extremals(g)
    assert sorted(name for name, _ in calls) == ["lipschitz_constant"] * 3 + ["total_variation"] * 3
    assert sum(f is g for _, f in calls) == 2
    assert all(c.parent_variation == total_variation(g) and c.parent_lipschitz == lipschitz_constant(g) for c in certs)
    calls.clear()
    certify_midpoint(g)
    assert len(calls) == 4
