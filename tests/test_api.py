"""The public names of the package: `__all__` lists exactly what it exports."""

import svfrac

REMOVED = (
    "rl_scalar",
    "chattering_hull",
    "contains",
    "convex_combo",
    "hausdorff_to_zero",
    "convex_combination_selection",
    "rl_apply",
    "rl_operator",
    "rl_selection_oracle",
    "regular_selection",
    "selection_integrals",
    "Interval",
    "extremal_selections",
    "gamma_fn",
)


def test_all_resolves_sorted_without_duplicates():
    for name in svfrac.__all__:
        assert getattr(svfrac, name) is not None, name
    assert list(svfrac.__all__) == sorted(set(svfrac.__all__))


def test_star_import():
    namespace = {}
    exec("from svfrac import *", namespace)
    assert set(svfrac.__all__) <= set(namespace)


def test_test_only_helpers_are_not_exported():
    for name in REMOVED:
        assert not hasattr(svfrac, name), name
