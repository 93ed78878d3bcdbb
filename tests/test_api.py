"""The public names of the package: `__all__` lists exactly what it exports,
each loaded on first access."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_package_import_loads_nothing_until_a_name_is_used():
    """`import svfrac` loads no numpy; a submodule and a public name resolve
    on first access, to the same objects."""
    code = (
        "import sys, svfrac\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('svfrac.')))\n"
        "print(svfrac.RLOperator is svfrac.rl.RLOperator, 'numpy' in sys.modules)"
    )
    src = str(Path(svfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue True\n"
