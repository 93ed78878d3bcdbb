"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: each traced svfrac
function is replaced, at every module-level name it is looked up under, by a
wrapper that records a span (name, start, end, parent, op id). Spans are kept
in memory and written once, when the op ends. A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same op, -1 for a root
    op: int


# (module, attribute or Class.attribute, span name). A target that the
# package no longer defines is skipped: its spans count as zero calls.
TARGETS = (
    ("svfrac.cli", "main", "cli.main"),
    ("svfrac.gridmap", "GridMap.from_builtin", "gridmap.build"),
    ("svfrac.gridmap", "GridMap.from_json", "gridmap.build"),
    ("svfrac.gridmap", "GridMap.to_csv", "gridmap.csv"),
    ("svfrac.rl", "rl_weight_matrix", "rl.weights"),
    ("svfrac.rl", "quadrature_weights", "rl.weights"),
    ("svfrac.rl", "rl_setvalued", "rl.setvalued"),
    ("svfrac.rl", "rl_selection_oracle", "rl.oracle"),
    ("svfrac.regularity", "continuity_modulus", "regularity.modulus"),
    ("svfrac.regularity", "total_variation", "regularity.measure"),
    ("svfrac.regularity", "lipschitz_constant", "regularity.measure"),
    ("svfrac.selections", "certify_extremals", "selections.certify"),
    ("svfrac.selections", "certify_midpoint", "selections.certify"),
    ("svfrac.interval", "hausdorff", "interval.hausdorff"),
    ("svfrac.interval", "hausdorff_to_zero", "interval.hausdorff"),
    ("svfrac.inclusion", "CaputoProblem.from_json", "inclusion.load"),
    ("svfrac.inclusion", "solution_funnel", "inclusion.solve"),
    ("svfrac.inclusion", "solve_with_policy", "inclusion.solve"),
    ("svfrac.inclusion", "rhs_monotone_in_u", "inclusion.probe"),
    ("svfrac.inclusion", "funnel_to_csv", "inclusion.csv"),
    ("svfrac.inclusion", "Trajectory.to_csv", "inclusion.csv"),
    ("svfrac.verify", "run_verification", "verify.run"),
    ("svfrac.verify", "check_convexity", "verify.convexity"),
    ("svfrac.verify", "check_nonempty", "verify.nonempty"),
    ("svfrac.verify", "check_boundedness", "verify.boundedness"),
    ("svfrac.verify", "check_continuity", "verify.continuity"),
    ("svfrac.verify", "check_bounded_variation", "verify.bv"),
    ("svfrac.verify", "check_lipschitz", "verify.lipschitz"),
    ("svfrac.verify", "check_selections", "verify.selections"),
    ("svfrac.verify", "check_endpoint_identity", "verify.endpoint"),
)


def patch(module_name: str, attr: str, make_wrapper: Callable) -> bool:
    """Replace the function `module_name.attr` by `make_wrapper(function)`.

    A module-level function is replaced at every name under which a loaded
    svfrac module holds it, so calls through imported names are caught too.
    `attr` may be `Class.method`, including class and static methods.
    Returns False, changing nothing, when the function does not exist.
    """
    try:
        mod = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(name) if isinstance(owner, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, name, type(raw)(make_wrapper(raw.__func__)))
        elif callable(raw):
            setattr(owner, name, make_wrapper(raw))
        else:
            return False
        return True
    orig = getattr(mod, name, None)
    if not callable(orig):
        return False
    wrapper = make_wrapper(orig)
    for mod_name, m in list(sys.modules.items()):
        if m is None or not (mod_name == "svfrac" or mod_name.startswith("svfrac.")):
            continue
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapper)
    return True


class SpanRecorder:
    """In-memory spans of one op, plus named counters."""

    def __init__(self, op: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.op = op
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        names, parents, starts, ends, stack, clock = (
            self.names, self.parents, self.starts, self.ends, self._stack, self.clock
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target in TARGETS; return the targets found."""
        found = []
        hooks = self._hooks()
        for module_name, attr, span_name in TARGETS:
            hook = hooks.get(span_name)
            if patch(module_name, attr, lambda fn, n=span_name, h=hook: self.wrap(n, fn, h)):
                found.append(f"{module_name}.{attr}")
        return found

    def _hooks(self) -> dict[str, Callable]:
        def count_sweeps(traj):
            self.counters["inclusion.sweeps"] += getattr(traj, "iterations_used", 0)

        def wrap_rhs(problem):
            # The right-hand side is a per-problem callable, so it is wrapped
            # where problems are made rather than at a module-level name.
            if callable(getattr(problem, "rhs", None)):
                problem.rhs = self.wrap("inclusion.rhs", problem.rhs)

        return {"inclusion.solve": count_sweeps, "inclusion.load": wrap_rhs}

    def save(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            table=np.array(table, dtype=str),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            op=np.array(self.op),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)]),
        )


def load(path: str) -> tuple[list[Span], dict[str, float]]:
    with np.load(path) as z:
        table = [str(n) for n in z["table"]]
        op = int(z["op"])
        spans = [
            Span(table[n], s, e, p, op)
            for n, s, e, p in zip(
                z["name"].tolist(), z["start"].tolist(), z["end"].tolist(), z["parent"].tolist()
            )
        ]
        counters = dict(zip((str(k) for k in z["counter_names"]), z["counter_values"].tolist()))
    return spans, counters


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Self time and call count summed per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s, t in zip(spans, self_times(spans)):
        totals[s.name][0] += t
        totals[s.name][1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}
