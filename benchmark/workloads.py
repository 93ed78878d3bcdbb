"""The benchmark's workloads: seeded inputs, CLI arguments and output oracles.

Every oracle is independent of svfrac code: closed forms evaluated with
`math`, `numpy` and `mpmath`, and plain CSV/JSON parsing.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np


def read_csv(path: str, header: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} is not {header}")
    return np.array(rows[1:], dtype=float)


def check_nodes(t: np.ndarray, a: float, b: float, n: int) -> str | None:
    if t.size != n + 1:
        return f"{t.size} rows, expected {n + 1}"
    err = float(np.abs(t - (a + (b - a) * np.arange(n + 1) / n)).max())
    if err > 1e-9 * max(1.0, abs(b)):
        return f"node coordinates off by {err:.3g}"
    return None


# -- integrate --------------------------------------------------------------

INTEGRATE_MAPS = ("constant", "sym_linear", "affine", "hat")
INTEGRATE_TOL = 1e-9  # absolute, at every node; values are O(1)


def truncated_power(u: np.ndarray, c: float, k: int, rho: float) -> np.ndarray:
    """P(c, k) = (u - c)_+^(rho + k) / Gamma(rho + k + 1): the order-rho RL
    integral from 0 of (t - c)_+^k / k!."""
    return np.maximum(u - c, 0.0) ** (rho + k) / math.gamma(rho + k + 1)


def integrate_exact(kind: str, rho: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RL integral on [0, 1] of the builtin maps with their default parameters."""
    p0 = truncated_power(u, 0.0, 0, rho)
    p1 = truncated_power(u, 0.0, 1, rho)
    if kind == "constant":  # [-1, 1]
        return -p0, p0
    if kind == "sym_linear":  # [-u, u]
        return -p1, p1
    if kind == "affine":  # [0.5 u, 1 + u]
        return 0.5 * p1, p0 + p1
    if kind == "hat":  # [0, 2 u_+ - 4 (u - 1/2)_+]
        return np.zeros_like(u), 2.0 * p1 - 4.0 * truncated_power(u, 0.5, 1, rho)
    raise ValueError(f"no closed form for {kind!r}")


# -- inclusion --------------------------------------------------------------

OSC_ALPHA = 1.5
OSC_T = 10.0
OSC_NODES = 8
# Largest oracle miss seen on the seed at N = 2048 is 1.7e-6; the product
# trapezoid error falls as N^-2, so the tolerance scales with it.
OSC_TOL_2048 = 5e-6


def mittag_leffler(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) = sum_k z^k / Gamma(a k + b), summed in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        k = 0
        while True:
            term = z**k / mpmath.gamma(a * k + b)
            total += term
            if k > abs(z) and abs(term) < mpmath.mpf(10) ** -35:
                return float(total)
            k += 1


def oscillator_basis(t: float) -> tuple[float, float, float]:
    """Solution of D^alpha u = -u + q, u(0) = u0, u'(0) = u1, as
    u0 * A + u1 * B + q * C, with A = E_a(-t^a), B = t E_{a,2}(-t^a),
    C = t^a E_{a,a+1}(-t^a)."""
    a = OSC_ALPHA
    z = -(t**a)
    return (
        mittag_leffler(a, 1.0, z),
        t * mittag_leffler(a, 2.0, z),
        t**a * mittag_leffler(a, a + 1.0, z),
    )


# -- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    suffix: str  # of the output file
    draw: Callable[[random.Random, int], dict]  # parameters of op i
    argv: Callable[[dict, str, str], list[str]]  # (params, output, input path)
    check: Callable[[dict, str], str | None]  # (params, output) -> error or None
    problem: Callable[[dict], dict] | None = None  # input JSON, written untimed
    pairs: Callable[[str], int] | None = None  # (output) -> (fixture, order) pairs


def integrate_workload(grid: int = 4096) -> Workload:
    def draw(rng: random.Random, i: int) -> dict:
        # Cycled maps and a continuous rho: no two ops share weights.
        rho = math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
        return {"builtin": INTEGRATE_MAPS[i % len(INTEGRATE_MAPS)], "rho": rho, "grid": grid}

    def argv(p: dict, out: str, _inp: str) -> list[str]:
        return ["integrate", "--builtin", p["builtin"], "--rho", repr(p["rho"]),
                "--grid", str(grid), "--output", out]

    def check(p: dict, out: str) -> str | None:
        data = read_csv(out, ["u", "lo", "hi"])
        bad = check_nodes(data[:, 0], 0.0, 1.0, grid)
        if bad:
            return bad
        lo, hi = integrate_exact(p["builtin"], p["rho"], data[:, 0])
        err = float(max(np.abs(data[:, 1] - lo).max(), np.abs(data[:, 2] - hi).max()))
        if not err <= INTEGRATE_TOL:
            return f"closed-form miss {err:.3g} > {INTEGRATE_TOL:g}"
        return None

    return Workload(f"integrate_n{grid}", grid, ".csv", draw, argv, check)


VERIFY_REPORTS = 6 * 4 * 8  # fixtures x default orders x checks


def verify_workload(grid: int = 64) -> Workload:
    def draw(rng: random.Random, i: int) -> dict:
        return {"seed": rng.randrange(2**31), "grid": grid}

    def argv(p: dict, out: str, _inp: str) -> list[str]:
        return ["verify", "--grid", str(grid), "--seed", str(p["seed"]), "--output", out]

    def check(p: dict, out: str) -> str | None:
        with open(out) as fh:
            reports = json.load(fh)
        if len(reports) != VERIFY_REPORTS:
            return f"{len(reports)} reports, expected {VERIFY_REPORTS}"
        failed = [r for r in reports if r.get("pass") is not True]
        if failed:
            return f"{len(failed)} reports not passing, first {failed[0]}"
        return None

    def pairs(out: str) -> int:
        with open(out) as fh:
            return len({(r["fixture"], r["rho"]) for r in json.load(fh)})

    return Workload(f"verify_g{grid}", grid, ".json", draw, argv, check, pairs=pairs)


def oscillator_workload(grid: int = 2048) -> Workload:
    def draw(rng: random.Random, i: int) -> dict:
        return {
            "u0": rng.uniform(0.5, 1.5),
            "u1": rng.uniform(-0.5, 0.5),
            "q_lo": -rng.uniform(0.05, 0.2),
            "q_hi": rng.uniform(0.05, 0.2),
            "grid": grid,
        }

    def problem(p: dict) -> dict:
        return {
            "alpha": OSC_ALPHA, "t0": 0.0, "T": OSC_T, "u0": p["u0"], "u1": p["u1"],
            "rhs": {"kind": "affine", "params": {"p": -1.0, "q_lo": p["q_lo"], "q_hi": p["q_hi"]}},
            "lipschitz_u": 1.0,
        }

    def argv(p: dict, out: str, inp: str) -> list[str]:
        return ["inclusion", "--input", inp, "--funnel", "--grid", str(grid), "--output", out]

    def check(p: dict, out: str) -> str | None:
        data = read_csv(out, ["t", "lo", "hi"])
        bad = check_nodes(data[:, 0], 0.0, OSC_T, grid)
        if bad:
            return bad
        if (data[:, 1] > data[:, 2]).any():
            return "funnel has lo > hi"
        tol = OSC_TOL_2048 * (2048 / grid) ** 2
        for k, (a, b, c) in enumerate(oscillator_nodes(), start=1):
            i = k * grid // OSC_NODES
            free = p["u0"] * a + p["u1"] * b
            edges = sorted((free + p["q_lo"] * c, free + p["q_hi"] * c))
            err = max(abs(data[i, 1] - edges[0]), abs(data[i, 2] - edges[1]))
            if not err <= tol:
                return f"Mittag-Leffler miss {err:.3g} > {tol:.3g} at t = {data[i, 0]}"
        return None

    return Workload(f"inclusion_osc_n{grid}", grid, ".csv", draw, argv, check, problem)


@functools.cache
def oscillator_nodes() -> tuple[tuple[float, float, float], ...]:
    """oscillator_basis at t = k T / 8, k = 1..8 (grids are multiples of 8)."""
    return tuple(oscillator_basis(k * OSC_T / OSC_NODES) for k in range(1, OSC_NODES + 1))


WORKLOADS = {
    w.name: w for w in (integrate_workload(), verify_workload(), oscillator_workload())
}
