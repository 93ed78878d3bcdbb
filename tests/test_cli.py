import argparse
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from math import gamma as gamma_fn
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svfrac
from _reference import forward_substitution, toeplitz_matrix
from svfrac import cli, inclusion, quadrature_weights, verify
from svfrac.cli import main

SRC = Path(svfrac.__file__).resolve().parents[1]


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # a pipe's size is set on Linux alone
    F_SETPIPE_SZ = None


def run(tmp_path, *argv):
    return main(list(argv))


def cli_env() -> dict:
    """The environment of a `python -m svfrac.cli` subprocess: this tree's
    package first, and no PYTHONWARNINGS."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# The benchmark's oscillator, and a problem whose Picard iteration diverges,
# which the direct solve of a builtin field solves.
OSCILLATOR = {"alpha": 1.5, "t0": 0.0, "T": 10.0, "u0": 1.0, "u1": 0.0, "lipschitz_u": 1.0,
              "rhs": {"kind": "affine", "params": {"p": -1.0, "q_lo": -0.1, "q_hi": 0.1}}}
DIVERGING = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "affine", "params": {"p": 10.0}}}


def diverging_solution(n: int) -> np.ndarray:
    """DIVERGING's discrete solution on n segments, by forward substitution
    on the dense weight matrix: u = 1 + W(10 u)."""
    w = toeplitz_matrix(*quadrature_weights(0.0, 1.0, n, 1.5))
    return forward_substitution(w, 10.0, np.ones(n + 1), np.zeros(n + 1))


def read_trajectory(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.0, "u1": 0.0,
                "rhs": {"kind": "constant", "params": {"lo": 1.0}},
                "lipschitz_u": 0.0,
            }
        )
    )
    return str(path)


class TestIntegrate:
    def test_builtin_order_one(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(
            ["integrate", "--builtin", "sym_linear", "--rho", "1", "--grid", "4",
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,lo,hi"
        rows = [line.split(",") for line in lines[1:]]
        us = [float(r[0]) for r in rows]
        assert us == [0.0, 0.25, 0.5, 0.75, 1.0]
        for r in rows:
            u, lo, hi = map(float, r)
            assert abs(hi - u**2 / 2) < 1e-12 and abs(lo + u**2 / 2) < 1e-12

    def test_rho_zero_is_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["integrate", "--rho", "0", "--output", str(out)])
        assert code == 3
        assert not out.exists()  # no result written on parameter error
        assert "rho" in capsys.readouterr().err

    def test_half_order_final_row(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(
            ["integrate", "--builtin", "sym_linear", "--rho", "0.5", "--grid", "256",
             "--output", str(out)]
        ) == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        expected = 1.0 / gamma_fn(2.5)
        assert abs(float(last[1]) + expected) < 1e-9
        assert abs(float(last[2]) - expected) < 1e-9

    def test_malformed_map_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["integrate", "--rho", "1", "--input", str(bad)]) == 2

    def test_unknown_builtin_parameter(self, tmp_path, capsys):
        bad = tmp_path / "misspelt.json"
        bad.write_text(json.dumps(
            {"a": 0, "b": 1, "segments": 2, "kind": "hat", "params": {"heigth": 2}}
        ))
        out = tmp_path / "never.csv"
        assert main(["integrate", "--rho", "1", "--input", str(bad), "--output", str(out)]) == 2
        assert not out.exists()
        assert "malformed map spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "selections", "verify"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"segments": 2.5}, "segments must be an integer, got 2.5"),
            ({"segments": True}, "segments must be an integer, got True"),
            # JSON's false and true are no numbers, though float() reads them as 0 and 1
            ({"a": False, "b": True}, "a must be a number, got False"),
            ({"kind": "constant", "params": {"lo": False, "hi": True}}, "lo must be a number, got False"),
        ],
        ids=["2.5", "True", "boolean-domain", "boolean-param"],
    )
    def test_non_integral_segments_is_input_error(self, tmp_path, command, fields, message, capsys):
        spec = {"a": 0, "b": 1, "segments": 4, "kind": "hat", **fields}
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"fixture": spec} if command == "verify" else spec))
        out = tmp_path / "never.out"
        argv = [command, "--input", str(path), "--output", str(out)]
        assert main(argv + ([] if command == "verify" else ["--rho", "0.5"])) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(
            ["integrate", "--builtin", "constant", "--rho", "1", "--grid", "4",
             "--format", "json", "--output", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert obj["segments"] == 4


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--grid", "24", "--output", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert {r["theorem"] for r in reports} >= {"3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7/3.8"}
        assert all(r["pass"] for r in reports)

    def test_restricted_rho_skips_inheritance_theorems(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--grid", "16", "--rho", "0.5", "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        skipped = [r for r in reports if r["status"] == "skipped (requires rho>=1)"]
        assert {r["theorem"] for r in skipped} == {"3.6"}

    def test_corrupted_fixture_file(self, tmp_path):
        bad = tmp_path / "fixtures.json"
        bad.write_text('{"broken": {"a": 0}}')
        assert main(["verify", "--input", str(bad)]) == 2

    def test_empty_fixture_file(self, tmp_path, capsys):
        # an empty fixture file would otherwise pass on zero checks
        empty = tmp_path / "fixtures.json"
        empty.write_text("{}")
        out = tmp_path / "never.json"
        assert main(["verify", "--input", str(empty), "--output", str(out)]) == 2
        assert not out.exists()
        assert "has no fixtures" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, threads",
        [
            (["--grid", "16", "--rho", "1.5", "--seed", "42"], ("1", "1")),
            # verify's dot products do not depend on the BLAS thread count, at the largest grid either
            (["--grid", "65536"], ("1", "2")),
        ],
        ids=["seed-42", "blas-threads-65536"],
    )
    def test_determinism_byte_identical(self, tmp_path, args, threads):
        """Two runs, under OPENBLAS_NUM_THREADS threads[0] and threads[1], write the same bytes."""
        outs = [tmp_path / f"r{i}.json" for i in range(2)]
        for n, out in zip(threads, outs):
            proc = subprocess.run([sys.executable, "-m", "svfrac.cli", "verify", *args, "--output", str(out)],
                                  capture_output=True, env={**cli_env(), "OPENBLAS_NUM_THREADS": n}, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**63), str(2**64 + 3)])
    def test_seed_outside_the_range_is_parameter_error(self, tmp_path, seed, capsys):
        out = tmp_path / "never.json"
        assert main(["verify", "--grid", "4", "--seed", seed, "--output", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == f"parameter error: seed must be an integer in [0, 2**63), got {seed}\n"

    @pytest.mark.parametrize("seed", ["0", str(2**63 - 1)])
    def test_seeds_at_the_ends_of_the_range_pass(self, tmp_path, seed):
        out = tmp_path / "report.json"
        assert main(["verify", "--grid", "8", "--seed", seed, "--output", str(out)]) == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))


class TestVerifyReport:
    """verify writes its report one entry at a time, with the bytes of one
    json.dump of the whole list. On valid maps it exits 0: every report
    passes, and only 3.6 below order 1 is skipped."""

    FILES = {
        "neg.json": {"neg": {"a": -3, "b": 7, "segments": 37, "kind": "hat"}},
        # Magnitude 1e-310, below the normal range: roundoff there is absolute, and
        # the slack has a floor in units of 2^-1074.
        "subnormal.json": {
            "constant": {"a": 0, "b": 1, "segments": 64, "kind": "constant", "params": {"lo": -1e-310, "hi": 1e-310}},
            "sym_linear": {"a": 0, "b": 1, "segments": 64, "kind": "sym_linear", "params": {"slope": 1e-310}},
            "hat": {"a": 0, "b": 1, "segments": 64, "kind": "hat", "params": {"height": 1e-310}},
            "sin_envelope": {"a": 0, "b": 1, "segments": 64, "kind": "sin_envelope",
                             "params": {"amp": 1e-310, "off": 3e-311}},
        },
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["--grid", "64"], ["--input", "neg.json"], ["--grid", "16", "--rho", "1.5"],
            ["--grid", "64", "--seed", "5"],
            # the north star's grids, and 1000, whose shrinking points off the nodes lie beyond the first segment
            ["--grid", "1000"], ["--grid", "4096"], ["--grid", "65536"],
            # 3.6's slope carries the node values' roundoff over the step
            ["--grid", "65536", "--rho", "1.000001"],
            ["--input", "subnormal.json"],
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_streamed_text_is_the_whole_list_dump(self, tmp_path, monkeypatch, capsys, argv, to_file):
        for name, fixtures in self.FILES.items():
            (tmp_path / name).write_text(json.dumps(fixtures))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        seen = []
        real = verify.run_verification
        monkeypatch.setattr(verify, "run_verification", lambda **kw: seen.append(real(**kw)) or seen[-1])
        out = tmp_path / "report.json"
        assert main(["verify", *argv, *(["--output", str(out)] if to_file else [])]) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        assert text == json.dumps([r.to_json() for r in seen[0]], sort_keys=True, indent=1) + "\n"
        assert all(r.status == "checked" or (r.theorem == "3.6" and r.rho < 1) for r in seen[0])

    def test_output_phase_stays_small(self, tmp_path, monkeypatch):
        """Writing the 192 computed reports of grid 64 traces under 100 KB:
        each report's dict is made as the encoder reaches it, so no list of
        them all exists."""
        reports = verify.run_verification(n_segments=64)
        monkeypatch.setattr(verify, "run_verification", lambda **kw: reports)
        args = cli.build_parser().parse_args(["verify", "--output", str(tmp_path / "report.json")])
        gc.collect()
        tracemalloc.start()
        try:
            assert args.func(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_roundoff_below_zero_in_a_weight_passes(self, tmp_path):
        """At rho 200 on [0, 75], N = 1000, a weight of the node-N row is
        roundoff just below 0 (about -5e-318, from hat moments near
        underflow); 3.2's sign rule is relative to the row, so every report
        passes."""
        assert svfrac.RLOperator(0.0, 75.0, 1000, 200.0).row(1000).min() < 0
        path, out = tmp_path / "fixtures.json", tmp_path / "report.json"
        path.write_text(json.dumps({kind: {"a": 0, "b": 75, "segments": 1000, "kind": kind}
                                    for kind in ("hat", "constant")}))
        assert main(["verify", "--input", str(path), "--rho", "200", "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 16 and all(r["pass"] and r["status"] == "checked" for r in reports)


class TestInclusion:
    def test_constant_fixture(self, tmp_path, problem_file, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            ["inclusion", "--input", problem_file, "--grid", "256", "--output", str(out)]
        )
        assert code == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert abs(float(last[1]) - 1.0 / gamma_fn(2.5)) < 1e-6
        assert "iterations_used" in capsys.readouterr().err

    def test_alpha_out_of_range(self, tmp_path, problem_file):
        out = tmp_path / "never.csv"
        code = main(
            ["inclusion", "--input", problem_file, "--alpha", "2.5", "--output", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_symmetric_rhs_midpoint_single_iteration(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        path.write_text(
            json.dumps(
                {
                    "alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.0, "u1": 1.0,
                    "rhs": {"kind": "symmetric", "params": {"k": 2.0}},
                }
            )
        )
        out = tmp_path / "traj.csv"
        assert main(
            ["inclusion", "--input", str(path), "--policy", "midpoint",
             "--grid", "32", "--output", str(out)]
        ) == 0
        assert "iterations_used=1" in capsys.readouterr().err
        rows = out.read_text().strip().split("\n")[1:]
        for row in rows:
            t, u = map(float, row.split(","))
            assert abs(u - t) < 1e-12

    def test_nonconvergence_exit_code(self, tmp_path):
        """A builtin field is solved directly, so the problem whose Picard
        iteration diverges exits 0 with the solution of its discrete
        equations. Non-convergence is left to fields that are Python
        callables (test_inclusion.py)."""
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(DIVERGING))
        out = tmp_path / "u.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inclusion", "--input", str(path), "--grid", "32", "--output", str(out)]) == 0
        expected = diverging_solution(32)
        assert np.abs(read_trajectory(out) - expected).max() <= 1e-11 * np.abs(expected).max()

    @pytest.mark.parametrize("mode", [["--funnel"], ["--policy", "lower"]], ids=["funnel", "lower"])
    def test_lipschitz_u_is_ignored(self, tmp_path, mode):
        """A problem file's lipschitz_u, Picard iteration's constant, is
        ignored like any key the command line does not read: the benchmark's
        value, a negative one, a text and none give the same bytes."""
        base = {k: v for k, v in OSCILLATOR.items() if k != "lipschitz_u"}
        path = tmp_path / "oscillator.json"
        runs = []
        for extra in ({"lipschitz_u": 1.0}, {"lipschitz_u": -1}, {"lipschitz_u": "x"}, {}):
            path.write_text(json.dumps({**base, **extra}))
            proc = subprocess.run(
                [sys.executable, "-m", "svfrac.cli", "inclusion", "--input", str(path), "--grid", "64", *mode],
                capture_output=True, env=cli_env(), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, proc.stderr))
        assert runs[0][0].startswith(b"t,")
        assert runs == [runs[0]] * 4

    @pytest.mark.parametrize(
        "rhs",
        [
            {"kind": "constant", "params": {"lo": 2.0, "hi": 1.0}},
            {"kind": "affine", "params": {"p": 1.0, "q_lo": 0.5, "q_hi": 0.1}},
            {"kind": "time_identity", "params": {"width": float("nan")}},
        ],
        ids=["constant_lo_above_hi", "affine_lo_above_hi", "time_identity_nan"],
    )
    @pytest.mark.parametrize("mode", [["--policy", "lower"], ["--funnel"]], ids=["policy", "funnel"])
    def test_invalid_rhs_is_parameter_error(self, tmp_path, rhs, mode, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.0, "u1": 0.0, "rhs": rhs}
        ))
        out = tmp_path / "never.csv"
        assert main(["inclusion", "--input", str(path), "--output", str(out)] + mode) == 3
        assert not out.exists()
        assert "rhs must give finite lo <= hi" in capsys.readouterr().err

    def test_funnel_warnings_are_plain_lines(self, tmp_path):
        """The benchmark's oscillator problem, a builtin solved directly,
        warns on stderr about the failed monotonicity probe alone (the
        contraction warning is Picard iteration's), as one "warning:" line
        without a source path."""
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(OSCILLATOR))
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", "inclusion", "--input", str(path), "--funnel",
             "--grid", "64", "--output", str(tmp_path / "funnel.csv")],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert [line.split(";")[0] for line in lines] == [
            "warning: rhs endpoints are not nondecreasing in u on the probe grid",
        ]
        assert ".py:" not in proc.stderr

    def test_funnel_output(self, tmp_path, problem_file):
        out = tmp_path / "funnel.csv"
        assert main(
            ["inclusion", "--input", problem_file, "--funnel", "--grid", "64",
             "--output", str(out)]
        ) == 0
        assert out.read_text().startswith("t,lo,hi\n")


class TestBoundsAndSelections:
    def test_bounds_values(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(
            ["bounds", "--rho", "1.5", "--M", "1", "--a", "0", "--b", "1",
             "--output", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["bound_L0"] - 1.0 / gamma_fn(1.5)) < 1e-12
        assert abs(obj["bound_sup"] - 1.0 / (gamma_fn(1.5) * 1.5)) < 1e-12
        # Where the closed form's factors and value are floats, the bound is that float:
        # 4 / Gamma(3) = 2 and 2 / Gamma(2) = 2; 3.7 * 2 / Gamma(2) = 7.4 and 3.7 / Gamma(1) = 3.7.
        for argv, exact in ((["--rho", "2", "--M", "1"], {"bound_L0": 2.0, "bound_sup": 2.0}),
                            (["--rho", "1", "--M", "3.7"], {"bound_L0": 3.7, "bound_sup": 7.4})):
            assert main(["bounds", *argv, "--b", "2", "--output", str(out)]) == 0
            assert json.loads(out.read_text()) == exact

    def test_bounds_at_order_one(self, tmp_path):
        """L0 = M is valid at rho = 1; below it, bound_L0 is left out."""
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--rho", "1", "--M", "3", "--b", "2", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["bound_L0"] == pytest.approx(3.0, rel=1e-15)
        assert main(["bounds", "--rho", "0.999", "--M", "3", "--output", str(out)]) == 0
        assert "bound_L0" not in json.loads(out.read_text())

    def test_bounds_at_order_one_on_the_unit_interval_are_m(self, tmp_path):
        """At rho = 1 on [0, 1] both bounds are M (b - a)^0 / Gamma(1) = M
        exactly, not exp(log M), which misses 3.7 in the last bit."""
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--rho", "1", "--M", "3.7", "--output", str(out)]) == 0
        assert json.loads(out.read_text()) == {"bound_L0": 3.7, "bound_sup": 3.7}

    def test_bounds_invalid_parameters(self):
        assert main(["bounds", "--rho", "-1", "--M", "1"]) == 3

    @pytest.mark.parametrize("grid", ["16", "64", "1000"])
    @pytest.mark.parametrize("builtin", ["constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat"])
    def test_selection_certificates(self, tmp_path, builtin, grid):
        """Each builtin's regular selections against their bounds from F: six
        passing reports, 3.6 skipped only below order 1."""
        out = tmp_path / "certs.json"
        for rho in ("0.5", "1", "1.5", "2.7"):
            assert main(["selections", "--builtin", builtin, "--rho", rho, "--grid", grid, "--output", str(out)]) == 0
            reports = json.loads(out.read_text())
            assert [(r["fixture"], r["theorem"]) for r in reports] == [
                (kind, theorem) for kind in ("lower", "upper", "midpoint") for theorem in ("3.5", "3.6")]
            assert all(r["pass"] and (r["status"] == "checked" or r["theorem"] == "3.6" and r["rho"] < 1)
                       for r in reports)


class TestParameterRobustness:
    """Inputs that used to raise tracebacks or give wrong exit codes end with
    exit 0 or the documented parameter-error exit 3."""

    def test_large_order_integrates_to_closed_form(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["integrate", "--rho", "200", "--grid", "16", "--output", str(out)]) == 0
        for row in out.read_text().strip().split("\n")[1:]:
            u, lo, hi = map(float, row.split(","))
            # J^200 [-u, u] = [-1, 1] * u^201 / Gamma(202)
            expected = math.exp(201 * math.log(u) - math.lgamma(202)) if u > 0 else 0.0
            assert abs(hi - expected) <= 1e-12 and abs(lo + expected) <= 1e-12

    def test_huge_order_underflows_to_zero(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["integrate", "--rho", "1e6", "--grid", "16", "--output", str(out)]) == 0
        for row in out.read_text().strip().split("\n")[1:]:
            u, lo, hi = map(float, row.split(","))
            # J^rho [-u, u] = [-1, 1] * u^(rho+1) / Gamma(rho+2), below the float range
            expected = math.exp(1000001 * math.log(u) - math.lgamma(1000002)) if u > 0 else 0.0
            assert hi == expected == -lo

    @pytest.mark.parametrize("rho", ["1e-10", "1e-3"])
    def test_tiny_order_verifies(self, tmp_path, rho):
        out = tmp_path / "report.json"
        assert main(["verify", "--rho", rho, "--grid", "16", "--output", str(out)]) == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))

    def test_large_order_verifies(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--rho", "200", "--grid", "8", "--output", str(out)]) == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))

    def test_bounds_beyond_float_range(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["bounds", "--rho", "200", "--M", "1", "--b", "1e5", "--output", str(out)]) == 3
        assert not out.exists()
        assert "float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, order, domain",
        [
            (["integrate", "--rho", "2.7", "--grid", "4", "--b", "1e308"], "2.7", "[0.0, 1e+308]"),
            (["bounds", "--rho", "200", "--M", "1", "--b", "1e5"], "200", "[0.0, 100000.0]"),
        ],
        ids=["integrate", "bounds"],
    )
    def test_scale_beyond_float_range_names_order_and_domain(self, tmp_path, capsys, argv, order, domain):
        """An overflowing (b - a)^rho / Gamma scale names its order and domain,
        not only the math library's "math range error"."""
        out = tmp_path / "never.out"
        assert main(argv + ["--output", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert order in err and domain in err
        assert "math range error" not in err

    def test_integral_beyond_float_range(self, tmp_path, capsys):
        """The integral of a finite map that overflows is a parameter error
        with its reason, and raises no numpy warning on the way."""
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["integrate", "--rho", "0.5", "--grid", "4", "--b", "1e308", "--output", str(out)])
        assert code == 3
        assert not out.exists()
        assert "result beyond the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--rho", "2.55e305", "--M", "1", "--a", "0", "--b", "1.7e308"],
            ["integrate", "--rho", "2.55e305", "--grid", "4", "--b", "1.7e308"],
        ],
        ids=["bounds", "integrate"],
    )
    def test_scale_whose_power_overflows_alone(self, argv, capsys):
        """rho log(b - a) = inf with a finite lgamma(rho): exp(inf) is inf
        without an error, and the scale is still a parameter error on one
        line, with no numpy warning and no Infinity on stdout."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("parameter error: result beyond the float range "
                       "(the scale with exponent 2.55e+305 on [0.0, 1.7e+308] is not finite)\n")

    def test_integral_near_the_float_limit(self, tmp_path):
        """A finite integral of a map near the float limit: its apply
        transforms a power-of-two scaled row, whose FFT sums stay in range."""
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"a": 0, "b": 1, "segments": 4, "kind": "constant",
                                    "params": {"lo": 1e308, "hi": 1e308}}))
        out = tmp_path / "g.csv"
        assert main(["integrate", "--input", str(spec), "--rho", "1", "--grid", "4", "--output", str(out)]) == 0
        # J^1 1e308 = 1e308 u
        assert out.read_text() == ("u,lo,hi\n0,0,0\n0.25,2.5e+307,2.5e+307\n0.5,5e+307,5e+307\n"
                                   "0.75,7.5e+307,7.5e+307\n1,1e+308,1e+308\n")

    def test_inclusion_near_the_float_limit(self, tmp_path, capsys):
        """The midpoint policy on the constant field [1e308, 1.7e308]: the
        Picard sweep's apply stays in range, and the solution is the closed
        form u(t) = m t^1.5 / Gamma(2.5) with the midpoint m = 1.35e308."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"alpha": 1.5, "t0": 0, "T": 1, "u0": 0, "u1": 0,
                                       "rhs": {"kind": "constant", "params": {"lo": 1e308, "hi": 1.7e308}}}))
        out = tmp_path / "u.csv"
        assert main(["inclusion", "--input", str(problem), "--grid", "4", "--output", str(out)]) == 0
        assert capsys.readouterr().err.startswith("iterations_used=")
        for row in out.read_text().strip().split("\n")[1:]:
            t, u = map(float, row.split(","))
            assert u == pytest.approx(1.35e308 * t**1.5 / gamma_fn(2.5), rel=1e-11)

    def test_modulus_beyond_float_range(self, tmp_path, capsys):
        """A fixture whose continuity modulus overflows is a parameter error
        on one line, and raises no numpy warning on the way."""
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"big": {"a": 0, "b": 1e308, "segments": 8, "kind": "sym_linear"}}))
        out = tmp_path / "never.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--input", str(fixtures), "--output", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("parameter error: result beyond the float range (")
        assert err.count("\n") == 1

    NEAR_LIMIT = {"a": 0, "b": 1, "segments": 16, "kind": "constant", "params": {"lo": 1.7e308, "hi": 1.7e308}}
    WIDE = {"a": 0, "b": 1, "segments": 16, "kind": "affine",
            "params": {"c_lo": -1e308, "s_lo": 0, "c_hi": 0.8e308, "s_hi": 0}}

    @pytest.mark.parametrize(
        "command, spec, quantity",
        [
            (["selections", "--rho", "1.5"], NEAR_LIMIT, "the Lipschitz constant of the map on [0.0, 1.0]"),
            (["verify", "--rho", "1", "--rho", "1.5"], {"a": NEAR_LIMIT, "b": WIDE},
             "the Lipschitz constant of the map on [0.0, 1.0]"),
            # a finite map whose width hi - lo overflows
            (["verify", "--rho", "40"], {"h": {"a": 0, "b": 1, "segments": 2, "kind": "affine",
                                               "params": {"c_lo": -1.5e308, "s_lo": 0, "c_hi": 1.5e308, "s_hi": 0}}},
             "the integral of order 40.0 on [0.0, 1.0]"),
            # verify checks each order's weight scale before its modulus: the scale is named
            (["verify", "--rho", "1e6"], {"big": {"a": 0, "b": 1e308, "segments": 8, "kind": "sym_linear"}},
             "the scale with exponent 1000000.0 on [0.0, 1e+308]"),
        ],
        ids=["selections", "verify", "verify-width", "verify-scale"],
    )
    def test_lipschitz_constant_beyond_float_range(self, tmp_path, command, spec, quantity):
        """The integral of a constant near the float limit is finite, but its
        Lipschitz constant is not: exit 3 on the one line that names it, in
        a fresh interpreter, with no numpy warning and no Infinity on stdout.
        Likewise for an integral or a weight scale beyond the float range."""
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", *command, "--input", str(path)],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"parameter error: result beyond the float range ({quantity} is not finite)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--rho", "nan"],
            ["integrate", "--rho", "inf"],
            ["selections", "--rho", "nan"],
            ["verify", "--rho", "nan"],
            ["bounds", "--rho", "nan", "--M", "1"],
            ["bounds", "--rho", "1.5", "--M", "nan"],
            ["bounds", "--rho", "1.5", "--M", "1", "--b", "inf"],
            ["integrate", "--rho", "0.5", "--grid", "0"],
            ["integrate", "--rho", "0.5", "--grid", "-3"],
            ["verify", "--grid", "0"],
            # subnormal orders, which overflowed the kernel moments' division by rho
            ["integrate", "--rho", "1e-320", "--grid", "8"],
            ["verify", "--rho", "1e-308", "--grid", "8"],
        ],
    )
    def test_non_finite_or_empty_inputs(self, argv, capsys):
        assert main(argv) == 3
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--alpha", "nan"], ["--grid", "0"], ["--grid", "-3"]])
    def test_inclusion_parameters(self, tmp_path, problem_file, extra, capsys):
        out = tmp_path / "never.csv"
        assert main(["inclusion", "--input", problem_file, "--output", str(out)] + extra) == 3
        assert not out.exists()
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--tol", "1e-10"], ["--max-iter", "5"]])
    def test_picard_options_are_gone(self, tmp_path, problem_file, extra):
        """The builtin fields take no Picard iteration, so its two options are
        unknown arguments: exit 2 from argparse, with no traceback."""
        out = tmp_path / "never.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", "inclusion", "--input", problem_file, "--output", str(out), *extra],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_smallest_normal_order_integrates(self, tmp_path):
        out = tmp_path / "g.csv"
        argv = ["integrate", "--rho", "2.2250738585072014e-308", "--grid", "8", "--output", str(out)]
        assert main(argv) == 0
        for row in out.read_text().strip().split("\n")[1:]:
            u, lo, hi = map(float, row.split(","))
            # J^rho [-u, u] -> [-u, u] as rho -> 0
            assert abs(hi - u) <= 1e-12 and abs(lo + u) <= 1e-12

    @pytest.mark.parametrize("extra", [[], ["--funnel"]])
    def test_initial_line_beyond_float_range(self, tmp_path, extra, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"alpha": 1.5, "t0": 0, "T": 10, "u0": 0, "u1": 1e308,
                                       "rhs": {"kind": "symmetric", "params": {"k": 1}}}))
        out = tmp_path / "never.csv"
        argv = ["inclusion", "--input", str(problem), "--grid", "16", "--output", str(out)]
        assert main(argv + extra) == 3
        assert not out.exists()
        assert "parameter error" in capsys.readouterr().err


    def test_weight_scale_beyond_float_range(self, tmp_path, capsys):
        """An overflowing weight scale names its exponent and domain on one
        line, not the errno tuple of `**`."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"alpha": 1.5, "t0": 0, "T": 1e207, "u0": 1, "u1": 0,
                                       "rhs": {"kind": "affine", "params": {"p": -1}}}))
        assert main(["inclusion", "--input", str(problem)]) == 3
        err = capsys.readouterr().err
        assert err == ("parameter error: result beyond the float range "
                       "(the scale with exponent 1.5 on [0.0, 1e+207] is not finite)\n")
        assert "(34," not in err


class TestGridTooLarge:
    """A grid that cannot be allocated is a parameter error (exit 3) that
    names the grid, not a traceback with exit 1. The allocation is replaced
    by a MemoryError, so that the test allocates nothing."""

    @staticmethod
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    @pytest.mark.parametrize("command", ["integrate", "selections"])
    def test_integral(self, tmp_path, monkeypatch, command, capsys):
        monkeypatch.setattr(cli, "rl_setvalued", self.out_of_memory)
        out = tmp_path / "never.out"
        assert main([command, "--rho", "0.5", "--grid", "1000000000000", "--output", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == "parameter error: not enough memory for --grid 1000000000000\n"

    def test_verify(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "fixture_catalog", self.out_of_memory)
        assert main(["verify", "--grid", "1000000000000"]) == 3
        assert capsys.readouterr().err == "parameter error: not enough memory for --grid 1000000000000\n"

    def test_map_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"a": 0, "b": 1, "segments": 8, "kind": "hat"}))
        monkeypatch.setattr(cli, "rl_setvalued", self.out_of_memory)
        assert main(["integrate", "--rho", "0.5", "--input", str(path)]) == 3
        assert capsys.readouterr().err == f"parameter error: not enough memory for the grid of {path}\n"

    @pytest.mark.parametrize("mode", [[], ["--funnel"]])
    def test_inclusion(self, tmp_path, monkeypatch, problem_file, mode, capsys):
        monkeypatch.setattr(inclusion, "solve_with_policy", self.out_of_memory)
        monkeypatch.setattr(inclusion, "solution_funnel", self.out_of_memory)
        out = tmp_path / "never.csv"
        argv = ["inclusion", "--input", problem_file, "--grid", "1000000000000", "--output", str(out)]
        assert main(argv + mode) == 3
        assert not out.exists()
        assert capsys.readouterr().err == "parameter error: not enough memory for --grid 1000000000000\n"


class TestInfiniteDomain:
    """An infinite domain is rejected before any node is computed, so
    stderr holds the one error line and no numpy warning with its source."""

    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "svfrac.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
        )

    def test_infinite_b_option(self):
        proc = self.run_cli("integrate", "--rho", "0.5", "--b", "inf")
        assert proc.returncode == 3
        assert proc.stderr == "parameter error: domain requires a < b with a finite length b - a, got [0.0, inf]\n"

    def test_infinite_b_in_map_file(self, tmp_path):
        path = tmp_path / "map.json"
        # 1e400 reads as inf
        path.write_text('{"a": 0, "b": 1e400, "segments": 8, "kind": "hat"}')
        proc = self.run_cli("integrate", "--rho", "0.5", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr == "input error: malformed map spec: domain requires a < b with a finite length b - a, got [0.0, inf]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--rho", "0.5"],
            ["selections", "--rho", "1.5"],
            ["bounds", "--rho", "1.5", "--M", "1"],
        ],
    )
    def test_overflowing_length_option(self, argv):
        """Finite ends whose distance b - a overflows: one check, before any node."""
        proc = self.run_cli(*argv, "--a=-1e308", "--b=1e308")
        assert proc.returncode == 3
        assert proc.stderr == "parameter error: domain requires a < b with a finite length b - a, got [-1e+308, 1e+308]\n"

    @pytest.mark.parametrize(
        "spec",
        [
            {"a": -1e308, "b": 1e308, "segments": 8, "kind": "hat"},
            {"a": -1e308, "b": 1e308, "segments": 2, "lo": [0, 0, 0], "hi": [1, 1, 1]},
        ],
        ids=["builtin", "samples"],
    )
    def test_overflowing_length_in_fixture_file(self, tmp_path, spec):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps({"x": spec}))
        proc = self.run_cli("verify", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr == (
            "input error: malformed fixture file: domain requires a < b with a finite length b - a, got [-1e+308, 1e+308]\n"
        )
        assert "Warning" not in proc.stderr and ".py:" not in proc.stderr


class TestRepeatedNodes:
    """A grid whose float nodes repeat, as a step below the float spacing
    at a or b makes them, is rejected before any value is computed on it:
    one stderr line, no numpy warning; exit 2 from a file, 3 from options."""

    TINY = {"a": 0, "b": 5e-324, "segments": 2, "lo": [0, 1, 0], "hi": [0, 1, 0]}
    DUP = {"dup": {"a": 1, "b": 1.0000000000000004, "segments": 8, "kind": "sym_linear"}}

    @pytest.mark.parametrize(
        "argv, spec, rc, line",
        [
            (["selections", "--rho", "1.5"], TINY, 2,
             "input error: malformed map spec: the nodes of 2 segments of [0.0, 5e-324] repeat"),
            (["integrate", "--rho", "1.5"], TINY, 2,
             "input error: malformed map spec: the nodes of 2 segments of [0.0, 5e-324] repeat"),
            (["integrate", "--builtin", "hat", "--a", "0", "--b", "5e-324", "--grid", "2", "--rho", "1.5"], None, 3,
             "parameter error: the nodes of 2 segments of [0.0, 5e-324] repeat"),
            (["verify"], DUP, 2,
             "input error: malformed fixture file: the nodes of 8 segments of [1.0, 1.0000000000000004] repeat"),
        ],
        ids=["selections", "integrate", "integrate-builtin", "verify"],
    )
    def test_one_error_line(self, tmp_path, argv, spec, rc, line):
        if spec is not None:
            path = tmp_path / "map.json"
            path.write_text(json.dumps(spec))
            argv = [*argv, "--input", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", *argv], capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == rc
        assert proc.stdout == ""
        assert proc.stderr == line + ": the step is below the float spacing\n"


class TestUnreadableJson:
    """A file that json cannot read, for any reason, is an input error; so
    is one that holds JSON's true or false where a number is read."""

    # A file of each command's kind with a boolean where a number is read, and its error line.
    BOOLEAN = {
        "integrate": ({"a": 0, "b": 1, "segments": 4, "kind": "sin_envelope", "params": {"freq": True}},
                      "input error: malformed map spec: freq must be a number, got True\n"),
        "verify": ({"f": {"a": 0, "b": True, "segments": 4, "kind": "hat"}},
                   "input error: malformed fixture file: b must be a number, got True\n"),
        "inclusion": ({"alpha": 1.5, "t0": False, "T": 1, "u0": True, "u1": 0, "rhs": {"kind": "affine"}},
                      "input error: malformed problem spec: t0 must be a number, got False\n"),
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("unreadable")
        (path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)  # RecursionError
        (path / "latin1.json").write_bytes(b'{"a": "\xff"}')  # UnicodeDecodeError
        (path / "digits.json").write_text('{"a": ' + "1" * 5000 + "}")  # beyond int's digit limit
        for command, (obj, _) in self.BOOLEAN.items():
            (path / f"boolean-{command}.json").write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("name", ["deep.json", "latin1.json", "digits.json", "boolean"])
    @pytest.mark.parametrize("command", [["integrate", "--rho", "0.5"], ["verify"], ["inclusion"]])
    def test_input_error(self, files, name, command, capsys):
        boolean = name == "boolean"
        path = files / (f"boolean-{command[0]}.json" if boolean else name)
        assert main(command + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(self.BOOLEAN[command[0]][1] if boolean else f"input error: cannot read JSON from {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_deep_array_in_a_fresh_interpreter(self, files):
        path = files / "deep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", "verify", "--input", str(path)],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"input error: cannot read JSON from {path}: ")
        assert proc.stderr.count("\n") == 1


# The svfrac modules each command loads when svfrac.cli runs as the program.
COMMON_MODULES = {"svfrac", "svfrac.gridmap", "svfrac.rl"}
COMMAND_MODULES = {
    "verify": COMMON_MODULES | {"svfrac.regularity", "svfrac.verify"},
    "integrate": COMMON_MODULES,
    "selections": COMMON_MODULES | {"svfrac.regularity", "svfrac.verify"},
    "bounds": COMMON_MODULES,
    "inclusion": COMMON_MODULES | {"svfrac.inclusion"},
}


def imported_modules(stderr: str) -> set[str]:
    """The modules named in the `-X importtime` lines of stderr."""
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


class TestNoNumpyRandom:
    """No command imports numpy.random: 3.4's draws are svfrac's own. Run
    as the program, each command loads only its own svfrac modules."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--grid", "16"],
            ["integrate", "--rho", "0.5", "--grid", "64"],
            ["selections", "--rho", "1.5", "--grid", "16"],
            ["bounds", "--rho", "1.5", "--M", "1"],
            ["inclusion", "--funnel", "--grid", "64"],
        ],
    )
    def test_imports(self, tmp_path, argv):
        if argv[0] == "inclusion":
            path = tmp_path / "oscillator.json"
            path.write_text(json.dumps(OSCILLATOR))
            argv = argv + ["--input", str(path)]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "svfrac.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = imported_modules(proc.stderr)
        assert {m for m in imported if m.split(".")[0] == "svfrac"} == COMMAND_MODULES[argv[0]]
        assert "numpy" in imported
        assert not {m for m in imported if m == "numpy.random" or m.startswith("numpy.random.")}

    def test_library_main_imports_nothing(self, tmp_path):
        """Imported, svfrac.cli has loaded every command's modules: main()
        adds no entry to sys.modules on any command, once argparse has
        loaded what it loads on a first parse."""
        problem = tmp_path / "oscillator.json"
        problem.write_text(json.dumps(OSCILLATOR))
        out = str(tmp_path / "out")
        commands = [
            ["verify", "--grid", "4"],
            ["integrate", "--rho", "0.5", "--grid", "8"],
            ["selections", "--rho", "1.5", "--grid", "8"],
            ["bounds", "--rho", "1.5", "--M", "1"],
            ["inclusion", "--funnel", "--grid", "8", "--input", str(problem)],
        ]
        code = ("import json, sys, svfrac.cli\n"
                "svfrac.cli.build_parser().parse_args(['bounds', '--rho', '1', '--M', '1'])\n"
                "before = set(sys.modules)\n"
                f"for argv in {commands!r}:\n"
                f"    assert svfrac.cli.main(argv + ['--output', {out!r}]) == 0\n"
                "    print(json.dumps(sorted(set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"] * len(commands)


class TestStartup:
    """The command line starts numpy without OpenBLAS's worker thread,
    unless the caller sets OPENBLAS_NUM_THREADS, and without a cyclic
    collection: what its imports build is frozen, and the collector is left
    as the caller had it."""

    def python(self, code, **env):
        base = {k: v for k, v in cli_env().items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**base, **env}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_cli_import_leaves_one_thread(self):
        code = ("import svfrac.cli\n"
                "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')))")
        assert self.python(code) == "1\n"

    def test_callers_thread_setting_is_kept(self):
        code = "import os, svfrac.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.python(code, OPENBLAS_NUM_THREADS="2") == "2\n"

    @pytest.mark.parametrize("before, enabled", [("", True), ("gc.disable()", False)],
                             ids=["collector-on", "collector-off"])
    def test_cli_import_freezes_its_objects(self, before, enabled):
        """The collector is on after the import if and only if it was on before."""
        code = f"import gc\n{before}\nimport svfrac.cli\nprint(gc.isenabled(), gc.get_freeze_count() > 0)"
        assert self.python(code) == f"{enabled} True\n"

    def test_no_collection_while_numpy_and_svfrac_load(self):
        code = ("import gc, sys\n"
                "starts = []\n"
                "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append('numpy' in sys.modules))\n"
                "import svfrac.cli\n"
                "print(sum(starts))")
        assert self.python(code) == "0\n"

    def test_callers_young_garbage_is_freed(self):
        """Cyclic garbage the caller left uncollected is not frozen with the
        import's objects. The standard modules the command line's module
        uses are loaded first, so that no collection of their own runs
        before its import."""
        code = ("import argparse, contextlib, gc, itertools, json, os, sys, typing, warnings, weakref\n"
                "class Node: pass\n"
                "gc.collect()\n"
                "node = Node()\n"
                "node.self = node\n"
                "ref = weakref.ref(node)\n"
                "del node\n"
                "import svfrac.cli\n"
                "gc.collect()\n"
                "print(ref() is None)")
        assert self.python(code) == "True\n"

    def test_failed_import_turns_the_collector_back_on(self):
        code = ("import gc, sys\n"
                "sys.modules['svfrac.verify'] = None\n"
                "try:\n"
                "    import svfrac.cli\n"
                "except ImportError:\n"
                "    print(gc.isenabled())")
        assert self.python(code) == "True\n"


class TestParser:
    def test_parsers_are_freed_before_the_command_runs(self, monkeypatch):
        """Each argparse action points back at its parser, so the
        subcommands' parsers form a reference cycle that outlives
        parse_args until the cyclic collector runs: main collects it
        before the command runs."""
        refs, dead = [], []
        real = argparse.ArgumentParser.__init__

        def init(self, *args, **kwargs):
            real(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: dead.append([r() is None for r in refs]) or 0)
        gc.collect()  # no collection of its own while the parsers are built
        assert main(["bounds", "--rho", "1.5", "--M", "1"]) == 0
        assert len(refs) == 6  # svfrac and its five subcommands
        assert dead == [[True] * 6] and all(r() is None for r in refs)

    @staticmethod
    def program(*argv):
        """`python -m svfrac.cli argv`, whose parser is built before any command's own module loads."""
        return subprocess.run([sys.executable, "-m", "svfrac.cli", *argv], capture_output=True, text=True,
                              env=cli_env(), timeout=120)

    def test_unknown_policy_is_a_usage_error(self):
        proc = self.program("inclusion", "--policy", "sideways")
        assert proc.returncode == 2 and proc.stdout == ""
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("svfrac inclusion: error: argument --policy: invalid choice: 'sideways' (choose from ")
        assert all(policy in last for policy in ("lower", "upper", "midpoint"))

    def test_verify_seed_defaults_to_42(self):
        default, seeded = self.program("verify", "--grid", "16"), self.program("verify", "--grid", "16", "--seed", "42")
        assert default.returncode == seeded.returncode == 0
        assert default.stdout == seeded.stdout and default.stdout


class TestZeroMapContinuity:
    """An identically zero continuity modulus is not a failure to shrink."""

    def test_verify_single_segment_grid(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--grid", "1", "--output", str(out)]) == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))

    def test_zero_constant_fixture_file(self, tmp_path):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(
            json.dumps(
                {"zero": {"a": 0, "b": 1, "segments": 16, "kind": "constant",
                          "params": {"lo": 0.0, "hi": 0.0}}}
            )
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--input", str(fixtures), "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert {r["rho"] for r in reports if r["theorem"] == "3.4"} == {0.5, 1.0, 1.5, 2.7}
        assert all(r["pass"] for r in reports)


class TestFarFromZero:
    """A valid map far from 0, where 3.4's shrinking points a + (b - a) 2^-m
    round to a: the bound over the empty interval [a, a] is 0."""

    def test_verify_fixture_file_passes(self, tmp_path):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(
            json.dumps({"far": {"a": 1e15, "b": 1000000000000016.0, "segments": 16, "kind": "constant"}})
        )
        proc = subprocess.run(
            [sys.executable, "-m", "svfrac.cli", "verify", "--input", str(fixtures)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        reports = json.loads(proc.stdout)
        assert len(reports) == 32 and all(r["pass"] for r in reports)


class TestScaledMaps:
    """Valid maps of magnitude 1e9 on [0, 100]: every check's slack is
    relative to the integral's scale, so every report passes."""

    def test_verify_fixture_file_passes(self, tmp_path):
        spec = {"a": 0, "b": 100, "segments": 64}
        fixtures = {
            "constant": {**spec, "kind": "constant", "params": {"lo": -1e9, "hi": 1e9}},
            "sym_linear": {**spec, "kind": "sym_linear", "params": {"slope": 1e9}},
            "hat": {**spec, "kind": "hat", "params": {"height": 1e9}},
            "sin_envelope": {**spec, "kind": "sin_envelope", "params": {"amp": 1e9, "off": 3e8}},
        }
        path, out = tmp_path / "scaled.json", tmp_path / "report.json"
        path.write_text(json.dumps(fixtures))
        assert main(["verify", "--input", str(path), "--output", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 128 and all(r["pass"] for r in reports)


class TestConsoleScript:
    """The packaged `svfrac` script resolves to an entry point that exits 0."""

    @pytest.mark.parametrize(
        "argv", [["verify", "--grid", "16"], ["integrate", "--rho", "0.5", "--grid", "64", "--output", "g.csv"]]
    )
    def test_entry_point_exits_zero(self, tmp_path, argv):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["svfrac"]
        assert target == "svfrac:console_script"
        module, _, name = target.partition(":")
        # The entry point ends the process it runs in, so it runs in a child.
        code = f"import sys, {module}; sys.argv = {['svfrac', *argv]!r}; {module}.{name}()"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_entry_point_runs_the_module_as_the_program(self, tmp_path):
        """The script loads the svfrac modules that `python -m svfrac.cli`
        loads for the command, not every command's."""
        argv = ["svfrac", "integrate", "--rho", "0.5", "--grid", "64"]
        code = f"import sys, svfrac; sys.argv = {argv!r}; svfrac.console_script()"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert {m for m in imported_modules(proc.stderr) if m.split(".")[0] == "svfrac"} == COMMAND_MODULES["integrate"]

    def test_failed_final_flush_is_input_error(self, tmp_path, monkeypatch, capsys):
        class UnflushableStdout(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        def exit_code(code):
            raise SystemExit(code)

        monkeypatch.setattr(sys, "stdout", UnflushableStdout())
        monkeypatch.setattr(os, "_exit", exit_code)
        monkeypatch.setattr(sys, "argv", ["svfrac", "bounds", "--rho", "1.5", "--M", "1",
                                          "--output", str(tmp_path / "b.json")])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        assert exc.value.code == 2
        assert capsys.readouterr().err == "input error: cannot write stdout: Broken pipe\n"


class TestSeedOnlyOnVerify:
    @pytest.mark.parametrize(
        "argv", [["integrate", "--rho", "1"], ["selections", "--rho", "1"], ["inclusion"]]
    )
    def test_seed_is_rejected_where_it_has_no_effect(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestOutput:
    """A result goes to --output or to stdout with the same bytes, written in
    blocks. An output that cannot be opened or written, a closed pipe
    included, is one "input error" line on stderr and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--builtin", "sin_envelope", "--rho", "0.5", "--grid", "1100"],
            ["integrate", "--builtin", "hat", "--rho", "1.5", "--grid", "64", "--format", "json"],
            ["verify", "--grid", "16"],
            ["inclusion", "--funnel", "--grid", "1100"],
            # a hat whose a + b overflows still has a finite midpoint
            ["integrate", "--builtin", "hat", "--a", "1e308", "--b", "1.7e308", "--rho", "0.5", "--grid", "4"],
        ],
    )
    def test_output_file_matches_stdout(self, tmp_path, problem_file, argv, capsys):
        if argv[0] == "inclusion":
            argv = argv + ["--input", problem_file]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "result"
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--rho", "0.5", "--grid", "8"],
            ["integrate", "--rho", "0.5", "--grid", "8", "--format", "json"],
            ["verify", "--grid", "8"],
            ["selections", "--rho", "0.5", "--grid", "8"],
            ["bounds", "--rho", "0.5", "--M", "1"],
            ["inclusion", "--grid", "8"],
            ["inclusion", "--grid", "8", "--funnel"],
        ],
    )
    @pytest.mark.parametrize("target", ["missing/x.out", ""], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_input_error(self, tmp_path, problem_file, argv, target, capsys):
        if argv[0] == "inclusion":
            argv = argv + ["--input", problem_file]
        path = tmp_path / target
        assert main(argv + ["--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot write {path}: "), err
        assert err.count("\n") == 1

    def test_json_is_written_in_blocks_of_encoder_chunks(self, monkeypatch):
        """JSON goes out as json.dump's bytes, JSON_BLOCK encoder chunks per
        write, then the final newline."""
        obj = {f"k{i}": [i, i / 3, None, {"x": -i}] for i in range(300)}
        writes = []

        class Stream(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stream())
        cli._write_json(None, obj, indent=1)
        assert "".join(writes) == json.dumps(obj, sort_keys=True, indent=1) + "\n"
        chunks = len(list(json.JSONEncoder(sort_keys=True, indent=1).iterencode(obj)))
        assert chunks > 10 * cli.JSON_BLOCK
        assert len(writes) == math.ceil(chunks / cli.JSON_BLOCK) + 1

    @pytest.mark.parametrize(
        "error", [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")]
    )
    def test_failed_stdout_is_input_error(self, monkeypatch, capsys, error):
        class FailingStdout(io.StringIO):
            def write(self, text):
                raise error

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert main(["integrate", "--rho", "0.5", "--grid", "8"]) == 2
        assert capsys.readouterr().err == f"input error: cannot write stdout: {error.strerror}\n"

    @NEEDS_DEV_FULL
    def test_full_stdout_ends_without_traceback(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "svfrac.cli", "integrate", "--rho", "0.5", "--grid", "8"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr == "input error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(F_SETPIPE_SZ is None, reason="needs a pipe of a set size")
    @pytest.mark.parametrize(
        "argv, first, err",
        [
            (["integrate", "--rho", "0.5", "--grid", "65536"], b"u,lo,hi\n", b"input error: cannot write stdout: Broken pipe\n"),
            (["integrate", "--rho", "0.5", "--grid", "65536"], b"u,lo,hi\n", None),
            (["verify", "--grid", "1024"], b'[\n {\n  "bo', b"input error: cannot write stdout: Broken pipe\n"),
            (["verify", "--grid", "1024"], b'[\n {\n  "bo', None),
        ],
        ids=["integrate", "integrate-2>&1", "verify", "verify-2>&1"],
    )
    def test_closed_pipe_ends_without_traceback(self, argv, first, err):
        """stdout is a 4 KB pipe, far less than the 3.6 MB of CSV or the 35 KB
        of reports, so the writer is still writing when the reader goes away
        after the first bytes: exit 2 on the one input error line, which is
        dropped where stderr is that pipe too (err None, as `2>&1 | head`)."""
        read_end, write_end = os.pipe()
        fcntl(write_end, F_SETPIPE_SZ, 4096)
        with subprocess.Popen(
            [sys.executable, "-m", "svfrac.cli", *argv],
            stdout=write_end, stderr=subprocess.STDOUT if err is None else subprocess.PIPE, env=cli_env(),
        ) as proc:
            os.close(write_end)
            with open(read_end, "rb", buffering=0) as reader:
                assert reader.read(len(first)) == first
            if err is not None:
                assert proc.stderr.read() == err
        assert proc.returncode == 2


class TestProcessExit:
    """`python -m svfrac.cli` ends its process without the interpreter's
    teardown: every byte of the result still reaches a pipe, and the exit
    codes and stderr are those of main()."""

    def run_cli(self, *argv, streams=""):
        """`python -m svfrac.cli argv` under the shell redirections `streams`,
        stdout and stderr read from pipes where those leave them."""
        # Without PYTHONUNBUFFERED, stdout on a pipe is block-buffered, so a
        # byte left in the buffer at the end would be lost.
        env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
        command = [sys.executable, "-m", "svfrac.cli", *argv]
        if streams:
            command = ["sh", "-c", f'exec "$@" {streams}', "sh", *command]
        return subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)

    @pytest.mark.parametrize(
        "argv",
        [
            # 3.6 MB of CSV, more than a pipe buffer holds
            ["integrate", "--builtin", "sin_envelope", "--rho", "0.5", "--grid", "65536"],
            ["verify", "--grid", "16"],
            ["inclusion", "--funnel", "--grid", "2048"],
            ["integrate", "--rho", "0.5", "--grid", "65536"],
        ],
    )
    def test_piped_stdout_matches_output_file(self, tmp_path, argv):
        if argv[0] == "inclusion":
            path = tmp_path / "oscillator.json"
            path.write_text(json.dumps(OSCILLATOR))
            argv = argv + ["--input", str(path)]
        piped = self.run_cli(*argv)
        assert piped.returncode == 0, piped.stderr
        out = tmp_path / "result"
        written = self.run_cli(*argv, "--output", str(out))
        assert written.returncode == 0, written.stderr
        assert written.stdout == b""
        assert piped.stdout == out.read_bytes()
        assert piped.stderr == written.stderr

    @pytest.mark.parametrize(
        "argv, streams, expected, err",
        [
            (["integrate", "--rho", "0.5", "--output", "{tmp}/missing/x.csv"], "", 2, "input error: cannot write "),
            (["integrate", "--rho", "0.5", "--b", "inf"], "", 3, "parameter error: domain requires "),
            # Picard diverges here; the direct solve of the builtin does not.
            (["inclusion", "--input", "{tmp}/diverge.json", "--grid", "32", "--output", "{tmp}/u.csv"], "", 0,
             "iterations_used=1 "),
            # The oscillator over a horizon where Picard diverges: the probe's warning is the one line.
            (["inclusion", "--input", "{tmp}/oscillator-40.json", "--funnel", "--grid", "65536", "--output",
              "{tmp}/u.csv"], "", 0, "warning: rhs endpoints are not nondecreasing in u on the probe grid;"),
            # A stream that cannot be written: a stderr line is dropped, the exit code is the run's own.
            pytest.param(["verify", "--grid", "8"], ">/dev/full 2>&1", 2, "", marks=NEEDS_DEV_FULL),
            (["integrate", "--rho", "0.5", "--grid", "8", "--b", "inf"], "2>&-", 3, ""),
            (["integrate", "--rho", "0.5", "--grid", "8"], ">&-", 2, "input error: cannot write stdout: Bad file descriptor"),
            (["bounds", "--rho", "1", "--M", "1"], ">&-", 2, "input error: cannot write stdout: Bad file descriptor"),
            pytest.param(["inclusion", "--input", "{tmp}/oscillator.json", "--grid", "8", "--output", "{tmp}/u.csv"],
                         "2>/dev/full", 0, "", marks=NEEDS_DEV_FULL),
        ],
        ids=["missing-dir", "infinite-domain", "diverging", "oscillator-40", "full-stdout-and-stderr",
             "closed-stderr", "closed-stdout", "closed-stdout-bounds", "full-stderr"],
    )
    def test_exit_codes_without_traceback(self, tmp_path, argv, streams, expected, err):
        """The exit code, and stderr (its one line, or nothing where it is
        redirected) starting with `err`."""
        (tmp_path / "diverge.json").write_text(json.dumps(DIVERGING))
        (tmp_path / "oscillator.json").write_text(json.dumps(OSCILLATOR))
        (tmp_path / "oscillator-40.json").write_text(json.dumps({**OSCILLATOR, "T": 40.0}))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = self.run_cli(*argv, streams=streams)
        assert proc.returncode == expected
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(err.encode()) and proc.stderr.count(b"\n") == (1 if err else 0), proc.stderr
        if str(tmp_path / "diverge.json") in argv:
            expected_u = diverging_solution(32)
            got = read_trajectory(tmp_path / "u.csv")
            assert np.abs(got - expected_u).max() <= 1e-11 * np.abs(expected_u).max()


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_property")
    # rhs independent of u: every grid and order solves
    (path / "problem.json").write_text(json.dumps(
        {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.5, "u1": 0.0,
         "rhs": {"kind": "symmetric", "params": {"k": 1.0}}}
    ))
    return path


FLOAT_VALUES = st.one_of(
    st.sampled_from(["0.5", "1", "1.5", "2.7", "0", "-0.5", "-1", "nan", "-nan", "inf", "-inf",
                     "1e308", "-1e308", "1e-320", "200", "1e6"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# Grids stay <= 64; a too-large or non-integer grid is given only as text
# that argparse rejects.
GRID_VALUES = st.one_of(
    st.integers(-3, 64).map(str), st.sampled_from(["nan", "inf", "-inf", "1e9", "2.5"])
)


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(["integrate", "verify", "selections", "bounds", "inclusion"]))
    argv = [cmd]

    def opt(name, values, required=False):
        if required or draw(st.booleans()):
            argv.append(f"{name}={draw(values)}")

    n_rho = draw(st.integers(0, 2)) if cmd == "verify" else int(cmd != "inclusion")
    for _ in range(n_rho):
        opt("--rho", FLOAT_VALUES, required=True)
    if cmd == "bounds":
        opt("--M", FLOAT_VALUES, required=True)
    else:
        opt("--grid", GRID_VALUES)
    if cmd == "inclusion":
        opt("--alpha", FLOAT_VALUES)
        if draw(st.booleans()):
            argv.append("--funnel")
    return argv


class TestExitCodeProperty:
    """Every argument list ends with a documented exit code, never a traceback."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(argv=cli_argv())
    @example(argv=["integrate", "--rho=1e308"])  # lgamma overflows: exit 3
    @example(argv=["bounds", "--rho=1e308", "--M=1"])
    @example(argv=["selections", "--rho=-inf", "--grid=64"])
    @example(argv=["verify", "--rho=1e-10", "--grid=8"])  # the modulus rises as v -> a
    def test_documented_exit_codes(self, property_dir, argv):
        if argv[0] == "inclusion":
            argv += ["--input", str(property_dir / "problem.json")]
        argv += ["--output", str(property_dir / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
        # Exit 1 is a FAIL. selections checks a valid builtin map here, where a FAIL would be false.
        allowed = {0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3}
        assert code in allowed, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()


NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, -1.0, 1000.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
)
# Mostly numbers, so that the solver also runs on valid but extreme problems.
PROBLEM_VALUES = st.one_of(NUMBERS, NUMBERS, NUMBERS, JUNK)
PARAM_NAMES = ("lo", "hi", "k", "width", "p", "q_lo", "q_hi", "bogus")


@st.composite
def problem_json(draw):
    """Inclusion problem objects: valid ones, extreme values, missing keys,
    unknown or ill-typed rhs kinds and params, and non-object rhs or files."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    obj = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 0.5, "u1": 0.0, "lipschitz_u": 0.0}
    for key in sorted(obj):
        if draw(st.integers(0, 3)) == 0:
            obj[key] = draw(PROBLEM_VALUES)
    kind = draw(st.sampled_from(["constant", "symmetric", "time_identity", "affine", "bogus", 3]))
    params = draw(st.dictionaries(st.sampled_from(PARAM_NAMES), PROBLEM_VALUES, max_size=3))
    obj["rhs"] = draw(st.sampled_from([
        {"kind": kind, "params": params}, {"kind": kind}, {"params": params},
        {"kind": kind, "params": [1, 2]}, [1, 2], "affine",
    ]))
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2)):
        obj.pop(key, None)
    return obj


@st.composite
def inclusion_argv(draw):
    argv = ["inclusion", f"--grid={draw(st.sampled_from([1, 8, 64]))}"]
    argv.append(f"--policy={draw(st.sampled_from(['lower', 'upper', 'midpoint']))}")
    if draw(st.booleans()):
        argv.append("--funnel")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--alpha={draw(NUMBERS)!r}")
    return argv


class TestProblemFileProperty:
    """Every inclusion problem file ends with a documented exit code, never a
    traceback: 2 for a malformed file, 3 for an invalid value, a grid too
    coarse for p or a solution beyond the float range."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(obj=problem_json(), argv=inclusion_argv())
    @example(  # an ill-typed rhs parameter: exit 2
        obj={"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "symmetric", "params": {"bogus": 1}}},
        argv=["inclusion", "--grid=64"],
    )
    @example(  # a non-object rhs: exit 2
        obj={"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0, "rhs": [1, 2]},
        argv=["inclusion", "--grid=64"],
    )
    @example(  # a grid too coarse for p: exit 3
        obj={"alpha": 1.5, "t0": 0.0, "T": 1000.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "affine", "params": {"p": 1.0}}},
        argv=["inclusion", "--grid=64"],
    )
    @example(
        obj={"alpha": 1.5, "t0": 0.0, "T": 1000.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "affine", "params": {"p": 1.0}}},
        argv=["inclusion", "--grid=64", "--funnel"],
    )
    def test_documented_exit_codes(self, property_dir, obj, argv):
        path = property_dir / "problem_property.json"
        path.write_text(json.dumps(obj))
        argv = argv + ["--input", str(path), "--output", str(property_dir / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the monotonicity probe's warning
            code = main(argv)
        assert code in {0, 2, 3}, (obj, argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    def test_unknown_rhs_parameter_names_the_kind(self, tmp_path, capsys):
        """An input error that names the rhs kind and the parameters it does
        not take, as for a builtin map, not a keyword of a constructor."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0,
                                    "rhs": {"kind": "affine", "params": {"q": 1.0}}}))
        assert main(["inclusion", "--input", str(path), "--grid", "64"]) == 2
        assert capsys.readouterr().err == (
            "input error: malformed problem spec: rhs kind 'affine' got unknown parameters ['q']\n")

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_is_a_parameter_error(self, tmp_path, capsys, p):
        """A parameter error that names p, as for a non-finite t0 or T, not a
        resolvent beyond the float range; AffineField checks it."""
        with pytest.raises(ValueError, match=f"^p must be finite, got {p}$"):
            inclusion.AffineField(p)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0,
                                    "rhs": {"kind": "affine", "params": {"p": p}}}))
        for mode in ([], ["--funnel"]):
            assert main(["inclusion", "--input", str(path), "--grid", "64"] + mode) == 3
            assert capsys.readouterr().err == f"parameter error: p must be finite, got {p}\n"

    def test_malformed_file_and_overflowing_iterates(self, tmp_path, capsys):
        """The explicit examples above, with their exact exit codes and messages."""
        path = tmp_path / "p.json"
        spec = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0}
        for rhs in ({"kind": "symmetric", "params": {"bogus": 1}}, [1, 2],
                    {"kind": "symmetric", "params": {"k": "x"}}, {"kind": "affine", "params": {"q_hi": True}}):
            path.write_text(json.dumps({**spec, "rhs": rhs}))
            assert main(["inclusion", "--input", str(path), "--grid", "64"]) == 2
            assert "malformed problem spec" in capsys.readouterr().err
        # text that is no number is malformed too, as in a map file
        path.write_text(json.dumps({**spec, "T": "ab", "rhs": {"kind": "symmetric"}}))
        assert main(["inclusion", "--input", str(path), "--grid", "64"]) == 2
        assert "malformed problem spec" in capsys.readouterr().err
        # Grid 64 is too coarse for p = 1 on [0, 1000] (p b_0 = 18.6), and on
        # grid 1024 the solution, like the inclusion's (about e^1000), is
        # beyond the float range: exit 3 on one line either way, no warning.
        path.write_text(json.dumps({**spec, "T": 1000.0, "rhs": {"kind": "affine", "params": {"p": 1.0}}}))
        for grid, message in (("64", "parameter error: the grid is too coarse for p = 1.0: "),
                              ("1024", "parameter error: result beyond the float range (")):
            for mode in ([], ["--funnel"]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(["inclusion", "--input", str(path), "--grid", grid] + mode)
                assert code == 3
                err = capsys.readouterr().err
                assert err.startswith(message) and err.count("\n") == 1, err
