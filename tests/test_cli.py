import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svfrac
from svfrac import cli, gamma_fn, verify
from svfrac.cli import main

SRC = Path(svfrac.__file__).resolve().parents[1]


def run(tmp_path, *argv):
    return main(list(argv))


def cli_env() -> dict:
    """The environment of a `python -m svfrac.cli` subprocess: this tree's
    package first, and no PYTHONWARNINGS."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# The benchmark's oscillator, and a problem whose Picard iteration diverges.
OSCILLATOR = {"alpha": 1.5, "t0": 0.0, "T": 10.0, "u0": 1.0, "u1": 0.0, "lipschitz_u": 1.0,
              "rhs": {"kind": "affine", "params": {"p": -1.0, "q_lo": -0.1, "q_hi": 0.1}}}
DIVERGING = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0, "lipschitz_u": 10.0,
             "rhs": {"kind": "affine", "params": {"p": 10.0}}}


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
    @pytest.mark.parametrize("segments", [2.5, True])
    def test_non_integral_segments_is_input_error(self, tmp_path, command, segments, capsys):
        spec = {"a": 0, "b": 1, "segments": segments, "kind": "hat"}
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"fixture": spec} if command == "verify" else spec))
        out = tmp_path / "never.out"
        argv = [command, "--input", str(path), "--output", str(out)]
        assert main(argv + ([] if command == "verify" else ["--rho", "0.5"])) == 2
        assert not out.exists()
        assert "segments must be an integer" in capsys.readouterr().err

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
        skipped = [r for r in reports if r["status"] == "skipped (requires rho>1)"]
        assert {r["theorem"] for r in skipped} == {"3.5", "3.6", "3.7/3.8"}

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

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--grid", "16", "--rho", "1.5", "--seed", "42"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(DIVERGING))
        with pytest.warns(UserWarning):
            code = main(
                ["inclusion", "--input", str(path), "--grid", "32", "--max-iter", "5"]
            )
        assert code == 4

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
        """The benchmark's oscillator problem warns on stderr about the
        contraction factor once (not once per policy) and about the failed
        monotonicity probe, each as one "warning:" line without a source path."""
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
            "warning: declared Lipschitz constant gives contraction factor 23.8 >= 1",
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

    def test_bounds_invalid_parameters(self):
        assert main(["bounds", "--rho", "-1", "--M", "1"]) == 3

    def test_selection_certificates(self, tmp_path):
        out = tmp_path / "certs.json"
        assert main(
            ["selections", "--builtin", "sym_linear", "--rho", "1.5", "--grid", "16",
             "--output", str(out)]
        ) == 0
        certs = json.loads(out.read_text())
        kinds = {c["kind"] for c in certs}
        assert kinds == {"lower-extremal", "upper-extremal", "midpoint"}
        assert all(c["membership_checked"] for c in certs)


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

    @pytest.mark.parametrize(
        "extra",
        [["--tol", "nan"], ["--tol", "-1"], ["--alpha", "nan"], ["--grid", "0"], ["--grid", "-3"], ["--max-iter", "0"]],
    )
    def test_inclusion_parameters(self, tmp_path, problem_file, extra, capsys):
        out = tmp_path / "never.csv"
        assert main(["inclusion", "--input", problem_file, "--output", str(out)] + extra) == 3
        assert not out.exists()
        assert "parameter error" in capsys.readouterr().err

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
        monkeypatch.setattr(cli, "solve_with_policy", self.out_of_memory)
        monkeypatch.setattr(cli, "solution_funnel", self.out_of_memory)
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


class TestUnreadableJson:
    """A file that json cannot read, for any reason, is an input error."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("unreadable")
        (path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)  # RecursionError
        (path / "latin1.json").write_bytes(b'{"a": "\xff"}')  # UnicodeDecodeError
        (path / "digits.json").write_text('{"a": ' + "1" * 5000 + "}")  # beyond int's digit limit
        return path

    @pytest.mark.parametrize("name", ["deep.json", "latin1.json", "digits.json"])
    @pytest.mark.parametrize("command", [["integrate", "--rho", "0.5"], ["verify"], ["inclusion"]])
    def test_input_error(self, files, name, command, capsys):
        path = files / name
        assert main(command + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot read JSON from {path}: ")
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


class TestNoNumpyRandom:
    """No command imports numpy.random: the oracle draws are svfrac's own."""

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
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "svfrac.verify" in imported and "numpy" in imported
        assert not {m for m in imported if m == "numpy.random" or m.startswith("numpy.random.")}


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


class TestConsoleScript:
    """The packaged `svfrac` script resolves to an entry point that exits 0."""

    @pytest.mark.parametrize(
        "argv", [["verify", "--grid", "16"], ["integrate", "--rho", "0.5", "--grid", "64", "--output", "g.csv"]]
    )
    def test_entry_point_exits_zero(self, tmp_path, argv):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["svfrac"]
        assert target == "svfrac.cli:console_main"
        module, _, name = target.partition(":")
        # The entry point ends the process it runs in, so it runs in a child.
        code = f"import sys, {module}; sys.argv = {['svfrac', *argv]!r}; {module}.{name}()"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_ends_without_traceback(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "svfrac.cli", "integrate", "--rho", "0.5", "--grid", "8"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr == "input error: cannot write stdout: No space left on device\n"

    def test_closed_pipe_ends_without_traceback(self):
        # 3.6 MB of CSV: far more than a pipe holds, so the writer is still
        # writing when the reader goes away after the first line.
        with subprocess.Popen(
            [sys.executable, "-m", "svfrac.cli", "integrate", "--rho", "0.5", "--grid", "65536"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        ) as proc:
            assert proc.stdout.readline() == b"u,lo,hi\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 2
        assert err == "input error: cannot write stdout: Broken pipe\n"


class TestProcessExit:
    """`python -m svfrac.cli` ends its process without the interpreter's
    teardown: every byte of the result still reaches a pipe, and the exit
    codes and stderr are those of main()."""

    def run_cli(self, *argv):
        # Without PYTHONUNBUFFERED, stdout on a pipe is block-buffered, so a
        # byte left in the buffer at the end would be lost.
        env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            [sys.executable, "-m", "svfrac.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # 3.6 MB of CSV, more than a pipe buffer holds
            ["integrate", "--builtin", "sin_envelope", "--rho", "0.5", "--grid", "65536"],
            ["verify", "--grid", "16"],
            ["inclusion", "--funnel", "--grid", "2048"],
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
        "argv, expected",
        [
            (["integrate", "--rho", "0.5", "--output", "{tmp}/missing/x.csv"], 2),
            (["integrate", "--rho", "0.5", "--b", "inf"], 3),
            (["inclusion", "--input", "{tmp}/diverge.json", "--grid", "32", "--max-iter", "5"], 4),
        ],
        ids=["missing-dir", "infinite-domain", "diverging"],
    )
    def test_exit_codes_without_traceback(self, tmp_path, argv, expected):
        (tmp_path / "diverge.json").write_text(json.dumps(DIVERGING))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = self.run_cli(*argv)
        assert proc.returncode == expected
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr and proc.stderr.endswith(b"\n")


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_property")
    # rhs independent of u: Picard stops after 2 sweeps whatever --tol or --max-iter
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
# Huge iteration caps are safe: the property problem converges in 2 sweeps.
ITER_VALUES = st.one_of(
    st.integers(-3, 10**18).map(str), st.sampled_from(["nan", "inf", "-inf", "1e999"])
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
        opt("--tol", FLOAT_VALUES)
        opt("--max-iter", ITER_VALUES)
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
    @example(argv=["inclusion", "--max-iter=0", "--tol=nan"])
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
        allowed = {0, 1, 2, 3, 4} if argv[0] == "verify" else {0, 2, 3, 4}
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
    if draw(st.booleans()):
        argv.append(f"--max-iter={draw(st.sampled_from([1, 5, 300]))}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--alpha={draw(NUMBERS)!r}")
    return argv


class TestProblemFileProperty:
    """Every inclusion problem file ends with a documented exit code, never a
    traceback: 2 for a malformed file, 3 for an invalid value, 4 for
    non-convergence (also past the float range)."""

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
    @example(  # Picard iterates overflow: exit 4
        obj={"alpha": 1.5, "t0": 0.0, "T": 1000.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "affine", "params": {"p": 1.0}}, "lipschitz_u": 1.0},
        argv=["inclusion", "--grid=64", "--max-iter=300"],
    )
    @example(
        obj={"alpha": 1.5, "t0": 0.0, "T": 1000.0, "u0": 1.0, "u1": 0.0,
             "rhs": {"kind": "affine", "params": {"p": 1.0}}, "lipschitz_u": 1.0},
        argv=["inclusion", "--grid=64", "--max-iter=300", "--funnel"],
    )
    def test_documented_exit_codes(self, property_dir, obj, argv):
        path = property_dir / "problem_property.json"
        path.write_text(json.dumps(obj))
        argv = argv + ["--input", str(path), "--output", str(property_dir / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # contraction-factor and overflow warnings
            code = main(argv)
        assert code in {0, 2, 3, 4}, (obj, argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    def test_malformed_file_and_overflowing_iterates(self, tmp_path, capsys):
        """The explicit examples above, with their exact exit codes and messages."""
        path = tmp_path / "p.json"
        spec = {"alpha": 1.5, "t0": 0.0, "T": 1.0, "u0": 1.0, "u1": 0.0}
        for rhs in ({"kind": "symmetric", "params": {"bogus": 1}}, [1, 2],
                    {"kind": "symmetric", "params": {"k": "x"}}):
            path.write_text(json.dumps({**spec, "rhs": rhs}))
            assert main(["inclusion", "--input", str(path), "--grid", "64"]) == 2
            assert "malformed problem spec" in capsys.readouterr().err
        # text that is no number is malformed too, as in a map file
        path.write_text(json.dumps({**spec, "T": "ab", "rhs": {"kind": "symmetric"}}))
        assert main(["inclusion", "--input", str(path), "--grid", "64"]) == 2
        assert "malformed problem spec" in capsys.readouterr().err
        path.write_text(json.dumps({**spec, "T": 1000.0, "lipschitz_u": 1.0,
                                    "rhs": {"kind": "affine", "params": {"p": 1.0}}}))
        for mode in ([], ["--funnel"]):
            with pytest.warns(UserWarning):
                code = main(["inclusion", "--input", str(path), "--grid", "64", "--max-iter", "300"] + mode)
            assert code == 4
            assert "left the float range" in capsys.readouterr().err
