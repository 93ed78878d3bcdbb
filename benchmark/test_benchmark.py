"""Tests of the benchmark itself: python3 -m pytest benchmark -q (from the
repository root)."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

TINY = {
    "integrate_n4096": workloads.integrate_workload(grid=16),
    "verify_g64": workloads.verify_workload(grid=4),
    "inclusion_osc_n2048": workloads.oscillator_workload(grid=256),
}


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def fast_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace, fast_setup):
    kind = "per_layer" if trace else "end_to_end"
    result, record = run.run(TINY[name], seed=5, seconds=0, trace=trace, root=ROOT,
                             metric_names=list(declared(kind)))
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == set(declared(kind))
    if trace:
        m = result["metrics"]
        assert (m["inclusion.rhs_calls"] > 0) == name.startswith("inclusion")
        assert m["op.inproc_s"] > 0


def test_verify_trace_counts_setvalued_per_pair(fast_setup):
    result, _ = run.run(TINY["verify_g64"], seed=1, seconds=0, trace=True, root=ROOT,
                        metric_names=["verify.setvalued_per_pair", "rl.setvalued_calls"])
    assert result["metrics"]["rl.setvalued_calls"] == 156
    assert result["metrics"]["verify.setvalued_per_pair"] == 6.5


def _perturb_csv(path: str, row: int, col: int, delta: float) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _flip_first_report(path: str) -> None:
    with open(path) as fh:
        reports = json.load(fh)
    reports[0]["pass"] = False
    with open(path, "w") as fh:
        json.dump(reports, fh)


@pytest.mark.parametrize("name, corrupt", [
    ("integrate_n4096", lambda p: _perturb_csv(p, 7, 2, 1e-6)),
    ("inclusion_osc_n2048", lambda p: _perturb_csv(p, 256 * 3 // 8, 1, 1e-3)),
    ("verify_g64", _flip_first_report),
])
def test_corrupted_output_is_a_failure(name, corrupt, tmp_path):
    wl = TINY[name]
    runner = run.Runner(wl, ROOT, str(tmp_path))
    op = runner.op(0, wl.draw(random.Random(3), 0))
    runner.judge(op)
    assert op.error is None, op.error
    corrupt(op.output)
    op.error = None
    runner.judge(op)
    assert op.error is not None


def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, capsys, fast_setup):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.chdir(ROOT)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        rc = run.main(["--workload", "integrate_n4096", "--seed", "2", "--seconds", "0",
                       "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        for name, unit in declared(kind).items():
            assert result["metrics"][name]["unit"] == unit
            assert any(line.startswith(f"{name} = ") and line.split()[3] == unit
                       for line in lines), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmark"), tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "verify_g64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scale_divides_by_the_nearest_reference_times():
    r = run.REF_S
    refs = [r, r, 2 * r, 3 * r, 6 * r]
    # means of refs[0:3], refs[0:4], refs[1:5] and refs[2:5]
    assert run.scale([4.0, 7.0, 6.0, 11.0], refs) == pytest.approx([3.0, 4.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        run.scale([1.0, 3.0], refs)


def test_self_time_subtracts_the_union_of_children():
    s = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.leaf", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.5, 7.0, 3, 0),
        Span("b.y", 6.0, 8.0, 3, 0),  # overlaps b.x: union is [5.5, 8]
        Span("b.z", 8.5, 9.5, 3, 0),  # sticks out of b: clipped to [8.5, 9]
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.5, 2.0, 1.0])
    totals = spans.layer_totals(s + [Span("a", 10.0, 10.5, -1, 0)])
    assert totals["a"] == (pytest.approx(2.5), 2)


def test_recorder_nests_spans_and_skips_missing_targets(monkeypatch, tmp_path):
    ticks = iter(range(100))
    rec = spans.SpanRecorder(op=4, clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    rec.save(str(tmp_path / "op.npz"))
    recorded, counters = spans.load(str(tmp_path / "op.npz"))
    assert recorded == [Span("outer", 0.0, 3.0, -1, 4), Span("inner", 1.0, 2.0, 0, 4)]
    assert counters == {}
    monkeypatch.setattr(spans, "TARGETS", (("svfrac.rl", "no_such_function", "rl.gone"),
                                           ("svfrac.nope", "f", "nope"),
                                           ("svfrac.gridmap", "GridMap.no_such", "gone")))
    assert rec.install() == []


def test_patch_replaces_every_imported_name(monkeypatch):
    import svfrac
    import svfrac.cli
    import svfrac.rl
    import svfrac.verify

    for mod in (svfrac, svfrac.rl, svfrac.verify, svfrac.cli):
        monkeypatch.setattr(mod, "rl_setvalued", mod.rl_setvalued)
    rec = spans.SpanRecorder()
    assert spans.patch("svfrac.rl", "rl_setvalued", lambda fn: rec.wrap("rl.setvalued", fn))
    assert svfrac.verify.rl_setvalued is svfrac.cli.rl_setvalued is svfrac.rl.rl_setvalued
    svfrac.verify.check_nonempty(svfrac.verify.fixture_catalog(4)["hat"], "hat", 1.5)
    assert rec.names == ["rl.setvalued"]
