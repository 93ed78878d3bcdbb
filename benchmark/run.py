"""End-to-end benchmark of the svfrac command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports svfrac from ./src. Each timed op
is one svfrac CLI invocation in a fresh interpreter, run closed-loop by one
client, one process at a time, for S seconds. Every op's output is checked
against an oracle independent of svfrac (see workloads.py); an op fails on a
non-zero exit code, a traceback or an oracle miss.

The host's speed drifts by up to 2x over seconds to minutes, on wall and
CPU time alike, so every timing is taken between two runs of a fixed
reference job (reference.py) and scaled by them: a scaled time is the wall
time times REF_S over the mean of the nearest reference times (see scale()),
i.e. seconds on a host where the reference job takes REF_S seconds. Raw wall
times are kept in the run record.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates plain ops with traced ops (see child.py and spans.py) and reports
the per-layer metrics. The last line of output is one JSON object with the
keys correct, attempted, failed and metrics. A run record (versions, thread
settings, seed, drawn inputs and per-op samples) is printed before it and
written to .bench_work/BENCH_<workload>_s<seed>_t<trace>.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import spans
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
REF_S = 0.38  # the reference job's wall time on the 2-core host the bounds were set on
REF_REACH = 2  # reference runs on each side of a timing that scale it
MIN_OPS = 2
OP_TIMEOUT_S = 150
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import svfrac.cli; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Op:
    index: int
    params: dict
    traced: bool
    output: str
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s at the reference speed, see scale()
    returncode: int | None = None
    stderr: str = ""
    error: str | None = None
    record: str | None = None  # spans or peak-memory file of child.py
    output_bytes: int = 0


class Runner:
    """Runs ops of one workload from a repository root, in a scratch dir."""

    def __init__(self, workload: Workload, root: str, work: str):
        self.wl = workload
        self.work = work
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, cwd=self.work,
        )

    def reference(self) -> float:
        """Wall time of one run of the fixed reference job."""
        t0 = time.perf_counter()
        proc = self.python([os.path.join(BENCH_DIR, "reference.py")])
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"reference job failed:\n{proc.stderr}")
        return wall

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Import times of svfrac.cli in fresh interpreters, with the
        reference times around them (one more than imports). A first,
        untimed import fills the bytecode cache."""
        times, refs = [], []
        for i in range(SETUP_REPEATS + 1):
            proc = self.python(["-c", IMPORT_TIMER])
            if proc.returncode != 0:
                raise RuntimeError(f"cannot import svfrac.cli:\n{proc.stderr}")
            if i:
                times.append(float(proc.stdout.strip().splitlines()[-1]))
            refs.append(self.reference())
        return times, refs

    def op(self, index: int, params: dict, mode: str | None = None) -> Op:
        """One CLI invocation: plain when mode is None, else through child.py."""
        stem = os.path.join(self.work, f"op{index}")
        op = Op(index, params, mode == "trace", stem + self.wl.suffix)
        if self.wl.problem is not None:
            with open(stem + "_in.json", "w") as fh:
                json.dump(self.wl.problem(params), fh)
        cli_args = self.wl.argv(params, op.output, stem + "_in.json")
        if mode is None:
            args = ["-m", "svfrac.cli", *cli_args]
        else:
            op.record = stem + (".npz" if mode == "trace" else "_peak.json")
            args = [os.path.join(BENCH_DIR, "child.py"), mode, op.record, str(index), "--", *cli_args]
        t0 = time.perf_counter()
        try:
            proc = self.python(args)
        except subprocess.TimeoutExpired:
            op.wall_s = time.perf_counter() - t0
            op.error = f"timed out after {OP_TIMEOUT_S} s"
            return op
        op.wall_s = time.perf_counter() - t0
        op.returncode, op.stderr = proc.returncode, proc.stderr
        return op

    def judge(self, op: Op) -> None:
        """Set op.error unless the op exited 0, cleanly, with a correct output."""
        if op.error is not None:
            return
        if op.returncode != 0:
            op.error = f"exit code {op.returncode}: {op.stderr.strip()[-300:]}"
        elif "Traceback (most recent call last)" in op.stderr:
            op.error = "traceback on stderr"
        else:
            try:
                op.error = self.wl.check(op.params, op.output)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                op.error = f"unreadable output: {exc!r}"
        if op.error is None:
            op.output_bytes = os.path.getsize(op.output)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def scale(times: list[float], refs: list[float]) -> list[float]:
    """times[i] at the reference speed. refs[i] and refs[i + 1] are the
    reference times taken just before and just after times[i]; the speed
    estimate is the mean of up to REF_REACH of them on each side, because
    the host's speed changes within one reference run."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference times, got {len(refs)}")
    return [
        t * REF_S / statistics.fmean(refs[max(0, i + 1 - REF_REACH): i + 1 + REF_REACH])
        for i, t in enumerate(times)
    ]


def layer_metrics(
    wl: Workload, names: list[str], traced: list[Op], plain: list[Op], peak: dict
) -> dict:
    """Per-op medians of the per-layer metrics. `<span>_s` is the self time of
    the spans of that name, `<span>_calls` their count."""
    per_op = []
    for op in traced:
        if op.error is not None:
            continue
        recorded, counters = spans.load(op.record)
        totals = spans.layer_totals(recorded)
        pairs = wl.pairs(op.output) if wl.pairs else 0
        values = {
            "cli.self_s": totals.get("cli.main", (0.0, 0))[0],
            "op.inproc_s": sum(s.end - s.start for s in recorded if s.parent < 0),
            "cli.output_bytes": op.output_bytes,
            "inclusion.sweeps": counters.get("inclusion.sweeps", 0.0),
            "verify.setvalued_per_pair": totals.get("rl.setvalued", (0.0, 0))[1] / pairs if pairs else 0.0,
        }
        for name in names:
            if name in values:
                continue
            if name.endswith("_calls"):
                values[name] = totals.get(name[: -len("_calls")], (0.0, 0))[1]
            elif name.endswith("_s"):
                values[name] = totals.get(name[: -len("_s")], (0.0, 0))[0]
        per_op.append(values)
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = median([o.scaled_s for o in traced]) - median([o.scaled_s for o in plain])
        elif name == "rl.alloc_peak_mb":
            out[name] = peak.get("weights_peak_bytes", 0) / 1e6
        else:
            out[name] = median([v[name] for v in per_op])
    return out


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(root: str, wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": wl.name,
        "seed": seed,
        "N": wl.grid,
        "seconds": seconds,
        "trace": trace,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: str, metric_names: list[str]):
    """One benchmark run; returns (result line object, run record)."""
    rng = random.Random(seed)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = os.path.join(root, ".bench_work", f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(wl, root, work)
    record = run_record(root, wl, seed, seconds, int(trace))
    try:
        setup, setup_refs = ([], []) if trace else runner.setup_seconds()
        peak_op = runner.op(-1, wl.draw(rng, 0), "peak")
        runner.judge(peak_op)
        peak = {}
        if peak_op.error is None:
            with open(peak_op.record) as fh:
                peak = json.load(fh)
        ops: list[Op] = []
        refs = [runner.reference()]
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            i = len(ops)
            ops.append(runner.op(i, wl.draw(rng, i), "trace" if trace and i % 2 else None))
            refs.append(runner.reference())
        elapsed = time.perf_counter() - start
        for op, scaled_s in zip(ops, scale([op.wall_s for op in ops], refs)):
            op.scaled_s = scaled_s
        for op in ops:
            runner.judge(op)
        failed = [op for op in ops if op.error is not None]
        plain = [op for op in ops if not op.traced]
        if trace:
            metrics = layer_metrics(wl, metric_names, [op for op in ops if op.traced], plain, peak)
        else:
            metrics = {
                "setup_s": median(scale(setup, setup_refs)),
                "op_s_p50": median([op.scaled_s for op in plain]),
                "ops_per_s": (len(ops) - len(failed)) / sum(op.scaled_s for op in ops),
                "peak_mem_mb": peak.get("op_peak_bytes", 0) / 1e6,
                "ok_frac": (len(ops) - len(failed)) / len(ops),
            }
        record.update(
            ref_s=refs,
            setup_s=setup,
            setup_ref_s=setup_refs,
            wall_op_s_p50=median([op.wall_s for op in plain]),
            peak=peak,
            peak_error=peak_op.error,
            elapsed_s=elapsed,
            ops=[
                {k: v for k, v in asdict(op).items() if k not in ("output", "record", "stderr")}
                for op in ops
            ],
        )
        result = {
            "correct": not failed and peak_op.error is None,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "svfrac", "cli.py")):
        print(f"error: run from the repository root; no src/svfrac/cli.py in {root}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wl = WORKLOADS[args.workload]
    result, record = run(wl, args.seed, args.seconds, bool(args.trace), root, list(units))
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    record["result"] = result
    path = os.path.join(root, ".bench_work", f"BENCH_{wl.name}_s{args.seed}_t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for op in record["ops"]:
        if op["error"]:
            print(f"FAIL op {op['index']} {op['params']}: {op['error']}")
    if record["peak_error"]:
        print(f"FAIL peak-memory pass: {record['peak_error']}")
    summary = {k: v for k, v in record.items() if k not in ("ops", "result")}
    summary["params"] = [op["params"] for op in record["ops"]]
    print("run_record " + json.dumps(summary, sort_keys=True))
    n_plain = sum(not op["traced"] for op in record["ops"])
    for name, m in result["metrics"].items():
        note = f"  (median of {n_plain} ops)" if name == "op_s_p50" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
