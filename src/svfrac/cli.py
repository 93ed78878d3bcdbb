"""Command-line front end.

Exit codes: 0 ok, 1 verification failure, 2 input error (including an
output that cannot be opened or written), 3 parameter error (including a
result beyond the float range, and a grid too large for the memory). The
output is opened only after the computation has succeeded, so no
computation result is written on exit codes 2-3, apart from what reached an
output before writing it failed.

`inclusion` solves the builtin fields of a problem file directly, in one
step (svfrac.inclusion): a solution beyond the float range, a singular
step and a grid too coarse for the field's p are exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import sys
import warnings
from typing import NoReturn

# numpy's OpenBLAS starts a worker thread as it loads, and svfrac has no use
# for it: its dots stay below OpenBLAS's threading threshold, and einsum and
# the FFT do not call BLAS. Set before the imports below load numpy; a value
# the caller sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# No cyclic collection while these imports load; what they build is frozen out of later ones.
_gc_enabled = gc.isenabled()
if _gc_enabled:
    gc.collect(1)  # the caller's young garbage, which the freeze would keep for good
gc.disable()
try:
    from .gridmap import GridMap
    from .inclusion import POLICIES, CaputoProblem, funnel_to_csv, solution_funnel, solve_with_policy
    from .regularity import RegularityReport, bound_l0, bound_sup
    from .rl import rl_setvalued
    from .selections import certify_extremals, certify_midpoint
    from .verify import DEFAULT_RHOS, DEFAULT_SEED, run_verification
    gc.freeze()
finally:
    if _gc_enabled:  # a caller that turned the collector off keeps it off
        gc.enable()

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_PARAM = 3


def _load_json(path: str) -> dict:
    """The JSON document of the file `path`. A file that cannot be opened or
    decoded (not JSON, not UTF-8, nested too deep, or an integer of too many
    digits) is an InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


class InputError(ValueError):
    pass


def _load_map(args) -> GridMap:
    if args.input:
        obj = _load_json(args.input)
        try:
            return GridMap.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed map spec: {exc}") from exc
    return GridMap.from_builtin(args.builtin, args.a, args.b, args.grid)


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream a result is written to: the file `path`, opened here,
    or stdout, flushed at the end. An output that cannot be opened or
    written, a closed pipe included, is an InputError."""
    try:
        if path:
            with open(path, "w") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            _discard_stdout()
        raise InputError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the text still
    buffered after a failed write is dropped at exit instead of failing
    there again. A stdout without a descriptor holds nothing to drop."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


JSON_BLOCK = 64  # encoder chunks joined per write of _write_json


def _write_json(path: str | None, obj, indent: int | None = None, default=None) -> None:
    """obj as JSON text, the text json.dump writes, encoded as it is written
    and handed to the stream JSON_BLOCK chunks at a time: a text stream keeps
    each small chunk (a key, a separator) as its own object until 8 KB are
    pending. An object JSON does not know is written as its value under
    `default`, taken only when the encoder reaches it."""
    chunks = json.JSONEncoder(sort_keys=True, indent=indent, default=default).iterencode(obj)
    with _output(path) as fh:
        while block := "".join(itertools.islice(chunks, JSON_BLOCK)):
            fh.write(block)
        fh.write("\n")


def cmd_integrate(args) -> int:
    f = _load_map(args)
    g = rl_setvalued(f, args.rho)
    if args.format == "json":
        _write_json(args.output, g.to_json())
    else:
        with _output(args.output) as fh:
            g.to_csv(fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    rhos = tuple(args.rho) if args.rho else DEFAULT_RHOS
    fixtures = None
    if args.input:
        obj = _load_json(args.input)
        try:
            fixtures = {name: GridMap.from_json(spec) for name, spec in obj.items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed fixture file: {exc}") from exc
        # A file without fixtures would pass vacuously, on zero checks.
        if not fixtures:
            raise InputError(f"fixture file {args.input} has no fixtures")
    reports = run_verification(rhos=rhos, fixtures=fixtures, seed=args.seed, n_segments=args.grid)
    # Each report's dict is made as the encoder reaches it: no list of them all.
    _write_json(args.output, reports, indent=1, default=RegularityReport.to_json)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(
            f"FAIL theorem {r.theorem} fixture {r.fixture} rho {r.rho:g}: "
            f"measured {r.measured:.12g} bound {r.bound:.12g}",
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_selections(args) -> int:
    f = _load_map(args)
    g = rl_setvalued(f, args.rho)
    certs = (*certify_extremals(g), certify_midpoint(g))
    _write_json(args.output, [c.to_json() for c in certs], indent=1)
    return EXIT_OK


def cmd_bounds(args) -> int:
    out = {"bound_sup": bound_sup(args.rho, args.M, args.a, args.b)}
    if args.rho > 1:
        out["bound_L0"] = bound_l0(args.rho, args.M, args.a, args.b)
    _write_json(args.output, out)
    return EXIT_OK


@contextlib.contextmanager
def _plain_warnings():
    """Inside, a warning shown on stderr reads "warning: <message>", without
    the path and line of its source. Warnings still pass through the
    warnings filters, so a caller that records them sees them unchanged."""

    def plain(message, category, filename, lineno, line=None):
        return f"warning: {message}\n"

    saved, warnings.formatwarning = warnings.formatwarning, plain
    try:
        yield
    finally:
        warnings.formatwarning = saved


@_plain_warnings()
def cmd_inclusion(args) -> int:
    if not args.input:
        raise InputError("inclusion requires --input with a problem JSON")
    obj = _load_json(args.input)
    try:
        if args.alpha is not None:
            obj["alpha"] = args.alpha
        problem = CaputoProblem.from_json(obj)
    except KeyError as exc:
        raise InputError(f"malformed problem spec: missing {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise InputError(f"malformed problem spec: {exc}") from exc
    if args.funnel:
        g = solution_funnel(problem, n=args.grid)
        with _output(args.output) as fh:
            funnel_to_csv(g, fh)
    else:
        traj = solve_with_policy(problem, policy=args.policy, n=args.grid)
        with _output(args.output) as fh:
            traj.to_csv(fh)
        print(
            f"iterations_used={traj.iterations_used} residual={traj.residual:.12g}",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="svfrac",
        description="Fractional integration of interval-valued maps, regularity "
        "verification, and Caputo inclusion solving.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", help="input JSON path")
        sp.add_argument("--output", help="output path (default: stdout)")
        sp.add_argument("--grid", type=int, default=256)

    def map_source(sp):
        """The map of --input, or of --builtin on [--a, --b], and the order --rho."""
        common(sp)
        sp.add_argument("--builtin", default="sym_linear", help="builtin map when no --input")
        sp.add_argument("--a", type=float, default=0.0)
        sp.add_argument("--b", type=float, default=1.0)
        sp.add_argument("--rho", type=float, required=True)

    sp = sub.add_parser("integrate", help="set-valued RL integral of a map, CSV/JSON out")
    map_source(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("verify", help="run the theorem verification suite, JSON report out")
    common(sp)
    sp.add_argument("--rho", type=float, action="append", help="restrict to these orders")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of 3.4's random node pairs")
    sp.set_defaults(func=cmd_verify, grid=64)

    sp = sub.add_parser("selections", help="selection certificates of the integral map")
    map_source(sp)
    sp.set_defaults(func=cmd_selections)

    sp = sub.add_parser("bounds", help="analytic sup/Lipschitz bounds for given parameters")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("inclusion", help="solve a Caputo inclusion by selection policy")
    common(sp)
    sp.add_argument("--alpha", type=float, help="override problem order")
    sp.add_argument("--policy", choices=POLICIES, default="midpoint")
    sp.add_argument("--funnel", action="store_true", help="emit lower/upper envelope CSV")
    sp.set_defaults(func=cmd_inclusion)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    gc.collect(1)  # argparse actions point back at their parsers: free that cycle (frozen imports not scanned)
    try:
        if getattr(args, "grid", 1) < 1:
            raise ValueError(f"--grid must be >= 1, got {args.grid}")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except OverflowError as exc:
        print(f"parameter error: result beyond the float range ({exc})", file=sys.stderr)
        return EXIT_PARAM
    except MemoryError:
        print(f"parameter error: not enough memory for {_grid_source(args)}", file=sys.stderr)
        return EXIT_PARAM


def _grid_source(args) -> str:
    """What sets the grid of a run: the map or fixture file of --input, or
    --grid (an inclusion problem file holds no grid)."""
    if getattr(args, "input", None) and args.command != "inclusion":
        return f"the grid of {args.input}"
    return f"--grid {getattr(args, 'grid', None)}"


def console_main() -> NoReturn:
    """The `svfrac` command: main() on the process's arguments, then the end
    of the process with its exit code once stdout and stderr are flushed,
    without the interpreter's teardown, which frees numpy's state for tens of
    milliseconds after the result is out. A failed flush of stdout is an
    input error, as in _output. Exceptions from main(), argparse's SystemExit
    among them, propagate as usual."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        print(f"input error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        code = EXIT_INPUT
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
