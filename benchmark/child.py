"""Run one svfrac CLI op in this interpreter, with tracing or memory probes.

    python child.py trace OUT.npz OP_ID -- <svfrac arguments>
    python child.py peak OUT.json OP_ID -- <svfrac arguments>

`trace` records spans (see spans.py) and writes them to OUT.npz when the op
ends. `peak` runs the op under tracemalloc and writes the peak traced memory
of the op and of the RL weight builds to OUT.json. The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import spans

WEIGHT_BUILDERS = (("svfrac.rl", "rl_weight_matrix"), ("svfrac.rl", "quadrature_weights"))


class PeakProbe:
    """Peak traced memory of the whole op and of the largest weight build.

    A weight build resets the tracemalloc peak on entry, so the op's peak is
    carried across those resets.
    """

    def __init__(self):
        self.op_peak = 0
        self.weights_peak = 0

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.op_peak = max(self.op_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.weights_peak = max(self.weights_peak, peak - current)
                self.op_peak = max(self.op_peak, peak)

        return wrapper


def main(argv: list[str]) -> int:
    mode, out, op_id, sep, *cli_args = argv
    if mode not in ("trace", "peak") or sep != "--":
        raise SystemExit(__doc__)
    import svfrac.cli

    if mode == "trace":
        recorder = spans.SpanRecorder(op=int(op_id))
        recorder.install()
        try:
            return svfrac.cli.main(cli_args)
        finally:
            recorder.save(out)
    probe = PeakProbe()
    for module_name, attr in WEIGHT_BUILDERS:
        spans.patch(module_name, attr, probe.wrap)
    tracemalloc.start()
    try:
        rc = svfrac.cli.main(cli_args)
        probe.op_peak = max(probe.op_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    with open(out, "w") as fh:
        json.dump({"op_peak_bytes": probe.op_peak, "weights_peak_bytes": probe.weights_peak}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
