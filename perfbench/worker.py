"""Benchmark child process.  Started by run.py, never by hand.

    worker.py setup  <workload> <seed> <workdir>
    worker.py run    <workload> <seed> <workdir> <seconds> <trace>
    worker.py parity

`setup` builds the workload's inputs (for cli-files: writes the input
files), prints READY and exits; `run` does the same and then runs the op
list: with trace 0 as many whole passes as fill `seconds`, with trace 1 a
traced pass between two untraced ones.  Results go to stdout as one JSON
line after READY, spans to <workdir>/spans.json.  `parity` prints READY and
then the active backend and the kernels whose compiled outputs differ from
the pure ones.  The parent reads this
process's peak RSS from wait4, so everything the ops allocate is counted
here and nothing of the parent's.
"""

import json
import os
import sys
import time

import ops as oplists
import parity
import spans as tracing
import stats
from cli_ops import CheckFailed
from subwordkit import kernels


def run_pass(ops, tracer=None):
    """Run every op once; each row is [op id, ms, error or None, digest]."""
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a failed op is counted, the pass goes on
            error = f"{type(e).__name__}: {e}"
        ms = (time.perf_counter() - t0) * 1000
        if tracer is not None:
            tracer.op = None
        digest = None
        if error is None:
            try:
                digest = op.check(out)
            except CheckFailed as e:
                error = f"wrong output: {e}"
            del out
        rows.append([op.id, ms, error, digest])
    return rows


def main(argv):
    mode = argv[0]
    if mode == "parity":
        print("READY", flush=True)
        try:
            from subwordkit import _kernels_c
        except ImportError:
            _kernels_c = None
        bad = None
        if _kernels_c is not None:
            bad = parity.mismatches(_kernels_c, os.getcwd())
        print(json.dumps({"backend": kernels.ACTIVE, "compiled": _kernels_c is not None,
                          "mismatches": bad}))
        return 0

    workload, seed, workdir = argv[1], int(argv[2]), argv[3]
    if workload == "cli-files":
        oplists.write_cli_inputs(seed, workdir)
        ops = []
    else:
        ops = oplists.BUILDERS[workload](seed)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    seconds, trace = float(argv[4]), argv[5] == "1"
    passes = []
    tracer = None
    for traced in stats.pass_plan(trace, seconds):
        if traced and tracer is None:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        passes.append({"traced": traced, "ops": run_pass(ops, tracer if traced else None)})
    spans = tracer.spans if tracer else []
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as f:
        json.dump(spans, f)
    print(json.dumps({"passes": passes,
                      "same_as": {op.id: op.same_as for op in ops if op.same_as},
                      "pinned": [op.id for op in ops if op.pinned]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
