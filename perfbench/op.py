"""One phase of a workload operation, in the fresh process this script runs in.

Usage: python3 perfbench/op.py WORKLOAD SEED WORKDIR TRACE [PHASE]

Times the reference kernel (reference.py), imports hallmhd from the
checkout, sets the workload up, runs PHASE (default: the workload's first)
traced when TRACE is 1, checks its output, times the reference kernel again
and prints one JSON line:

    phase, next  this phase and the one to run next in WORKDIR, or null
    seconds      the timed phase, or null if it raised
    ref_s        mean of the two reference-kernel times
    setup_s      process start to the end of set-up, less the first kernel
                 run.  The parent passes its start time in PERFBENCH_T0;
                 time.perf_counter() is CLOCK_MONOTONIC on Linux, shared by
                 all processes.
    failures     failed checks; an exception counts as one
    peak_rss_mb  this process's peak resident set
    env          the environment record
    layers       per-function span totals (TRACE 1 only)

Every new process pays for imports and a cold allocator, as each ``hmhd``
command does; a second operation in one process would not.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    name, seed, workdir, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    t0 = time.perf_counter()
    ref_before = reference.kernel()
    ref_call_s = time.perf_counter() - t0

    # hallmhd is imported only after the first reference measurement
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from envinfo import environment
    from tracer import Tracer, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    phase = argv[4] if len(argv) > 4 else workload.phases[0]
    workload.setup(seed, workdir)
    setup_s = time.perf_counter() - float(os.environ["PERFBENCH_T0"]) - ref_call_s

    tracer = Tracer()
    seconds, ref_after = None, ref_before
    try:
        with tracer if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            output = workload.timed(phase)
            seconds = time.perf_counter() - t0
        failures = workload.check(phase, output)
        del output  # freed, so the second kernel run cannot raise the peak RSS
        ref_after = reference.kernel()
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        failures = [f"{type(exc).__name__}: {exc}"]

    later = workload.phases[workload.phases.index(phase) + 1:]
    result = {
        "phase": phase,
        "next": later[0] if later else None,
        "seconds": seconds,
        "ref_s": (ref_before + ref_after) / 2,
        "setup_s": setup_s,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(ROOT, workload, seed),
    }
    if trace:
        result["layers"] = summarize(tracer.spans)
        tracer.write(os.path.join(workdir, f"spans-{phase}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
