"""One build-and-query round of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE_FILE|- [--tiny]

Prints one JSON object: set-up, build and query times, the latency of
every build item and op, peak RSS and the verification counts.  Times
are read on the reference clock (``refclock``).  With a trace file (not
``-``) the planalg layers are wrapped before the build, the clock is the
plain wall clock, the flat per-layer metrics are added to the object and
the full trace is written to that file.
"""

import sys
import time

import refclock

# The clock starts before every other import, so set-up time covers them.
TRACED = len(sys.argv) > 3 and sys.argv[3] != "-"
CLOCK = refclock.RefClock(probing=not TRACED)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    name, seed, trace_file = argv[0], int(argv[1]), argv[2]
    tiny = "--tiny" in argv[3:]
    sys.path.insert(0, str(SRC))
    import planalg

    if Path(planalg.__file__).resolve().parent != SRC / "planalg":
        raise SystemExit(f"planalg imported from {planalg.__file__}, not {SRC}")
    import workloads

    make_inputs, build, op = workloads.WORKLOADS[name]
    inputs = make_inputs(seed, tiny)
    setup_s = CLOCK.now()

    tracer = None
    if TRACED:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gate = workloads.Gate(CLOCK.now)
    wall = time.perf_counter()
    start = CLOCK.now()
    state = build(inputs, gate)
    build_s = CLOCK.now() - start
    build_items = list(gate.seconds)

    start = CLOCK.now()
    for i, spec in enumerate(inputs["ops"]):
        if tracer:
            tracer.op = i
        gate.attempt(f"op {i}", op, state, spec)
    query_s = CLOCK.now() - start
    wall = time.perf_counter() - wall
    CLOCK.stop()

    out = {
        "setup_s": setup_s,
        "build_s": build_s,
        "query_s": query_s,
        "work_wall_s": wall,
        "speed": refclock.REF_S / statistics.median(CLOCK.samples) if CLOCK.samples else 1.0,
        "build_items": build_items,
        "latencies": gate.seconds[len(build_items):],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.dump(Path(trace_file), {"workload": name, "seed": seed, "tiny": tiny})
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
