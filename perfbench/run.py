"""Layered benchmark for planalg: one command, four workloads.

    python3 perfbench/run.py --workload embed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run repeats rounds until ``--seconds`` are used up (at least
``MIN_ROUNDS``).  Each round is a fresh interpreter (``worker.py``), so
the module-level lru_caches start empty: it imports planalg, makes the
seeded inputs, builds and verifies the workload's structures, then runs
the fixed, seeded op stream.  Untraced rounds time on the reference
clock (``refclock.py``).  Times are medians over rounds; op latencies
are pooled over rounds.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs one untraced round and then traced rounds, and
reports the per-layer metrics, including the tracing overhead.  Every
run writes its record to ``perfbench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 2 means the run was refused or broke.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("embed", "kl", "cells", "session")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


class RunError(Exception):
    pass


def commit():
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload, seed, trace_file, tiny):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(trace_file) if trace_file else "-"] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} round exceeded {ROUND_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError as exc:
        raise RunError(f"{workload} worker printed no result: {exc}") from exc
    out["wall_s"] = time.perf_counter() - start
    return out


def run_rounds(workload, seed, seconds, tiny, trace):
    """Untraced rounds, or one untraced round then traced rounds."""
    start = time.perf_counter()
    rounds, traced = [], []
    while True:
        tracing = trace and bool(rounds)
        trace_file = OUT / f"trace-{workload}-s{seed}.json" if tracing else None
        res = run_round(workload, seed, trace_file, tiny)
        (traced if tracing else rounds).append(res)
        elapsed = time.perf_counter() - start
        done = len(traced) if trace else len(rounds)
        if done >= (1 if trace else MIN_ROUNDS) and elapsed + res["wall_s"] > seconds:
            return rounds, traced


def end_to_end(rounds):
    lat = [x for r in rounds for x in r["latencies"]]
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "setup_s": med("setup_s"),
        "build_s": med("build_s"),
        "query_s": med("query_s"),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": med("peak_rss_mb"),
        "fail_ratio": failed / attempted,
    }, len(lat)


def per_layer(rounds, traced):
    names = traced[0]["layers"].keys()
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    out["trace.overhead_s"] = (statistics.median(r["work_wall_s"] for r in traced)
                               - statistics.median(r["work_wall_s"] for r in rounds))
    return out


def row(workload, e2e, samples, attempted, failed):
    return (f"{workload:8s} setup_s={e2e['setup_s']:.4f} s  build_s={e2e['build_s']:.4f} s  "
            f"query_s={e2e['query_s']:.4f} s  op_p50_ms={e2e['op_p50_ms']:.4f} ms  "
            f"op_p90_ms={e2e['op_p90_ms']:.4f} ms (n={samples} ops)  "
            f"peak_rss_mb={e2e['peak_rss_mb']:.2f} MB  "
            f"fail_ratio={e2e['fail_ratio']:.4g} 1 ({failed}/{attempted})")


def run_workload(workload, seed, seconds, trace, tiny, spec):
    rounds, traced = run_rounds(workload, seed, seconds, tiny, trace)
    everything = rounds + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    e2e, samples = end_to_end(rounds)
    print(row(workload, e2e, samples, attempted, failed))
    for r in everything:
        for line in r["failures"]:
            print(f"  FAIL {workload}: {line}")
    layers = per_layer(rounds, traced) if trace else None
    values, listed = (layers, spec["per_layer"]) if trace else (e2e, spec["end_to_end"])
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RunError(f"{workload} did not produce {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "rounds": len(rounds), "traced_rounds": len(traced),
        "op_samples": samples, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layers,
        "round_times": [{k: r[k] for k in ("setup_s", "build_s", "query_s", "work_wall_s",
                                           "wall_s", "speed")} for r in everything],
        "failures": [line for r in everything for line in r["failures"]],
    }
    (OUT / f"run-{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(f"# run: workload={workload} seed={seed} trace={int(trace)} nproc={record['nproc']} "
          f"python={record['python']} commit={record['commit']} rounds={len(rounds)} "
          f"traced_rounds={len(traced)}")
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="first entries of each workload and a few ops (smoke test)")
    args = ap.parse_args(argv)
    if "PLANALG_EXHAUSTIVE_CAP" in os.environ:
        print("refusing to run: PLANALG_EXHAUSTIVE_CAP changes how much work "
              "'cells' does", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "planalg" / "__init__.py").is_file():
        print(f"refusing to run: no planalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in chosen:
            got, a, f = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                     args.tiny, spec)
            prefix = "" if len(chosen) == 1 else f"{workload}."
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted, failed = attempted + a, failed + f
    except RunError as exc:
        print(f"benchmark broke: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
