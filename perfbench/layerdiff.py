"""Compare two traced outputs metric by metric.

    python3 perfbench/layerdiff.py BASE.json CHANGE.json

Each file is either a run record written by ``run.py --trace 1``
(``perfbench/out/run-<workload>-s<seed>-t1.json``, per-layer medians)
or a trace written by a traced round (``trace-<workload>-s<seed>.json``,
every wrapped function).  One line per metric: base value, changed
value, difference and ratio, largest absolute time difference first,
so a perf change can show in which layer its saving sits.
"""

import json
import sys


def layer_metrics(path):
    with open(path) as fh:
        data = json.load(fh)
    metrics = data.get("per_layer") or data.get("metrics")
    if not metrics:
        raise SystemExit(f"{path}: no per-layer metrics (was it a traced run?)")
    return metrics


def diff(base, change):
    """Rows (name, base, change, change - base, change / base or None)."""
    rows = []
    for name in sorted(set(base) | set(change)):
        a, b = base.get(name, 0.0), change.get(name, 0.0)
        rows.append((name, a, b, b - a, b / a if a else None))
    timed = [r for r in rows if not r[0].endswith(".calls")]
    counted = [r for r in rows if r[0].endswith(".calls")]
    timed.sort(key=lambda r: -abs(r[3]))
    return timed + counted


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, change = (layer_metrics(p) for p in argv)
    print(f"{'metric':44s} {'base':>14s} {'change':>14s} {'diff':>14s} {'ratio':>8s}")
    for name, a, b, d, ratio in diff(base, change):
        r = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8s}"
        print(f"{name:44s} {a:14.6g} {b:14.6g} {d:+14.6g} {r}")


if __name__ == "__main__":
    main(sys.argv[1:])
