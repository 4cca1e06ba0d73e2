"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import layerdiff  # noqa: E402


def bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
        env=env or {k: v for k, v in os.environ.items() if k != "PLANALG_EXHAUSTIVE_CAP"},
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Standard output lines of an untraced (0) and a traced (1) tiny run."""
    out = {}
    for trace in (0, 1):
        proc = bench("--workload", "all", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout.splitlines()
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_for_every_workload(tiny_runs, trace):
    lines = tiny_runs[trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {f"{w}.{m['name']}" for w in WORKLOADS for m in listed}
    assert set(result["metrics"]) == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for w in WORKLOADS:
        row = next(line for line in lines if line.startswith(w + " "))
        for m in SPEC["end_to_end"]:
            assert f"{m['name']}=" in row and m["unit"] in row
        assert "fail_ratio=0 " in row


def test_layers_silent_where_unused(tiny_runs):
    metrics = json.loads(tiny_runs[1][-1])["metrics"]
    for w in ("cells", "session"):
        for name, metric in metrics.items():
            if name.startswith((f"{w}.hecke.", f"{w}.tl.")):
                assert metric["value"] == 0, name
    assert metrics["kl.table_algebra.mul.calls"]["value"] == 0
    assert metrics["embed.planar.element_mul.calls"]["value"] > 0
    assert metrics["session.laurent.parse.calls"]["value"] > 0


def test_layerdiff_compares_two_traced_runs(tiny_runs):
    base = layerdiff.layer_metrics(HERE / "out" / "run-session-s5-t1.json")
    rows = layerdiff.diff(base, dict(base, **{"laurent.parse.calls": 0}))
    by_name = {r[0]: r for r in rows}
    assert by_name["laurent.parse.calls"][3] == -base["laurent.parse.calls"]
    assert by_name["laurent.mul.self_s"][3] == 0


def test_refuses_exhaustive_cap():
    proc = bench("--workload", "cells", "--seed", "1", "--seconds", "1", "--tiny",
                 env=dict(os.environ, PLANALG_EXHAUSTIVE_CAP="10"))
    assert proc.returncode == 2
    assert not proc.stdout.strip()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "kl", "--seed", "1", "--seconds", "1", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
