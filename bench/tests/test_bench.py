"""Tests of the benchmark itself, at toy sizes: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_work_counts_repeat_across_traced_runs():
    counts = [{name: metric["value"] for name, metric in smoke("bounds-clustered", 1)
               ["metrics"].items() if metric["unit"] == "count"} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["regression.fits"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_parse_importtime_charges_nested_scipy_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        10 |       1000 | lafte.regression",
        "import time:        20 |       1200 | lafte.cli",
    ])
    lafte_cli, scipy = run.parse_importtime(text)
    assert lafte_cli == pytest.approx(1200e-6)
    assert scipy == pytest.approx(750e-6)


def test_reference_comparison_rules():
    reference = {"value": 1.0, "cluster_count": None, "kind": "hc1",
                 "cells": [{"p_value": 0.25, "verdict": "consistent"}]}
    same = {"value": 1.0 + 1e-13, "cluster_count": 1000, "kind": "cluster",
            "cells": [{"p_value": 0.25, "verdict": "consistent"}]}
    assert gate.compare_reference(reference, same) == []
    moved = {**same, "value": 1.0 + 1e-9}
    assert gate.compare_reference(reference, moved)
    flipped = {**same, "cells": [{"p_value": 0.25, "verdict": "rejected"}]}
    assert gate.compare_reference(reference, flipped)


def test_self_times_subtract_children():
    spans = [["cli.main", 0.0, 10.0, None, None],
             ["data.load_table", 1.0, 5.0, 0, None],
             ["data.from_arrays", 2.0, 3.0, 1, None]]
    assert run.span_self_times(spans) == [6.0, 3.0, 1.0]
