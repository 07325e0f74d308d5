"""The committed ``BENCH_*.json`` results stay comparable with each other
and with ``BENCHMARK.json``: each holds every declared workload, a correct
run with no failed operation, and exactly the declared end-to-end metrics."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_benchmark(path):
    result = json.loads(path.read_text())
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert sorted(result) == sorted(workloads)
    for name in workloads:
        run = result[name]
        assert run["correct"] is True, name
        assert run["failed"] == 0, name
        assert set(run["metrics"]) == metrics, name
