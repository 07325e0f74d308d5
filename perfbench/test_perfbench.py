"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import metrics
from spans import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_code():
    bench = _declared()
    assert bench["workloads"] and [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == metrics.layer_metric_specs()


def test_aggregation_emits_exactly_the_declared_names():
    # cell "c" has too few calls; the other cells pool their calls over
    # the three repetitions
    fast = {"pipeline_s": 2.0, "items": 24, "items_s": 2.0,
            "latency_ms": {"a": [1.0, 2.0, 3.0] * 40, "b": [16.0] * 100, "c": [99.0] * 49,
                           "d": [1.0, 9.0] * 30}}
    slow = {"pipeline_s": 3.0, "items": 16, "items_s": 2.0,
            "latency_ms": {"a": [2.0, 4.0, 6.0] * 40, "b": [8.0] * 100, "c": [99.0] * 49,
                           "d": [9.0, 1.0] * 30}}
    stalled = dict(slow, pipeline_s=30.0, items_s=16.0)
    workers = [{"setup_s": 1.0, "peak_rss_kib": 2048, "reps": [slow, fast, stalled]},
               {"setup_s": 1.5, "peak_rss_kib": 4096, "reps": []},
               {"setup_s": 9.0, "peak_rss_kib": 4096, "reps": []}]
    values, counts = metrics.end_to_end(workers)
    names = [m["name"] for m in _declared()["end_to_end"]]
    assert sorted(values) == sorted(counts) == sorted(names)
    assert values["setup_s"] == 1.5 and values["peak_rss_mib"] == 2.0
    assert values["pipeline_s"] == 3.0 and values["items_per_s"] == 8.0
    # upper quartiles a 4, b 16, d 9; p90s a 6, b 16, d 9
    assert values["latency_ms.p75"] == pytest.approx((4 * 16 * 9) ** (1 / 3))
    assert values["latency_ms.p90"] == pytest.approx((6 * 16 * 9) ** (1 / 3))
    assert counts["latency_ms.p90"] == 3 * (120 + 100 + 60) and counts["setup_s"] == 3
    # medians a 3, b 8, d halfway between 1 and 9
    cells = metrics.latency_cells([slow, fast, stalled])
    assert metrics.latency(cells, 50) == pytest.approx((3 * 8 * 5) ** (1 / 3))
    for tag in ("", "v10", "v60"):
        layer, _ = metrics.layer_metrics([], {}, tag, {})
        assert sorted(layer) == sorted(m["name"] for m in _declared()["per_layer"])


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        (0, "root", 0, 100, -1, "r"),
        (1, "a", 10, 30, 0, "r"),
        (2, "b", 20, 50, 0, "r"),     # overlaps a: the union 10-50 counts once
        (3, "c", 60, 70, 0, "r"),
        (4, "a.child", 12, 18, 1, "r"),
        (5, "d", 95, 120, 0, "r"),    # runs past the parent: clipped to 95-100
        (6, "leaf", 0, 5, -1, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 100 - 40 - 10 - 5
    assert selfs[1] == 20 - 6
    assert selfs[2] == 30 and selfs[4] == 6 and selfs[6] == 5


def test_tracer_links_parents_and_restores_patched_names():
    ns = types.SimpleNamespace(inner=lambda n: n * 2)
    ns.outer = lambda n: ns.inner(n) + 1
    original = ns.inner
    tracer = Tracer()
    tracer.run = "rep"
    tracer.patch(ns, "outer", "outer")
    tracer.patch(ns, "inner", lambda args: f"inner{args[0]}",
                 note=lambda args, result: tracer.count("inner_out", result))
    assert ns.outer(3) == 7
    tracer.unpatch()
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner3"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == -1 and by_name["outer"][5] == "rep"
    assert tracer.counts["inner_out"] == 6
    assert ns.inner is original and len(tracer.spans) == 2


def test_roadmap_rows_sit_beside_this_runs_numbers():
    cli = "\n".join(metrics.roadmap_rows("cli_pipeline", {
        "per_call_ms": {"recording.write_recording": 700.0, "recording.read_recording": 380.0},
        "evaluate_share": {"integrate_*": 0.6, "oba_accumulate": 0.2}, "i_oba_120_ms": 50.0}))
    for label, then, now in (("write_recording", "800", "700"), ("read_recording", "414", "380"),
                             ("_chain", "48 %", "60 %"), ("oba_accumulate", "31 %", "20 %")):
        line = next(row for row in cli.splitlines() if label in row)
        assert then in line and now in line
    net = "\n".join(metrics.roadmap_rows("train_net10", {
        "bwd_ranking": [(650.0, "b1.conv1"), (580.0, "b2.conv1")], "step_fwd_bwd_ms": 990.0}))
    assert "Conv2d backward top cost" in net and "b1.conv1 650 ms" in net and "2100" in net


def test_fingerprint_comparison_uses_the_written_tolerances():
    ref = {"digests": {"S1/imu.csv": "ab"}, "mean_ae_deg": {"I-OBA@10": 1.0},
           "loss_history": [10.0], "predictions": [0.5, -0.5]}
    same = json.loads(json.dumps(ref))
    assert metrics.compare_fingerprint(same, ref) == []
    near = dict(same, loss_history=[10.0 * (1 + 1e-9)], predictions=[0.5 + 1e-9, -0.5])
    assert metrics.compare_fingerprint(near, ref) == []
    far = dict(same, predictions=[0.5 + 1e-3, -0.5])
    assert any("predictions" in f for f in metrics.compare_fingerprint(far, ref))
    digest = dict(same, digests={"S1/imu.csv": "cd"})
    assert any("S1/imu.csv" in f for f in metrics.compare_fingerprint(digest, ref))
    assert metrics.compare_fingerprint({}, ref)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "train_nets", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_real_run_prints_the_declared_names(trace):
    proc = _run("--workload", "train_nets", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    declared = {m["name"]: m["unit"] for m in _declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        for tag in ("v10", "v60"):
            assert result["metrics"][f"nn.layers.{tag}.b1.conv1.bwd_ms"]["value"] > 0
        assert "Conv2d backward top cost" in proc.stdout
        assert "tracing overhead" in proc.stdout
