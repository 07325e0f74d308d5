from __future__ import annotations

import filecmp
import json
import os
import shutil

import numpy as np
import pytest

from headalign.cli import main
from headalign.nn.model import load_checkpoint
from headalign.recording import read_recording
from headalign.simulate import Oscillation, ScenarioConfig


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    cfg = ScenarioConfig(
        name="dock",
        duration=40.0,
        lat=np.deg2rad(32.5),
        lon=np.deg2rad(34.8),
        psi0=np.deg2rad(75.0),
        heading_osc=(Oscillation(2.0, 35.0, 0.3),),
        roll_osc=(Oscillation(1.5, 8.0, 0.0),),
        pitch_osc=(Oscillation(1.2, 7.0, 0.4),),
        seed=11,
    )
    path = tmp_path_factory.mktemp("cfg") / "dock.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(scenario_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    rc = main(["simulate", "--config", scenario_file, "--sensors", "none",
               "--out-dir", out])
    assert rc == 0
    return out


def test_simulate_writes_recording(data_dir, capsys):
    rec = read_recording(os.path.join(data_dir, "dock"))
    assert rec.imu.t[-1] == pytest.approx(40.0 - 0.01)
    assert rec.meta["scenario"]["name"] == "dock"


def test_align_json_output(data_dir, capsys):
    rc = main(["align", "--recording", os.path.join(data_dir, "dock"),
               "--method", "I-OBA", "--t-align", "30", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "I-OBA"
    assert doc["t_align"] == 30.0
    assert doc["ae_deg"] < 0.1  # noise-free recording
    assert abs(doc["heading_deg"] - doc["truth_deg"]) < 0.1


def test_align_csv_output(data_dir, capsys):
    rc = main(["align", "--recording", os.path.join(data_dir, "dock"),
               "--method", "A-DVA", "--t-align", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,t_align,heading_deg,truth_deg,ae_deg"
    cells = lines[1].split(",")
    assert cells[:2] == ["A-DVA", "10"]
    assert float(cells[4]) < 0.1


def test_error_envelope_on_stderr(tmp_path, capsys):
    rc = main(["align", "--recording", str(tmp_path / "missing"),
               "--method", "I-OBA", "--t-align", "30"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert set(doc) == {"error", "message"}


def test_align_rejects_non_finite_recording(data_dir, tmp_path, capsys):
    bad = tmp_path / "dock"
    shutil.copytree(os.path.join(data_dir, "dock"), bad)
    lines = (bad / "imu.csv").read_text().splitlines(keepends=True)
    parts = lines[8].split(",")
    parts[5] = "nan"
    lines[8] = ",".join(parts)
    (bad / "imu.csv").write_text("".join(lines))
    rc = main(["align", "--recording", str(bad), "--method", "I-OBA", "--t-align", "30"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "recording-format"
    assert "not finite at sample 7" in doc["message"]


@pytest.mark.parametrize("t_aligns", ["0", "nan", "inf", "-10", "10,nan"])
def test_evaluate_rejects_bad_window_length(data_dir, tmp_path, capsys, t_aligns):
    rc = main(["evaluate", "--data", data_dir, f"--t-aligns={t_aligns}",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-argument"
    assert "window length must be finite and > 0 s" in doc["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("t_align", ["nan", "inf", "1"])
def test_align_rejects_bad_window_length(data_dir, capsys, t_align):
    rc = main(["align", "--recording", os.path.join(data_dir, "dock"),
               "--method", "I-OBA", "--t-align", t_align])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_simulate_rejects_non_finite_duration(tmp_path, capsys, duration):
    rc = main(["simulate", "--sensors", "none", "--duration", duration,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "invalid-argument", "message": f"duration must be finite, got {duration}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["duration", "lat", "lon", "psi0", "imu_rate", "aid_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_simulate_config_rejects_non_finite_field(scenario_file, tmp_path, capsys, field, value):
    doc = json.load(open(scenario_file))
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # json writes NaN/Infinity tokens and reads them back
    rc = main(["simulate", "--config", str(bad), "--sensors", "none",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"].startswith(f"{field} must be finite")


def _json_file(tmp_path, name: str, doc) -> str:
    """Write ``doc`` (an object, or raw text) to ``tmp_path / name``."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _simulate_fails(tmp_path, capsys, config: str, sensors: str = "none") -> str:
    """Run ``simulate``; assert it exits 1 with invalid-argument and writes nothing."""
    rc = main(["simulate", "--config", config, "--sensors", sensors,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert not (tmp_path / "out").exists()
    return err["message"]


@pytest.mark.parametrize("field", ["heading_osc", "roll_osc", "pitch_osc"])
@pytest.mark.parametrize("entry", [[float("nan"), 35.0, 0.0], [2.0, float("inf"), 0.0], [2.0, 35.0, -float("inf")]])
def test_simulate_config_rejects_non_finite_oscillation(scenario_file, tmp_path, capsys, field, entry):
    doc = json.load(open(scenario_file))
    doc[field] = [[1.0, 9.0, 0.0], entry]
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert msg.startswith(f"{field}: ") and "must be finite" in msg


@pytest.mark.parametrize("entry", [[2.0], [2.0, 35.0, 0.3, 1.0], [], 5.0])
def test_simulate_config_rejects_misshapen_oscillation(scenario_file, tmp_path, capsys, entry):
    doc = json.load(open(scenario_file))
    doc["heading_osc"] = [entry]
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert msg.startswith("heading_osc must list [amp_deg, period_s")


@pytest.mark.parametrize("field, value", [("duration", "forty"), ("lat", None), ("seed", "x"),
                                          ("heading_osc", [["big", 35.0, 0.0]])])
def test_simulate_config_rejects_non_numeric_value(scenario_file, tmp_path, capsys, field, value):
    doc = json.load(open(scenario_file))
    doc[field] = value
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert "must be a number" in msg


@pytest.mark.parametrize("name", ["config", "sensors"])
def test_simulate_rejects_malformed_json(scenario_file, tmp_path, capsys, name):
    paths = {"config": scenario_file, "sensors": "none"}
    paths[name] = _json_file(tmp_path, "bad.json", '{"name": "dock", "duration": 40.0,')
    assert _simulate_fails(tmp_path, capsys, **paths).startswith("malformed JSON in ")


@pytest.mark.parametrize("doc", ["5", '{"scenarios": 5}', '["dock"]'])
def test_simulate_config_rejects_non_scenario_json(tmp_path, capsys, doc):
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert "scenario" in msg


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "lots", -1.0])
def test_simulate_sensors_rejects_bad_value(scenario_file, tmp_path, capsys, value):
    sensors = _json_file(tmp_path, "sensors.json", {"gyro_arw": 0.03, "accel_vrw": value})
    msg = _simulate_fails(tmp_path, capsys, scenario_file, sensors)
    assert msg.startswith("accel_vrw must be ")


def test_simulate_sensors_rejects_unknown_field(scenario_file, tmp_path, capsys):
    sensors = _json_file(tmp_path, "sensors.json", {"gyro_arw": 0.03, "gyro_drift": 0.1})
    msg = _simulate_fails(tmp_path, capsys, scenario_file, sensors)
    assert msg.startswith("unknown sensor field(s) ['gyro_drift']")


def test_simulate_accepts_a_sensor_file(scenario_file, tmp_path, capsys):
    sensors = _json_file(tmp_path, "sensors.json", {"gyro_arw": 0.03, "accel_vrw": 0.01})
    assert main(["simulate", "--config", scenario_file, "--sensors", sensors,
                 "--out-dir", str(tmp_path / "out")]) == 0
    meta = json.load(open(tmp_path / "out" / "dock" / "meta.json"))
    assert meta["sensors"]["gyro_arw"] == 0.03 and meta["sensors"]["gyro_bias_instability"] == 0.0


def test_unseeded_training_is_refused(data_dir, tmp_path, capsys):
    rc = main(["train", "--variation", "10", "--data", data_dir,
               "--out-dir", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-argument"
    assert doc["message"] == "training requires --seed (reproducibility by default)"


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--variation", "10", "--data", data_dir,
               "--epochs", "2", "--batch", "64",
               "--seed", "5", "--out-dir", out])
    assert rc == 0
    return out


def test_train_writes_checkpoint_and_history(trained_dir):
    ckpt = os.path.join(trained_dir, "headingnet10.ckpt")
    model = load_checkpoint(ckpt)
    assert model.config.t_align == 10.0
    lines = open(os.path.join(trained_dir, "headingnet10_history.csv")).read().splitlines()
    assert lines[0] == "epoch,lr,train_loss"
    assert len(lines) == 3
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]
    assert all(np.isfinite(float(row.split(",")[2])) for row in lines[1:])


def test_evaluate_json_format_writes_report_only(data_dir, trained_dir, tmp_path, capsys):
    out = str(tmp_path)
    rc = main(["evaluate", "--data", data_dir, "--methods", "I-OBA,A-OBA",
               "--t-aligns", "10",
               "--checkpoint", os.path.join(trained_dir, "headingnet10.ckpt"),
               "--format", "json", "--out-dir", out])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["eval_report.json"]
    doc = json.load(open(os.path.join(out, "eval_report.json")))
    methods = {r["method"] for r in doc["rows"]}
    assert methods == {"I-OBA", "A-OBA", "HeadingNet10"}
    assert len(doc["improvements"]) == 1


@pytest.mark.parametrize("t_aligns", ["nan", "inf"])
def test_evaluate_neural_only_rejects_bad_window_length(data_dir, trained_dir, tmp_path, capsys, t_aligns):
    rc = main(["evaluate", "--data", data_dir, "--methods", "HeadingNet10",
               "--t-aligns", t_aligns,
               "--checkpoint", os.path.join(trained_dir, "headingnet10.ckpt"),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"


@pytest.fixture(scope="module")
def eval_dir(data_dir, trained_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("eval"))
    rc = main(["evaluate", "--data", data_dir, "--methods", "I-DVA,I-OBA",
               "--t-aligns", "10,30",
               "--checkpoint", os.path.join(trained_dir, "headingnet10.ckpt"),
               "--out-dir", out])
    assert rc == 0
    return out


def test_evaluate_csv_format_writes_tables(eval_dir):
    names = sorted(os.listdir(eval_dir))
    assert names == ["eval_averages.csv", "eval_improvements.csv",
                     "eval_report.json", "eval_rows.csv"]
    rows = open(os.path.join(eval_dir, "eval_rows.csv")).read().splitlines()
    assert rows[0] == "method,t_align,recording,mean_ae_deg,windows"
    # one recording: I-DVA and I-OBA at both times, the net only at 10 s
    assert len(rows) == 1 + 5


def test_report_renders_tables_and_plot_data(eval_dir, capsys):
    rc = main(["report", "--out-dir", eval_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean AE (deg) per method" in out
    assert "improvement of the neural variant" in out
    fig1 = open(os.path.join(eval_dir, "fig_ae_vs_talign.csv")).read().splitlines()
    assert fig1[0] == "t_align,HeadingNet10,I-DVA,I-OBA"
    assert len(fig1) == 3  # 10 s and 30 s
    fig2 = open(os.path.join(eval_dir, "fig_improvement.csv")).read().splitlines()
    assert fig2[0] == "t_align,best_baseline_name,best_ae,nn_ae,improvement_pct"


def test_report_empty_method_filter_is_an_error(eval_dir, capsys):
    rc = main(["report", "--out-dir", eval_dir, "--methods", ""])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"


def test_report_unknown_method_filter_is_an_error(eval_dir, capsys):
    rc = main(["report", "--out-dir", eval_dir, "--methods", "nope"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert "no requested method" in doc["message"]


def test_global_flags_valid_in_both_positions(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--seed", "3", "simulate", "--sensors", "none",
                 "--duration", "30", "--out-dir", a]) == 0
    assert main(["simulate", "--sensors", "none", "--duration", "30",
                 "--seed", "3", "--out-dir", b]) == 0
    capsys.readouterr()
    for name in sorted(os.listdir(a)):
        for fname in ("imu.csv", "aid.csv", "truth.csv", "meta.json"):
            assert filecmp.cmp(os.path.join(a, name, fname),
                               os.path.join(b, name, fname), shallow=False)
