from __future__ import annotations

import filecmp
import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest

from headalign import cli
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


@pytest.mark.parametrize("flag, message", [
    pytest.param("--methods=I-OBA,A-DVA,I-OBA", "method I-OBA is listed more than once", id="method"),
    pytest.param("--t-aligns=10,30,10", "alignment time 10.0 is listed more than once",
                 id="alignment-time"),
])
def test_evaluate_rejects_repeated_entry(data_dir, tmp_path, capsys, flag, message):
    rc = main(["evaluate", "--data", data_dir, flag, "--out-dir", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "invalid-argument", "message": message}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag, message", [
    pytest.param("--t-aligns=abc", "--t-aligns must be comma-separated numbers", id="not-a-number"),
    pytest.param("--t-aligns=0", "window length must be finite and > 0 s", id="zero"),
    pytest.param("--methods=I-OBA,I-OBA", "method I-OBA is listed more than once", id="repeated"),
    pytest.param("--methods=I-OBA,X-OBA", "method 'X-OBA' is neither classical", id="unknown"),
])
def test_evaluate_checks_arguments_before_reading_data(data_dir, tmp_path, capsys, monkeypatch,
                                                       flag, message):
    reads = []
    monkeypatch.setattr(cli, "read_recording", lambda path: reads.append(path))
    rc = main(["evaluate", "--data", data_dir, flag, "--out-dir", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-argument"
    assert message in doc["message"]
    assert reads == []


def test_evaluate_names_the_cell_of_an_error(data_dir, tmp_path, capsys):
    rc = main(["evaluate", "--data", data_dir, "--t-aligns", "10,1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "invalid-argument",
        "message": "recording dock at t_align=1 s: alignment window must last >= 2 s and hold "
                   ">= 2 aiding samples; a 1 s window holds 5",
    }


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


@pytest.mark.parametrize("field, value, message", [
    pytest.param("duration", "forty", "duration must be a number, got 'forty'", id="duration-forty"),
    pytest.param("lat", None, "lat must be a number, got None", id="lat-None"),
    pytest.param("seed", "x", "seed must be an integer, got 'x'", id="seed-x"),
    pytest.param("heading_osc", [["big", 35.0, 0.0]], "heading_osc: amp_deg must be a number, got 'big'",
                 id="heading_osc-value3"),
])
def test_simulate_config_rejects_non_numeric_value(scenario_file, tmp_path, capsys, field, value, message):
    doc = json.load(open(scenario_file))
    doc[field] = value
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert msg == message


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


def test_simulate_config_rejects_unknown_field(scenario_file, tmp_path, capsys):
    doc = json.load(open(scenario_file))
    doc["heading_oscs"] = doc.pop("heading_osc")  # misspelled: must not be dropped
    msg = _simulate_fails(tmp_path, capsys, _json_file(tmp_path, "bad.json", doc))
    assert msg.startswith("unknown scenario field(s) ['heading_oscs']")


def _one_invalid_argument(rc, capsys) -> str:
    """Assert exit 1 with exactly one ``invalid-argument`` JSON line on stderr; its message."""
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "invalid-argument"
    return err["message"]


@pytest.mark.parametrize("field, value, message", [
    ("duration", True, "duration must be a number, got True"),
    ("psi0", "0.3", "psi0 must be a number, got '0.3'"),
    ("seed", 2.5, "seed must be an integer, got 2.5"),
    ("name", 5, "name must be a string, got 5"),
    ("heading_osc", [[True, 35]], "heading_osc: amp_deg must be a number, got True"),
])
def test_simulate_config_rejects_field_of_wrong_type(scenario_file, tmp_path, capsys, field, value, message):
    config = _json_file(tmp_path, "bad.json", json.load(open(scenario_file)) | {field: value})
    rc = main(["simulate", "--config", config, "--sensors", "none", "--out-dir", str(tmp_path / "out")])
    assert _one_invalid_argument(rc, capsys) == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../esc", "a/b", "a\\b", "a\0b"])
def test_simulate_config_rejects_name_that_is_no_directory(scenario_file, tmp_path, capsys, name):
    config = _json_file(tmp_path, "bad.json", json.load(open(scenario_file)) | {"name": name})
    assert _simulate_fails(tmp_path, capsys, config) == (
        f"name must be a plain directory name, got {name!r}")
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]  # nothing beside --out-dir either


def test_simulate_config_rejects_repeated_name(scenario_file, tmp_path, capsys):
    doc = json.load(open(scenario_file))
    config = _json_file(tmp_path, "bad.json", {"scenarios": [doc, doc | {"seed": 12}]})
    assert _simulate_fails(tmp_path, capsys, config) == "name 'dock' is given to more than one scenario"


@pytest.mark.parametrize("field, value, message", [
    ("gyro_arw", True, "gyro_arw must be a number, got True"),
    ("accel_bias", "5", "accel_bias must be a number, got '5'"),
])
def test_simulate_sensors_rejects_field_of_wrong_type(scenario_file, tmp_path, capsys, field, value, message):
    sensors = _json_file(tmp_path, "sensors.json", {"gyro_arw": 0.03, field: value})
    rc = main(["simulate", "--config", scenario_file, "--sensors", sensors, "--out-dir", str(tmp_path / "out")])
    assert _one_invalid_argument(rc, capsys) == message
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "lr must be finite, got nan"),
    ("--lr", "inf", "lr must be finite, got inf"),
    ("--lr", "-1", "lr must be > 0, got -1.0"),
    ("--lr", "0", "lr must be > 0, got 0.0"),
    ("--loss-scale", "0", "loss_scale must be > 0, got 0.0"),
    ("--loss-scale", "nan", "loss_scale must be finite, got nan"),
    ("--weight-decay", "-0.1", "weight_decay must be >= 0, got -0.1"),
    ("--weight-decay", "inf", "weight_decay must be finite, got inf"),
])
def test_train_rejects_bad_hyperparameter(data_dir, tmp_path, capsys, flag, value, message):
    rc = main(["train", "--variation", "10", "--data", data_dir, "--epochs", "1",
               "--batch", "64", "--seed", "5", flag, value, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "invalid-argument", "message": message}
    assert not (tmp_path / "out").exists()


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


def _with_nan_weight(src: str, dst: str) -> None:
    """Copy checkpoint ``src`` to ``dst`` with its first weight set to NaN
    and the checksum rewritten to match."""
    raw = open(src, "rb").read()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    data = struct.pack("<d", float("nan")) + raw[24 + hlen :]
    header["checksum"] = hashlib.sha256(data).hexdigest()
    hdr = json.dumps(header, sort_keys=True).encode()
    open(dst, "wb").write(raw[:8] + struct.pack("<Q", len(hdr)) + hdr + data)


def test_evaluate_rejects_non_finite_checkpoint(data_dir, trained_dir, tmp_path, capsys):
    bad = str(tmp_path / "nan.ckpt")
    _with_nan_weight(os.path.join(trained_dir, "headingnet10.ckpt"), bad)
    rc = main(["evaluate", "--data", data_dir, "--methods", "HeadingNet10", "--t-aligns", "10",
               "--checkpoint", bad, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "headalign-error", "message": f"{bad}: b1.conv1.W is not finite"}


def test_evaluate_rejects_malformed_checkpoint(data_dir, trained_dir, tmp_path, capsys):
    bad = tmp_path / "list.ckpt"
    hdr = b"[]"
    bad.write_bytes(b"HDGNET1\n" + struct.pack("<Q", len(hdr)) + hdr)
    rc = main(["evaluate", "--data", data_dir, "--methods", "I-OBA", "--t-aligns", "10",
               "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "headalign-error", "message": f"{bad}: checkpoint header is not a JSON object"}


def test_evaluate_rejects_checkpoint_config_without_field(data_dir, trained_dir, tmp_path, capsys):
    raw = open(os.path.join(trained_dir, "headingnet10.ckpt"), "rb").read()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    del header["config"]["k1"]  # the data section and its checksum stay intact
    hdr = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "no_k1.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<Q", len(hdr)) + hdr + raw[16 + hlen :])
    rc = main(["evaluate", "--data", data_dir, "--methods", "HeadingNet10", "--t-aligns", "10",
               "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "headalign-error", "message": f"{bad}: malformed checkpoint: missing config field(s) ['k1']"}


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


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc["averages"][0].pop("t_align"),
     lambda doc: doc["averages"][0].update(mean_ae_deg="0.5")],
    ids=["missing-key", "wrong-type"],
)
def test_report_rejects_malformed_report(eval_dir, tmp_path, capsys, edit):
    doc = json.load(open(os.path.join(eval_dir, "eval_report.json")))
    edit(doc)
    bad = tmp_path / "eval_report.json"
    bad.write_text(json.dumps(doc))
    rc = main(["report", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"
    assert not os.path.exists(tmp_path / "out")


def test_evaluate_non_finite_error_writes_nothing(data_dir, tmp_path, capsys, monkeypatch):
    import headalign.harness as harness

    align = harness.align_heading

    def nan_error(win, method, t_align):
        est = align(win, method, t_align)
        est.ae_deg = float("nan")
        return est

    monkeypatch.setattr(harness, "align_heading", nan_error)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--data", data_dir, "--methods", "I-OBA", "--t-aligns", "10",
               "--out-dir", str(out)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "degenerate-attitude"
    assert "I-OBA at t_align=10 s" in doc["message"] and "recording dock, window 0" in doc["message"]
    assert not os.path.exists(out)
