from __future__ import annotations

import filecmp
import json
import os

import numpy as np
import pytest

from headalign.errors import InsufficientDataError, InvalidArgumentError, RecordingFormatError
from headalign.recording import (
    Recording,
    TruthTrack,
    _write_csv,
    read_recording,
    write_recording,
)
from headalign.simulate import DEFAULT_SENSORS, ScenarioConfig, simulate_recording
from headalign.strapdown import AidData, ImuData


@pytest.fixture(scope="module")
def rec():
    cfg = ScenarioConfig(
        name="io-check",
        duration=12.0,
        lat=0.5,
        lon=0.61,
        psi0=1.9,
        heading_osc=((2.0, 35.0, 0.3),),
        roll_osc=((1.0, 8.0, 0.0),),
        pitch_osc=((0.8, 7.0, 0.4),),
        seed=11,
    )
    return simulate_recording(cfg, DEFAULT_SENSORS)


@pytest.fixture()
def rec_dir(rec, tmp_path):
    d = tmp_path / "rec"
    write_recording(rec, str(d))
    return d


def _patch_line(path, lineno, new_line):
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = new_line
    path.write_text("".join(lines))


def test_written_layout(rec_dir):
    assert sorted(os.listdir(rec_dir)) == ["aid.csv", "imu.csv", "meta.json", "truth.csv"]
    head = (rec_dir / "imu.csv").read_text().splitlines()[0]
    assert head == "t,wx,wy,wz,fx,fy,fz"
    assert (rec_dir / "aid.csv").read_text().splitlines()[0] == "t,lat,lon,heading_gt"
    assert (rec_dir / "truth.csv").read_text().splitlines()[0] == "t,roll,pitch,yaw"
    meta = json.loads((rec_dir / "meta.json").read_text())
    assert meta["version"] == "1"
    assert meta["scenario"]["name"] == "io-check"
    assert "sensors" in meta and "seed" in meta


def test_round_trip_is_bit_exact(rec, rec_dir, tmp_path):
    back = read_recording(str(rec_dir))
    np.testing.assert_array_equal(back.imu.t, rec.imu.t)
    np.testing.assert_array_equal(back.imu.omega, rec.imu.omega)
    np.testing.assert_array_equal(back.imu.f, rec.imu.f)
    np.testing.assert_array_equal(back.aid.lat, rec.aid.lat)
    np.testing.assert_array_equal(back.aid.heading_gt, rec.aid.heading_gt)
    np.testing.assert_array_equal(back.truth.euler, rec.truth.euler)
    # write -> read -> write reproduces the files byte for byte
    d2 = tmp_path / "again"
    write_recording(back, str(d2))
    for f in ("imu.csv", "aid.csv", "truth.csv", "meta.json"):
        assert filecmp.cmp(str(rec_dir / f), str(d2 / f), shallow=False), f


def test_aiding_is_subset_of_imu_grid(rec):
    assert np.array_equal(rec.aid.t, rec.imu.t[::20][: len(rec.aid)])


def test_bad_header_cites_line_one(rec_dir):
    _patch_line(rec_dir / "imu.csv", 1, "time,wx,wy,wz,fx,fy,fz\n")
    with pytest.raises(RecordingFormatError, match=r"imu\.csv line 1"):
        read_recording(str(rec_dir))


def test_wrong_field_count_cites_line(rec_dir):
    _patch_line(rec_dir / "aid.csv", 5, "1.0,2.0\n")
    with pytest.raises(RecordingFormatError, match=r"aid\.csv line 5"):
        read_recording(str(rec_dir))


def test_non_numeric_field_cites_line(rec_dir):
    line = (rec_dir / "imu.csv").read_text().splitlines()[6]
    parts = line.split(",")
    parts[3] = "abc"
    _patch_line(rec_dir / "imu.csv", 7, ",".join(parts) + "\n")
    with pytest.raises(RecordingFormatError, match=r"imu\.csv line 7"):
        read_recording(str(rec_dir))


def test_non_increasing_timestamp_cites_line(rec_dir):
    # duplicate the timestamp of data row 4 onto data row 5 (file line 6)
    lines = (rec_dir / "truth.csv").read_text().splitlines()
    parts = lines[5].split(",")
    parts[0] = lines[4].split(",")[0]
    _patch_line(rec_dir / "truth.csv", 6, ",".join(parts) + "\n")
    with pytest.raises(RecordingFormatError, match=r"truth\.csv line 6"):
        read_recording(str(rec_dir))


def test_truncated_final_line_is_rejected(rec_dir):
    text = (rec_dir / "imu.csv").read_text()
    (rec_dir / "imu.csv").write_text(text[:-20])
    with pytest.raises(RecordingFormatError, match=r"imu\.csv line"):
        read_recording(str(rec_dir))


def test_missing_file(rec_dir):
    os.remove(rec_dir / "aid.csv")
    with pytest.raises(RecordingFormatError, match=r"aid\.csv"):
        read_recording(str(rec_dir))


def test_unsupported_version(rec_dir):
    meta = json.loads((rec_dir / "meta.json").read_text())
    meta["version"] = "2"
    (rec_dir / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(RecordingFormatError, match="version"):
        read_recording(str(rec_dir))


def test_malformed_meta_json(rec_dir):
    (rec_dir / "meta.json").write_text('{"version": "1",\n')
    with pytest.raises(RecordingFormatError, match=r"meta\.json"):
        read_recording(str(rec_dir))


def test_rate_mismatch_rejected(rec_dir):
    meta = json.loads((rec_dir / "meta.json").read_text())
    meta["scenario"]["imu_rate"] = 200.0
    meta["scenario"]["aid_rate"] = 10.0
    (rec_dir / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(RecordingFormatError, match="spacing"):
        read_recording(str(rec_dir))


def test_aiding_off_grid_rejected(rec_dir):
    # shift one aiding timestamp off the IMU grid but keep it monotone
    lines = (rec_dir / "aid.csv").read_text().splitlines()
    parts = lines[3].split(",")
    parts[0] = repr(float(parts[0]) + 0.003)
    _patch_line(rec_dir / "aid.csv", 4, ",".join(parts) + "\n")
    with pytest.raises(RecordingFormatError):
        read_recording(str(rec_dir))


def test_empty_data_rejected(rec_dir):
    (rec_dir / "imu.csv").write_text("t,wx,wy,wz,fx,fy,fz\n")
    with pytest.raises(RecordingFormatError, match="no data rows"):
        read_recording(str(rec_dir))


def test_no_partial_recording_on_error(rec_dir):
    _patch_line(rec_dir / "imu.csv", 2, "oops\n")
    with pytest.raises(RecordingFormatError):
        read_recording(str(rec_dir))


def test_recording_validates_grid_alignment(rec):
    with pytest.raises(InvalidArgumentError, match="start together"):
        Recording(
            imu=rec.imu,
            aid=AidData(rec.aid.t + 0.2, rec.aid.lat, rec.aid.lon, rec.aid.heading_gt),
            truth=rec.truth,
            meta=rec.meta,
        )
    with pytest.raises(InvalidArgumentError, match="IMU time grid"):
        Recording(
            imu=rec.imu,
            aid=rec.aid,
            truth=TruthTrack(rec.truth.t[:-1], rec.truth.euler[:-1]),
            meta=rec.meta,
        )


def test_slice_window_keeps_grid(rec):
    sub = rec.slice_window(2.0, 8.0)
    assert sub.imu.t[0] == pytest.approx(2.0, abs=1e-12)
    assert sub.imu.t[-1] == pytest.approx(8.0, abs=1e-12)
    assert sub.duration == pytest.approx(6.0, abs=1e-12)
    assert len(sub.truth) == len(sub.imu)
    assert sub.meta is rec.meta


def test_rate_tolerance_violation_detected(rec, rec_dir):
    # nudge one IMU timestamp by 2 us: rate check must flag it
    lines = (rec_dir / "imu.csv").read_text().splitlines()
    parts = lines[10].split(",")
    parts[0] = repr(float(parts[0]) + 2e-6)
    _patch_line(rec_dir / "imu.csv", 11, ",".join(parts) + "\n")
    with pytest.raises(RecordingFormatError):
        read_recording(str(rec_dir))


def test_csv_writer_matches_repr_digits_on_edge_values(tmp_path):
    # every value is written exactly as f"{v:.17g}" would write it
    edge = [-0.0, 5e-324, np.finfo(float).max, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(4)
    table = np.vstack([np.array(edge).reshape(2, 3), rng.normal(size=(10, 3)) * 1e3])
    path = tmp_path / "t.csv"
    _write_csv(str(path), "a,b,c", table)
    expected = ["a,b,c"] + [",".join(f"{v:.17g}" for v in row) for row in table]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_truth_track_rejects_non_finite(rec):
    euler = rec.truth.euler.copy()
    euler[3, 2] = np.inf
    with pytest.raises(InvalidArgumentError, match="truth euler is not finite at sample 3"):
        TruthTrack(rec.truth.t, euler)


@pytest.mark.parametrize("name, value", [("imu.csv", "nan"), ("aid.csv", "inf"), ("truth.csv", "-inf")])
def test_non_finite_field_is_a_format_error(rec_dir, name, value):
    lines = (rec_dir / name).read_text().splitlines()
    parts = lines[8].split(",")
    parts[-1] = value
    _patch_line(rec_dir / name, 9, ",".join(parts) + "\n")
    with pytest.raises(RecordingFormatError, match="not finite at sample 7"):
        read_recording(str(rec_dir))


def test_empty_streams_are_insufficient_data(rec):
    with pytest.raises(InsufficientDataError):
        rec.slice_window(1000.0, 1010.0)
