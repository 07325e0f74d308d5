"""The field check table shared by every serialised record."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from headalign.errors import InvalidArgumentError
from headalign.fields import CHECKS
from headalign.harness import _REPORT_FIELDS
from headalign.nn.model import _MANIFEST_FIELDS, HeadingNetConfig
from headalign.nn.train import TrainConfig, default_train_config
from headalign.simulate import NOISE_FREE, Oscillation, ScenarioConfig, SensorSpec, simulate_recording

RECORDS = (Oscillation, ScenarioConfig, SensorSpec, HeadingNetConfig, TrainConfig)


def test_every_field_annotation_has_a_check():
    """A new field cannot skip the check: its annotation must be a key of
    the table, or building or reading the record raises ``KeyError``."""
    used = {f.type for cls in RECORDS for f in fields(cls)}
    used |= {kind for kinds in [*_REPORT_FIELDS.values(), _MANIFEST_FIELDS] for kind in kinds.values()}
    assert used <= CHECKS.keys(), sorted(used - CHECKS.keys())


def test_int_given_to_a_float_field_is_stored_as_float():
    """Stored floats keep ``to_dict``, and with it ``meta.json``, byte-identical."""
    ints = ScenarioConfig(name="dock", duration=4, lat=0, lon=0, psi0=1, heading_osc=[[2, 35]],
                          imu_rate=100, aid_rate=5, seed=np.int64(3))
    floats = ScenarioConfig(name="dock", duration=4.0, lat=0.0, lon=0.0, psi0=1.0,
                            heading_osc=[[2.0, 35.0, 0.0]], imu_rate=100.0, aid_rate=5.0, seed=3)
    assert type(ints.duration) is float and type(ints.heading_osc[0].amp_deg) is float
    assert type(ints.seed) is int
    assert json.dumps(ints.to_dict()) == json.dumps(floats.to_dict())
    sensors = SensorSpec(gyro_arw=1, accel_bias=np.float32(0.5))
    assert type(sensors.gyro_arw) is float and type(sensors.accel_bias) is float
    meta = [json.dumps(simulate_recording(cfg, sensors).meta, sort_keys=True) for cfg in (ints, floats)]
    assert meta[0] == meta[1]
    cfg = default_train_config(10, seed=0, lr=1, betas=(0, 0))
    assert type(cfg.lr) is float and cfg.betas == (0.0, 0.0) and type(cfg.betas[1]) is float
    assert type(NOISE_FREE.gyro_arw) is float


@pytest.mark.parametrize("kind, value, message", [
    ("float", True, "x must be a number, got True"),
    ("float", np.bool_(True), "x must be a number, got np.True_"),
    ("float", "1", "x must be a number, got '1'"),
    ("float", None, "x must be a number, got None"),
    ("float", float("-inf"), "x must be finite, got -inf"),
    ("int", False, "x must be an integer, got False"),
    ("int", 2.0, "x must be an integer, got 2.0"),
    ("bool", 1, "x must be true or false, got 1"),
    ("str", b"s", "x must be a string, got b's'"),
    ("tuple[int, int]", "ab", "x must be a list of 2 entries, got 'ab'"),
    ("tuple[int, int]", [1, 2, 3], "x must be a list of 2 entries, got [1, 2, 3]"),
    ("tuple[int, ...]", 3, "x must be a list, got 3"),
    ("tuple[float, ...]", [0.5, "1"], "x[1] must be a number, got '1'"),
    ("tuple[int, int] | None", [1, True], "x[1] must be an integer, got True"),
    ("tuple[float, float]", (0.5, float("nan")), "x[1] must be finite, got nan"),
    ("tuple[Oscillation, ...]", [[1.0]], "x must list [amp_deg, period_s(, phase_rad)] entries, got [[1.0]]"),
    ("tuple[Oscillation, ...]", [[1.0, 0.0]], "x: oscillation period must be > 0, got 0.0"),
])
def test_check_rejects_with_the_field_name(kind, value, message):
    with pytest.raises(InvalidArgumentError) as exc:
        CHECKS[kind]("x", value)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, value, stored", [
    ("float", np.float32(0.5), 0.5),
    ("float", 3, 3.0),
    ("int", np.int64(7), 7),
    ("tuple[int, int]", [2, np.int32(3)], (2, 3)),
    ("tuple[int, int] | None", None, None),
    ("tuple[float, float]", [1, 0.5], (1.0, 0.5)),
    ("tuple[int, ...]", [], ()),
    ("tuple[float, ...]", [1, np.float32(0.5), 2.0], (1.0, 0.5, 2.0)),
    ("tuple[Oscillation, ...]", [[1, 2]], (Oscillation(1.0, 2.0, 0.0),)),
])
def test_check_stores_builtin_types(kind, value, stored):
    got = CHECKS[kind]("x", value)
    assert repr(got) == repr(stored)  # numpy scalars repr as np.float32(...), np.int64(...)
