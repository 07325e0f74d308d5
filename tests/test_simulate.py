from __future__ import annotations

import numpy as np
import pytest

from headalign.attitude import euler_to_dcm
from headalign.errors import InvalidArgumentError
from headalign.simulate import (
    DEFAULT_SENSORS,
    NOISE_FREE,
    EARTH_RADIUS,
    STANDARD_GRAVITY,
    Oscillation,
    ScenarioConfig,
    SensorSpec,
    scenario_bank,
    simulate_recording,
    simulate_truth,
    synthesize_imu,
)
from headalign.strapdown import earth_rate_nav, gravity_nav


def flat_cfg(duration=30.0, **kw):
    """Scenario with no oscillations: the craft sits still."""
    base = dict(name="flat", duration=duration, lat=0.6, lon=0.1, psi0=0.8, seed=3)
    base.update(kw)
    return ScenarioConfig(**base)


def wavy_cfg(duration=60.0, seed=3):
    return ScenarioConfig(
        name="wavy",
        duration=duration,
        lat=np.deg2rad(32.5),
        lon=0.2,
        psi0=np.deg2rad(140.0),
        heading_osc=((2.0, 35.0, 0.3), (0.8, 90.0, 1.1)),
        roll_osc=((1.5, 8.0, 0.0),),
        pitch_osc=((1.2, 7.0, 0.4),),
        seed=seed,
    )


class TestTruth:
    def test_static_scenario_closure(self):
        truth = simulate_truth(flat_cfg())
        C0 = euler_to_dcm(0.8, 0.0, 0.0)
        assert np.max(np.abs(truth.c_nb - C0)) < 1e-15
        # gyro sees exactly the Earth rate in body axes, accel the gravity reaction
        w_b = C0.T @ earth_rate_nav(0.6)
        f_b = -C0.T @ gravity_nav(0.6)
        np.testing.assert_allclose(truth.omega_b, np.tile(w_b, (len(truth.t), 1)), atol=1e-18)
        np.testing.assert_allclose(truth.f_b, np.tile(f_b, (len(truth.t), 1)), atol=1e-12)

    def test_sample_grid(self):
        truth = simulate_truth(flat_cfg(duration=130.0))
        assert truth.t.size == 13000
        assert truth.t[0] == 0.0
        assert truth.t[-1] == pytest.approx(129.99, abs=1e-12)
        np.testing.assert_allclose(np.diff(truth.t), 0.01, atol=1e-12)

    def test_heading_series_is_sum_of_sinusoids(self):
        cfg = wavy_cfg()
        truth = simulate_truth(cfg)
        t = truth.t
        expected = np.full_like(t, cfg.psi0)
        for o in cfg.heading_osc:
            expected += np.radians(o.amp_deg) * np.sin(2 * np.pi / o.period_s * t + o.phase_rad)
        np.testing.assert_allclose(truth.heading, expected, atol=1e-14)

    def test_specific_force_norm_equals_gravity(self):
        cfg = wavy_cfg()
        truth = simulate_truth(cfg)
        g = gravity_nav(cfg.lat)[2]
        np.testing.assert_allclose(np.linalg.norm(truth.f_b, axis=1), g, rtol=1e-14)

    def test_c_nb_matches_euler_rowwise(self):
        truth = simulate_truth(wavy_cfg(duration=5.0))
        for k in (0, 117, 499):
            e = truth.euler[k]
            np.testing.assert_allclose(truth.c_nb[k], euler_to_dcm(e[2], e[1], e[0]), atol=1e-15)


class TestSensorSynthesis:
    def test_noise_free_is_exact(self):
        cfg = wavy_cfg()
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, NOISE_FREE)
        np.testing.assert_array_equal(rec.imu.omega, truth.omega_b)
        np.testing.assert_array_equal(rec.imu.f, truth.f_b)
        np.testing.assert_array_equal(rec.aid.heading_gt, truth.heading[::20])
        np.testing.assert_array_equal(rec.aid.lat, np.full(len(rec.aid), cfg.lat))

    def test_gyro_white_noise_sigma(self):
        # random-walk spec to per-sample sigma: (arw / 60) * sqrt(rate)
        cfg = flat_cfg(duration=1000.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(gyro_arw=0.032), seed=5)
        resid = rec.imu.omega - truth.omega_b
        target = np.radians(0.032 / 60.0) * np.sqrt(100.0)
        assert np.degrees(target) == pytest.approx(5.3333e-3, rel=1e-4)
        for axis in range(3):
            assert resid[:, axis].std() == pytest.approx(target, rel=0.02)
            assert abs(resid[:, axis].mean()) < 5.0 * target / np.sqrt(resid.shape[0])

    def test_accel_white_noise_sigma(self):
        cfg = flat_cfg(duration=1000.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(accel_vrw=0.012), seed=5)
        resid = rec.imu.f - truth.f_b
        target = 0.012 / 60.0 * np.sqrt(100.0)
        for axis in range(3):
            assert resid[:, axis].std() == pytest.approx(target, rel=0.02)

    def test_white_noise_averaging_follows_root_k(self):
        # variance of K-sample cluster means shrinks as 1/K for white noise
        cfg = flat_cfg(duration=1000.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(gyro_arw=0.032), seed=6)
        resid = (rec.imu.omega - truth.omega_b)[:, 0]
        sigma = np.radians(0.032 / 60.0) * np.sqrt(100.0)
        k = 100
        clusters = resid[: resid.size // k * k].reshape(-1, k).mean(axis=1)
        assert clusters.std() == pytest.approx(sigma / np.sqrt(k), rel=0.05)

    def test_gyro_bias_is_constant_and_bounded(self):
        cfg = flat_cfg(duration=20.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(gyro_bias_instability=0.02), seed=7)
        resid = rec.imu.omega - truth.omega_b
        bound = np.radians(0.02)
        for axis in range(3):
            vals = np.unique(resid[:, axis])
            assert vals.size == 1  # constant over the run
            assert abs(vals[0]) <= bound
        # a different seed draws a different bias
        rec2 = synthesize_imu(truth, cfg, SensorSpec(gyro_bias_instability=0.02), seed=8)
        assert not np.array_equal(rec2.imu.omega, rec.imu.omega)

    def test_accel_bias_microgravity_unit(self):
        cfg = flat_cfg(duration=20.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(accel_bias=1000.0), seed=9)
        resid = rec.imu.f - truth.f_b
        bound = 1000.0 * 1e-6 * STANDARD_GRAVITY
        assert bound == pytest.approx(9.80665e-3, abs=1e-18)
        for axis in range(3):
            vals = np.unique(resid[:, axis])
            assert vals.size == 1 and abs(vals[0]) <= bound

    def test_gnss_noise_models(self):
        cfg = flat_cfg(duration=4000.0, aid_rate=5.0)
        truth = simulate_truth(cfg)
        spec = SensorSpec(gnss_heading_sigma=0.09, gnss_pos_sigma=0.008)
        rec = synthesize_imu(truth, cfg, spec, seed=10)
        dh = rec.aid.heading_gt - truth.heading[::20]
        assert dh.std() == pytest.approx(np.radians(0.09), rel=0.05)
        dlat = rec.aid.lat - cfg.lat
        assert dlat.std() == pytest.approx(0.008 / EARTH_RADIUS, rel=0.05)
        assert not np.array_equal(rec.aid.lon, np.full(len(rec.aid), cfg.lon))

    def test_heading_label_is_wrapped(self):
        cfg = flat_cfg(psi0=np.pi - 1e-4)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(gnss_heading_sigma=5.0), seed=11)
        assert np.all(rec.aid.heading_gt <= np.pi)
        assert np.all(rec.aid.heading_gt > -np.pi)

    def test_same_seed_bit_identical(self):
        cfg = wavy_cfg()
        a = simulate_recording(cfg, DEFAULT_SENSORS)
        b = simulate_recording(cfg, DEFAULT_SENSORS)
        np.testing.assert_array_equal(a.imu.omega, b.imu.omega)
        np.testing.assert_array_equal(a.imu.f, b.imu.f)
        np.testing.assert_array_equal(a.aid.heading_gt, b.aid.heading_gt)
        assert a.meta == b.meta

    def test_seed_override_wins_over_config_seed(self):
        cfg = wavy_cfg(seed=3)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, DEFAULT_SENSORS, seed=77)
        assert rec.meta["seed"] == 77
        direct = simulate_recording(cfg, DEFAULT_SENSORS, seed=77)
        np.testing.assert_array_equal(rec.imu.omega, direct.imu.omega)

    def test_axes_get_independent_streams(self):
        cfg = flat_cfg(duration=50.0)
        truth = simulate_truth(cfg)
        rec = synthesize_imu(truth, cfg, SensorSpec(gyro_arw=0.1), seed=12)
        resid = rec.imu.omega - truth.omega_b
        r01 = np.corrcoef(resid[:, 0], resid[:, 1])[0, 1]
        r02 = np.corrcoef(resid[:, 0], resid[:, 2])[0, 1]
        assert abs(r01) < 0.05 and abs(r02) < 0.05


class TestConfigs:
    def test_scenario_round_trip(self):
        cfg = wavy_cfg()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_sensor_round_trip(self):
        assert SensorSpec.from_dict(DEFAULT_SENSORS.to_dict()) == DEFAULT_SENSORS

    def test_rate_ratio_must_be_integer(self):
        with pytest.raises(InvalidArgumentError):
            flat_cfg(imu_rate=100.0, aid_rate=3.0)

    def test_negative_sensor_value_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SensorSpec(gyro_arw=-0.1)

    def test_oscillation_validation(self):
        with pytest.raises(InvalidArgumentError):
            Oscillation(1.0, 0.0)

    def test_bad_latitude_rejected(self):
        with pytest.raises(InvalidArgumentError):
            flat_cfg(lat=2.0)

    @pytest.mark.parametrize("field, value, message", [
        ("duration", True, "duration must be a number, got True"),
        ("psi0", "0.3", "psi0 must be a number, got '0.3'"),
        ("seed", 2.5, "seed must be an integer, got 2.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("name", 5, "name must be a string, got 5"),
        ("heading_osc", [[True, 35]], "heading_osc: amp_deg must be a number, got True"),
        ("roll_osc", [[1.0, "8"]], "roll_osc: period_s must be a number, got '8'"),
    ])
    def test_scenario_field_of_wrong_type_rejected(self, field, value, message):
        d = wavy_cfg().to_dict() | {field: value}
        with pytest.raises(InvalidArgumentError) as exc:
            ScenarioConfig.from_dict(d)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("gyro_arw", True, "gyro_arw must be a number, got True"),
        ("gyro_arw", "5", "gyro_arw must be a number, got '5'"),
        ("accel_bias", "5", "accel_bias must be a number, got '5'"),
    ])
    def test_sensor_field_of_wrong_type_rejected(self, field, value, message):
        with pytest.raises(InvalidArgumentError) as exc:
            SensorSpec.from_dict(DEFAULT_SENSORS.to_dict() | {field: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("d, message", [
        ({"name": "a", "duration": 1.0}, "missing scenario field(s) ['lat', 'lon', 'psi0']"),
        (["a"], "scenario fields must be an object, got ['a']"),
    ])
    def test_scenario_record_shape_rejected(self, d, message):
        with pytest.raises(InvalidArgumentError) as exc:
            ScenarioConfig.from_dict(d)
        assert str(exc.value) == message


class TestScenarioBank:
    def test_bank_shape(self):
        bank = scenario_bank(42)
        assert [c.name for c in bank] == ["S1", "S2", "S3", "S4", "S5"]
        assert all(c.duration == 420.0 for c in bank)
        seeds = [c.seed for c in bank]
        assert len(set(seeds)) == 5
        psis = [c.psi0 for c in bank]
        assert len(set(np.round(np.degrees(psis), 3))) == 5

    def test_bank_seed_changes_draws(self):
        a = scenario_bank(1)
        b = scenario_bank(2)
        assert [c.seed for c in a] != [c.seed for c in b]
        # scenario geometry itself is seed-independent
        assert a[0].psi0 == b[0].psi0

    def test_s5_has_largest_heading_variance(self):
        bank = scenario_bank(0)
        var = [sum(o.amp_deg**2 / 2 for o in c.heading_osc) for c in bank]
        assert np.argmax(var) == 4

    def test_duration_and_latitude_overrides(self):
        bank = scenario_bank(0, duration=60.0, lat0=np.deg2rad(10.0))
        assert all(c.duration == 60.0 for c in bank)
        assert all(c.lat == pytest.approx(np.deg2rad(10.0)) for c in bank)
