from __future__ import annotations

import numpy as np
import pytest

from headalign.attitude import dcm_to_rotvec, rotvec_to_dcm
from headalign.errors import (
    AlignmentWindowError,
    InsufficientDataError,
    InvalidArgumentError,
)
from headalign.simulate import DEFAULT_SENSORS, scenario_bank, simulate_recording, simulate_truth
from headalign.strapdown import (
    EARTH_RATE,
    AidData,
    ImuData,
    earth_rate_nav,
    gravity_nav,
    integrate_body_frame,
    integrate_nav_frame,
    observation_instantaneous,
    observation_integrated,
)


def test_earth_rate_components():
    np.testing.assert_allclose(earth_rate_nav(0.0), [EARTH_RATE, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(
        earth_rate_nav(np.pi / 2), [0.0, 0.0, -EARTH_RATE], atol=1e-20
    )
    lat = np.deg2rad(32.5)
    w = earth_rate_nav(lat)
    assert w[1] == 0.0
    assert w[0] == pytest.approx(EARTH_RATE * np.cos(lat), rel=1e-15)
    assert w[2] == pytest.approx(-EARTH_RATE * np.sin(lat), rel=1e-15)


def test_earth_rate_rejects_bad_latitude():
    with pytest.raises(InvalidArgumentError):
        earth_rate_nav(2.0)
    with pytest.raises(InvalidArgumentError):
        earth_rate_nav(np.nan)
    for f in (earth_rate_nav, gravity_nav):
        with pytest.raises(InvalidArgumentError):
            f(np.array([0.1, 0.2, np.inf]))
        with pytest.raises(InvalidArgumentError):
            f(np.array([[0.1, -1.6]]))


def test_reference_models_batch_equal_scalar_calls_exactly():
    lat = np.deg2rad(np.linspace(-90.0, 90.0, 37)).reshape(37, 1)
    for f in (earth_rate_nav, gravity_nav):
        batch = f(lat)
        assert batch.shape == (37, 1, 3)
        for k in range(37):
            np.testing.assert_array_equal(batch[k, 0], f(float(lat[k, 0])))


def test_gravity_model_reference_values():
    # closed-form values of the normal-gravity model at the equator and pole
    g_eq = 9.7803253359
    g_pole = g_eq * (1.0 + 0.00193185265241) / np.sqrt(1.0 - 0.00669437999013)
    assert gravity_nav(0.0)[2] == pytest.approx(g_eq, abs=1e-12)
    assert gravity_nav(np.pi / 2)[2] == pytest.approx(g_pole, abs=1e-12)
    # down-positive, zero horizontal components
    g = gravity_nav(np.deg2rad(32.5))
    assert g[0] == 0.0 and g[1] == 0.0
    assert g_eq < g[2] < g_pole
    # increases monotonically toward the pole
    lats = np.deg2rad(np.linspace(0.0, 90.0, 19))
    vals = [gravity_nav(float(l))[2] for l in lats]
    assert np.all(np.diff(vals) > 0)


def test_integrate_body_frame_constant_rate_closed_form():
    # constant omega about one axis has the exact solution C(t) = exp(skew(w t))
    w = np.deg2rad(7.0)
    t = np.arange(1001) / 100.0
    omega = np.tile([0.0, 0.0, w], (t.size, 1))
    track = integrate_body_frame(t, omega)
    np.testing.assert_array_equal(track[0], np.eye(3))
    for k in (1, 500, 1000):
        exact = rotvec_to_dcm([0.0, 0.0, w * t[k]])
        err = np.linalg.norm(dcm_to_rotvec(exact.T @ track[k]))
        assert err < 1e-12


def test_integrate_body_frame_coning_drift_matches_solid_angle():
    # a cone of half-angle a at frequency Om produces a net rotation about
    # the cone axis at the analytic rate a^2 Om / 2; an integrator that
    # ignores rate non-commutativity reports zero here.
    a, om = 0.01, 2.0 * np.pi
    t = np.arange(2001) / 100.0  # 20 whole periods
    omega = np.column_stack(
        [a * om * np.cos(om * t), a * om * np.sin(om * t), np.zeros_like(t)]
    )
    rv = dcm_to_rotvec(integrate_body_frame(t, omega)[-1])
    expected = a * a * om / 2.0 * t[-1]
    assert rv[2] == pytest.approx(expected, rel=0.05)


def test_integrate_body_frame_coning_correction_beats_plain_chaining():
    # reference: same integrator at 100x the rate, where step errors vanish
    a, om, T = 0.01, 2.0 * np.pi, 20.0
    t_hi = np.arange(int(T * 10000) + 1) / 10000.0
    t_lo = np.arange(int(T * 100) + 1) / 100.0

    def rates(t):
        return np.column_stack(
            [a * om * np.cos(om * t), a * om * np.sin(om * t), np.zeros_like(t)]
        )

    ref = integrate_body_frame(t_hi, rates(t_hi))[-1]
    corrected = integrate_body_frame(t_lo, rates(t_lo))[-1]

    # plain chaining oracle: trapezoid increments, no cross-product term
    omega = rates(t_lo)
    dtheta = 0.5 * (omega[:-1] + omega[1:]) * np.diff(t_lo)[:, None]
    C = np.eye(3)
    for k in range(dtheta.shape[0]):
        C = C @ rotvec_to_dcm(dtheta[k])
    err_corr = np.linalg.norm(dcm_to_rotvec(ref.T @ corrected))
    err_plain = np.linalg.norm(dcm_to_rotvec(ref.T @ C))
    assert err_corr < 1e-5
    assert err_plain / err_corr > 1.5


@pytest.mark.parametrize("n", [2, 3, 1000, 1001, 12000])
def test_integrate_body_frame_matches_sequential_chaining(n):
    # oracle: the same per-step rotations multiplied one step at a time
    rng = np.random.default_rng(n)
    t = np.arange(n) / 100.0
    omega = rng.normal(0.0, 0.05, (n, 3)) + [0.01, -0.02, 0.1]
    dtheta = 0.5 * (omega[:-1] + omega[1:]) * np.diff(t)[:, None]
    dphi = dtheta.copy()
    dphi[1:] += np.cross(dtheta[:-1], dtheta[1:]) / 12.0
    track = integrate_body_frame(t, omega)
    assert track.shape == (n, 3, 3)
    np.testing.assert_array_equal(track[0], np.eye(3))
    C = np.eye(3)
    worst = 0.0
    for k in range(n - 1):
        C = C @ rotvec_to_dcm(dphi[k])
        worst = max(worst, float(np.max(np.abs(track[k + 1] - C))))
    assert worst < 1e-12  # measured 1.9e-14 at 12,000 samples


def test_frame_tracks_stay_orthonormal_without_renormalisation():
    # 420 s of noisy gyro data at 100 Hz: the scan never re-orthonormalises,
    # so rounding in the products must stay far below the 1e-12 budget
    cfg = scenario_bank(42)[0]
    rec = simulate_recording(cfg, DEFAULT_SENSORS)
    assert len(rec.imu) == 42000
    for track in (integrate_body_frame(rec.imu.t, rec.imu.omega),
                  integrate_nav_frame(rec.aid.t, rec.aid.lat)):
        ctc = np.einsum("kji,kjl->kil", track, track)
        assert np.max(np.abs(ctc - np.eye(3))) < 1e-12  # measured 2.1e-13 body, 3.1e-13 nav


def test_integrate_body_frame_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        integrate_body_frame([0.0], [[0.0, 0.0, 0.0]])


def test_integrate_nav_frame_closed_form_and_zero_hook():
    lat = np.deg2rad(32.5)
    t = np.arange(0.0, 120.2, 0.2)
    track = integrate_nav_frame(t, np.full(t.size, lat))
    w_n = earth_rate_nav(lat)
    exact = rotvec_to_dcm(w_n * t[-1])
    assert np.linalg.norm(dcm_to_rotvec(exact.T @ track[-1])) < 1e-12

    frozen = integrate_nav_frame(t, np.full(t.size, lat), omega=0.0)
    assert np.allclose(frozen, np.eye(3), atol=0)


def test_truth_track_finite_difference_reproduces_body_rate(gentle_scenario):
    # midpoint finite difference of C^n_b recovers omega_nb; the emitted
    # gyro signal additionally carries the Earth rate seen in body axes
    truth = simulate_truth(gentle_scenario)
    C, t = truth.c_nb, truth.t
    w_n = earth_rate_nav(gentle_scenario.lat)
    omega_nb = truth.omega_b - np.einsum("kji,j->ki", C, w_n)
    worst = 0.0
    for k in range(0, t.size - 1, 97):
        rv = dcm_to_rotvec(C[k].T @ C[k + 1]) / (t[k + 1] - t[k])
        mid = 0.5 * (omega_nb[k] + omega_nb[k + 1])
        worst = max(worst, float(np.max(np.abs(rv - mid))))
    assert worst < 1e-6


@pytest.fixture()
def small_streams(clean_recording):
    rec = clean_recording.slice_window(0.0, 30.0)
    body = integrate_body_frame(rec.imu.t, rec.imu.omega)
    nav = integrate_nav_frame(rec.aid.t, rec.aid.lat)
    return rec, body, nav


def test_observation_instantaneous_norms_match_gravity(small_streams):
    rec, body, nav = small_streams
    obs = observation_instantaneous(rec.imu, rec.aid, body, nav)
    assert obs.form == "instantaneous"
    g = gravity_nav(rec.aid.lat[0])[2]
    np.testing.assert_allclose(np.linalg.norm(obs.u_b0, axis=1), g, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(obs.u_n0, axis=1), g, rtol=1e-12)
    # first nav-frame sample is gravity itself (frame track starts at identity)
    np.testing.assert_allclose(obs.u_n0[0], [0.0, 0.0, g], atol=1e-15)


def test_observation_integrated_starts_at_zero_and_matches_norms(small_streams):
    rec, body, nav = small_streams
    obs = observation_integrated(rec.imu, rec.aid, body, nav)
    assert obs.form == "integrated"
    np.testing.assert_array_equal(obs.u_b0[0], np.zeros(3))
    np.testing.assert_array_equal(obs.u_n0[0], np.zeros(3))
    # both frames see the same vector through a rotation: norms agree
    nb = np.linalg.norm(obs.u_b0[1:], axis=1)
    nn = np.linalg.norm(obs.u_n0[1:], axis=1)
    np.testing.assert_allclose(nb, nn, rtol=1e-5)
    # magnitude grows like g * t for a quasi-stationary craft
    g = gravity_nav(rec.aid.lat[0])[2]
    np.testing.assert_allclose(nn, g * obs.times[1:], rtol=1e-4)


def test_observation_series_lengths_match_aiding(small_streams):
    rec, body, nav = small_streams
    for fn in (observation_integrated, observation_instantaneous):
        obs = fn(rec.imu, rec.aid, body, nav)
        assert len(obs) == len(rec.aid)
        np.testing.assert_array_equal(obs.times, rec.aid.t)


def test_observation_rejects_track_length_mismatch(small_streams):
    rec, body, nav = small_streams
    with pytest.raises(AlignmentWindowError):
        observation_integrated(rec.imu, rec.aid, body[:-1], nav)
    with pytest.raises(AlignmentWindowError):
        observation_instantaneous(rec.imu, rec.aid, body, nav[:-1])


def test_pairing_rejects_uncovered_aiding_range(small_streams):
    rec, body, nav = small_streams
    late = AidData(
        rec.aid.t + 1000.0, rec.aid.lat, rec.aid.lon, rec.aid.heading_gt
    )
    with pytest.raises(AlignmentWindowError):
        observation_instantaneous(rec.imu, late, body, nav)


def test_pairing_rejects_excess_skew():
    # aiding at 0.55 s falls 50 ms after the nearest 10 Hz body sample
    t_imu = np.arange(51) / 10.0
    imu = ImuData(t_imu, np.zeros((51, 3)), np.zeros((51, 3)))
    aid = AidData(np.array([0.0, 0.55]), np.zeros(2), np.zeros(2), np.zeros(2))
    body = integrate_body_frame(imu.t, imu.omega)
    nav = integrate_nav_frame(aid.t, aid.lat)
    with pytest.raises(AlignmentWindowError):
        observation_instantaneous(imu, aid, body, nav)


def test_imu_data_validation():
    t = np.array([0.0, 0.01, 0.01])
    with pytest.raises(InvalidArgumentError):
        ImuData(t, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError):
        ImuData(np.array([0.0, 0.01]), np.zeros((3, 2)), np.zeros((2, 3)))
    t = np.arange(10) * 0.01
    for bad in (np.nan, np.inf, -np.inf):
        f = np.zeros((10, 3))
        f[7, 1] = bad
        with pytest.raises(InvalidArgumentError, match="IMU f is not finite at sample 7"):
            ImuData(t, np.zeros((10, 3)), f)
    with pytest.raises(InvalidArgumentError, match="IMU t"):
        ImuData(np.array([0.0, np.nan]), np.zeros((2, 3)), np.zeros((2, 3)))


def test_aid_data_validation():
    with pytest.raises(InvalidArgumentError):
        AidData(np.array([0.0, 0.2]), np.array([0.0, 2.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        AidData(np.array([0.2, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))
    for name in ("lat", "lon", "heading_gt"):
        cols = {"lat": np.zeros(3), "lon": np.zeros(3), "heading_gt": np.zeros(3)}
        cols[name][1] = np.nan
        with pytest.raises(InvalidArgumentError, match=f"aiding {name} is not finite at sample 1"):
            AidData(np.array([0.0, 0.2, 0.4]), **cols)
