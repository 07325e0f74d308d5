from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import headalign.harness as harness
from headalign.aligners import AlignMethod, AlignWindow, align_heading
from headalign.errors import InsufficientDataError, InvalidArgumentError
from headalign.harness import evaluate
from headalign.nn.data import _nav_rows, make_windows, window_starts
from headalign.recording import window_grid
from headalign.simulate import NOISE_FREE, Oscillation, ScenarioConfig, simulate_recording
from headalign.strapdown import EARTH_RATE, AidData, earth_rate_nav, gravity_nav


def _rated_recording(imu_rate: float, aid_rate: float):
    """A noise-free 60-s recording at the given rates."""
    cfg = ScenarioConfig(name=f"r{imu_rate:g}-{aid_rate:g}", duration=60.0, lat=0.5, lon=0.6,
                         psi0=1.0, heading_osc=(Oscillation(2.0, 35.0, 0.3),),
                         roll_osc=(Oscillation(1.5, 8.0, 0.0),), imu_rate=imu_rate,
                         aid_rate=aid_rate, seed=5)
    return simulate_recording(cfg, NOISE_FREE)


def test_train_starts_are_one_second_stride():
    starts = window_starts(130.0, 10.0, "train")
    np.testing.assert_array_equal(starts, np.arange(121))


def test_eval_starts_are_non_overlapping():
    np.testing.assert_array_equal(window_starts(120.0, 30.0, "eval"), [0, 30, 60, 90])
    np.testing.assert_array_equal(window_starts(100.0, 30.0, "eval"), [0, 30, 60])
    np.testing.assert_array_equal(window_starts(29.0, 30.0, "eval"), [])


@pytest.mark.parametrize("t_align, starts", [
    pytest.param(10.5, np.arange(10) * 11, id="10.5s"),
    pytest.param(2.4, np.arange(40) * 3, id="2.4s"),
])
def test_eval_starts_for_fractional_window_do_not_overlap(t_align, starts):
    got = window_starts(120.0, t_align, "eval")
    np.testing.assert_array_equal(got, starts)
    np.testing.assert_array_equal(got, np.round(got))  # whole seconds
    assert np.all(np.diff(got) >= t_align)  # no two windows overlap
    assert got[-1] + t_align <= 120.0  # every window ends within the duration


@pytest.mark.parametrize("mode", ["trian", "test", "", "EVAL"])
def test_bad_mode_is_rejected(noisy_recording, mode):
    with pytest.raises(InvalidArgumentError, match="mode must be 'train' or 'eval'"):
        window_starts(20.0, 5.0, mode)
    with pytest.raises(InvalidArgumentError, match="mode must be 'train' or 'eval'"):
        window_grid(noisy_recording, 5.0, mode)


@pytest.mark.parametrize("t_align", [0.0, -10.0, np.nan, np.inf])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bad_window_length_is_rejected(noisy_recording, t_align, mode):
    with pytest.raises(InvalidArgumentError, match="window length must be finite and > 0 s"):
        window_starts(130.0, t_align, mode)
    with pytest.raises(InvalidArgumentError, match="window length must be finite and > 0 s"):
        make_windows([noisy_recording], t_align, mode)


def test_train_window_count_130s(noisy_recording):
    ws = make_windows([noisy_recording], 10.0, "train", seed=0)
    assert len(ws) == 121
    assert ws.x1.shape == (121, 1, 6, 50)
    assert ws.x2.shape == (121, 1, 6, 50)
    assert ws.t_align == 10.0


def test_eval_window_count_120s(noisy_recording):
    rec = noisy_recording.slice_window(0.0, 120.0 - 1e-6)
    ws = make_windows([rec], 30.0, "eval")
    assert len(ws) == 4
    np.testing.assert_array_equal(ws.t_start, [0.0, 30.0, 60.0, 90.0])
    assert ws.stats is None


def test_label_is_last_aiding_heading_in_window(noisy_recording):
    ws = make_windows([noisy_recording], 10.0, "eval")
    # 10 s at 5 Hz aiding: samples 0..49, label at index 49 (t = 9.8 s)
    assert ws.y[0] == noisy_recording.aid.heading_gt[49]
    assert ws.y[1] == noisy_recording.aid.heading_gt[99]


def test_branch1_rows_are_pooled_imu(noisy_recording):
    ws = make_windows([noisy_recording], 10.0, "eval")
    gyro_x = noisy_recording.imu.omega[:, 0]
    expected = gyro_x[:1000].reshape(50, 20).mean(axis=1)
    np.testing.assert_allclose(ws.x1[0, 0, 0], expected, atol=1e-15)
    accel_z = noisy_recording.imu.f[:, 2]
    np.testing.assert_allclose(
        ws.x1[0, 0, 5], accel_z[:1000].reshape(50, 20).mean(axis=1), atol=1e-15
    )


def test_branch2_rows_are_nav_reference(noisy_recording, gentle_scenario):
    ws = make_windows([noisy_recording], 10.0, "eval")
    lat = gentle_scenario.lat  # zero GNSS position noise in this fixture
    np.testing.assert_allclose(ws.x2[0, 0, 0], EARTH_RATE * np.cos(lat), atol=1e-18)
    np.testing.assert_array_equal(ws.x2[0, 0, 1], np.zeros(50))
    np.testing.assert_allclose(ws.x2[0, 0, 2], -EARTH_RATE * np.sin(lat), atol=1e-18)
    np.testing.assert_array_equal(ws.x2[0, 0, 3], np.zeros(50))
    np.testing.assert_array_equal(ws.x2[0, 0, 4], np.zeros(50))
    np.testing.assert_allclose(ws.x2[0, 0, 5], gravity_nav(lat)[2], atol=1e-15)


def test_nav_rows_equal_per_sample_reference_calls():
    lat = np.deg2rad(np.linspace(-60.0, 60.0, 25))
    aid = AidData(np.arange(25) * 0.2, lat, np.zeros(25), np.zeros(25))
    rows = _nav_rows(aid)
    assert rows.shape == (6, 25)
    for k, v in enumerate(lat):
        np.testing.assert_array_equal(rows[:3, k], earth_rate_nav(float(v)))
        np.testing.assert_array_equal(rows[3:, k], gravity_nav(float(v)))


def test_train_shuffle_is_seeded(noisy_recording):
    a = make_windows([noisy_recording], 10.0, "train", seed=3)
    b = make_windows([noisy_recording], 10.0, "train", seed=3)
    c = make_windows([noisy_recording], 10.0, "train", seed=4)
    np.testing.assert_array_equal(a.t_start, b.t_start)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.t_start, c.t_start)
    # shuffled, not sorted
    assert not np.all(np.diff(a.t_start) > 0)
    # same multiset of windows regardless of seed
    np.testing.assert_array_equal(np.sort(a.t_start), np.sort(c.t_start))


def test_train_stats_per_row(noisy_recording):
    ws = make_windows([noisy_recording], 10.0, "train", seed=0)
    assert ws.stats is not None
    for key in ("mean1", "std1", "mean2", "std2"):
        assert ws.stats[key].shape == (6,)
    np.testing.assert_allclose(ws.stats["mean1"], ws.x1.mean(axis=(0, 1, 3)), atol=1e-15)
    np.testing.assert_allclose(ws.stats["std1"], ws.x1.std(axis=(0, 1, 3)), atol=1e-15)
    # constant rows (zero spread) get the std floor of 1.0
    assert ws.stats["std2"][1] == 1.0
    assert ws.stats["std2"][3] == 1.0
    assert ws.stats["std2"][4] == 1.0
    assert ws.stats["mean2"][1] == 0.0


def test_multiple_recordings_concatenate(noisy_recording, clean_recording):
    ws = make_windows([noisy_recording, clean_recording], 30.0, "eval")
    assert len(ws) == 8
    np.testing.assert_array_equal(ws.rec_index, [0, 0, 0, 0, 1, 1, 1, 1])


def test_window_start_offsets_follow_recording_clock(noisy_recording):
    rec = noisy_recording.slice_window(60.0, 130.0)
    ws = make_windows([rec], 30.0, "eval")
    np.testing.assert_array_equal(ws.t_start, [60.0, 90.0])


def test_too_short_recording_rejected(noisy_recording):
    short = noisy_recording.slice_window(0.0, 8.0)
    with pytest.raises(InsufficientDataError):
        make_windows([short], 10.0, "train")


def test_bad_arguments():
    with pytest.raises(InsufficientDataError):
        make_windows([], 10.0, "train")
    with pytest.raises(InvalidArgumentError):
        make_windows([], 10.0, "test")


def test_recordings_of_different_window_widths_are_rejected(noisy_recording):
    slow = _rated_recording(12.5, 2.5)
    with pytest.raises(InvalidArgumentError, match=r"recordings 0 and 1 give 50 and 25 aiding samples"):
        make_windows([noisy_recording, slow], 10.0, "eval")


def test_evaluate_scores_a_recording_whose_starts_fall_between_aiding_samples():
    # at 2.5 Hz the start at 3 s falls between the aiding samples at 2.8 and 3.2 s
    rec = _rated_recording(12.5, 2.5)
    (row,) = evaluate([rec], ["I-OBA"], [3.0]).rows
    assert row.windows == len(make_windows([rec], 3.0, "eval")) == 20


SWEEP_T = [3.0, 4.0, 6.6, 7.0, 10.0]


@pytest.fixture(scope="module", params=[(100.0, 5.0), (50.0, 10.0), (12.5, 2.5), (12.5, 12.5)],
                ids=lambda rates: "{:g}-{:g}Hz".format(*rates))
def swept(request):
    """A 60-s recording at one rate pair, the report of one I-OBA sweep over
    ``SWEEP_T``, and the classical windows it scored, keyed by T."""
    rec = _rated_recording(*request.param)
    seen = {}
    classical = harness._classical_window_aes

    def record(windows, method, t_align):
        seen[t_align] = windows
        return classical(windows, method, t_align)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_classical_window_aes", record)
        report = evaluate([rec], ["I-OBA"], SWEEP_T)
    return rec, report, seen


def _stream_arrays(win):
    return (win.imu.t, win.imu.omega, win.imu.f, win.aid.t, win.aid.lat, win.aid.heading_gt)


@pytest.mark.parametrize("t_align", SWEEP_T)
def test_classical_and_neural_methods_share_one_window_grid(swept, t_align):
    rec, report, seen = swept
    windows, ws = seen[t_align], make_windows([rec], t_align, "eval")
    (row,) = [r for r in report.rows if r.t_align == t_align]
    assert row.windows == len(windows) == len(ws)
    assert [win.aid.heading_gt[-1] for win in windows] == ws.y.tolist()  # truth is the label
    grid = window_grid(rec, t_align, "eval")
    aid_rate = rec.meta["scenario"]["aid_rate"]  # the rule: j0 = ceil(aid_rate w), W = floor(aid_rate T)
    np.testing.assert_array_equal(grid.aid_start, np.ceil(aid_rate * grid.starts - 1e-9))
    assert grid.width == np.floor(aid_rate * t_align + 1e-9)
    by_spacing = window_grid(SimpleNamespace(imu=rec.imu, aid=rec.aid), t_align, "eval")
    assert all(np.array_equal(a, b) for a, b in zip(by_spacing, grid))  # rates without meta
    for win, j0 in zip(windows, grid.aid_start.tolist()):  # heads and fresh cuts alike
        fresh = AlignWindow.from_grid(rec, grid, j0)
        for mine, theirs in zip(_stream_arrays(win), _stream_arrays(fresh)):
            assert np.array_equal(mine, theirs)  # exact: tolerance 0
        for mine, theirs in zip(win.tracks, fresh.tracks):
            assert np.array_equal(mine, theirs)
        for integrated in (True, False):
            mine, theirs = win.observations(integrated), fresh.observations(integrated)
            assert np.array_equal(mine.u_b0, theirs.u_b0) and np.array_equal(mine.u_n0, theirs.u_n0)
        assert align_heading(win, AlignMethod.I_OBA, t_align) == align_heading(
            fresh, AlignMethod.I_OBA, t_align)
    assert t_align == max(SWEEP_T) or any(win._parent is not None for win in windows)
    assert np.all(np.diff(grid.aid_start) >= grid.width)  # no aiding sample in two windows
