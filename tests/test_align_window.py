"""The shared classical window engine: ``AlignWindow`` and the evaluation
sweep built on it.

The engine must give every per-window estimate exactly (tolerance 0) what
a fresh cut of the same window gives, while integrating each window start
once for all four classical methods and every alignment time: a shorter
window at a start is a head of the longest one there.
"""
from __future__ import annotations

import numpy as np
import pytest

import headalign.aligners as aligners
import headalign.harness as harness
from headalign.aligners import AlignMethod, AlignWindow, align_heading
from headalign.errors import InsufficientDataError, InvalidArgumentError
from headalign.harness import CLASSICAL_METHODS, evaluate
from headalign.nn.data import window_starts
from headalign.recording import sample_rates, window_grid
from headalign.simulate import (
    DEFAULT_SENSORS,
    Oscillation,
    ScenarioConfig,
    scenario_bank,
    simulate_recording,
)


@pytest.fixture(scope="module")
def bank_120s():
    """The seed-42 bank at 120 s per scenario, as the benchmark pipeline simulates it."""
    return [simulate_recording(cfg, DEFAULT_SENSORS) for cfg in scenario_bank(42, duration=120.0)]


def _fresh_cut_aes(rec, method: AlignMethod, T: float) -> list[float]:
    """Per-window AEs with each window cut anew for this method alone."""
    t0 = float(rec.imu.t[0])
    imu_rate, _ = sample_rates(rec.meta)
    return [
        align_heading(rec.slice_window(t0 + float(w), t0 + float(w) + T), method, T).ae_deg
        for w in window_starts(len(rec.imu) / imu_rate, T, "eval")
    ]


def _evaluate_recording_aes(recs, methods, t_aligns, monkeypatch) -> dict:
    """Run ``evaluate``; return its report and the per-window AEs of every
    classical cell, keyed by (method, T), one list per recording."""
    seen = {}
    classical = harness._classical_window_aes

    def record(windows, method, t_align):
        aes = classical(windows, method, t_align)
        seen.setdefault((method, t_align), []).append(aes)
        return aes

    monkeypatch.setattr(harness, "_classical_window_aes", record)
    return evaluate(recs, methods, t_aligns), seen


@pytest.mark.parametrize("t_aligns", [
    pytest.param([10.0], id="10.0"),
    pytest.param([30.0], id="30.0"),
    pytest.param([10.0, 25.0, 60.0], id="some-starts-shared"),
    pytest.param([30.0, 120.0, 10.0, 90.0, 60.0], id="unsorted"),
])
def test_harness_windows_equal_fresh_cuts(bank_120s, monkeypatch, t_aligns):
    rep, seen = _evaluate_recording_aes(bank_120s, list(CLASSICAL_METHODS), t_aligns, monkeypatch)
    for T in t_aligns:
        for method in AlignMethod:
            fresh = [_fresh_cut_aes(rec, method, T) for rec in bank_120s]
            assert seen[method, T] == fresh  # exact: tolerance 0
            rows = [r for r in rep.rows if r.method == method.value and r.t_align == T]
            assert [r.mean_ae_deg for r in rows] == [float(np.mean(a)) for a in fresh]


def _fresh_grid_aes(rec, method: AlignMethod, T: float) -> list[float]:
    """Per-window AEs with each window of the grid cut anew for this method alone."""
    grid = window_grid(rec, T, "eval")
    return [align_heading(AlignWindow.from_grid(rec, grid, j0), method, T).ae_deg
            for j0 in grid.aid_start.tolist()]


def test_windows_off_the_imu_grid_equal_fresh_cuts(monkeypatch):
    # At 12.5 Hz an odd whole second is off the sample grid: the window at
    # 7 s starts at the 7.04 s sample, and its 6.01 s head holds the 75
    # samples from 7.04 to 12.96 s, as a fresh grid window at 6.01 s does.
    cfg = ScenarioConfig(name="odd", duration=60.0, lat=0.5, lon=0.6, psi0=1.0,
                         heading_osc=(Oscillation(2.0, 35.0, 0.3),),
                         imu_rate=12.5, aid_rate=12.5, seed=3)
    rec = simulate_recording(cfg, DEFAULT_SENSORS)
    _, seen = _evaluate_recording_aes([rec], ["I-OBA"], [7.0, 6.01], monkeypatch)
    for T in (7.0, 6.01):
        assert seen[AlignMethod.I_OBA, T] == [_fresh_grid_aes(rec, AlignMethod.I_OBA, T)]


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count, from here on, every frame-track integration, observation
    build and ``align_heading`` call that an evaluation makes."""
    calls = dict.fromkeys(
        ("integrate_body_frame", "integrate_nav_frame",
         "observation_integrated", "observation_instantaneous", "align_heading"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in list(calls)[:4]:
        counted(aligners, name)
    counted(harness, "align_heading")
    return calls


def test_each_window_is_integrated_once_for_all_methods(clean_recording, monkeypatch):
    calls = _count_builds(monkeypatch)
    rep = evaluate([clean_recording], list(CLASSICAL_METHODS), [30.0])
    windows = rep.rows[0].windows
    assert windows == 4  # 130 s holds four non-overlapping 30 s windows
    assert calls == {
        "integrate_body_frame": windows,
        "integrate_nav_frame": windows,
        "observation_integrated": windows,
        "observation_instantaneous": windows,
        "align_heading": 4 * windows,  # still one call per estimate
    }


def test_each_window_start_is_integrated_once_for_all_alignment_times(bank_120s, monkeypatch):
    calls = _count_builds(monkeypatch)
    rep = evaluate(bank_120s[:1], list(CLASSICAL_METHODS), [10.0, 30.0, 60.0, 90.0, 120.0])
    windows = sum(r.windows for r in rep.rows if r.method == "I-OBA")
    assert windows == 12 + 4 + 2 + 1 + 1
    # starts 0..110 s: one window each, 120 s long at 0, 60 s at 60, 30 s at 30 and 90
    starts = 12
    assert calls == {
        "integrate_body_frame": starts,
        "integrate_nav_frame": starts,
        "observation_integrated": starts,
        "observation_instantaneous": starts,
        "align_heading": 4 * windows,  # still one call per estimate
    }


@pytest.mark.parametrize("method", list(AlignMethod))
def test_window_gives_what_a_recording_gives(clean_recording, method):
    win = AlignWindow(clean_recording, 60.0)
    for m in AlignMethod:  # other methods first, so the caches are warm
        if m is not method:
            align_heading(win, m, 60.0)
    assert align_heading(win, method, 60.0) == align_heading(clean_recording, method, 60.0)


def test_window_reused_at_another_t_align_raises(clean_recording):
    win = AlignWindow(clean_recording, 30.0)
    align_heading(win, AlignMethod.I_OBA, 30.0)
    with pytest.raises(InvalidArgumentError, match="cut at t_align=30"):
        align_heading(win, AlignMethod.I_OBA, 60.0)
    with pytest.raises(InvalidArgumentError):
        align_heading(win, AlignMethod.A_DVA, float("nan"))


def test_window_checks_run_at_construction(clean_recording):
    with pytest.raises(InvalidArgumentError):
        AlignWindow(clean_recording, 1.0)
    with pytest.raises(InvalidArgumentError):
        AlignWindow(clean_recording, float("inf"))
    with pytest.raises(InsufficientDataError):
        AlignWindow(clean_recording.slice_window(0.0, 10.0), 60.0)


def test_cached_arrays_are_read_only(clean_recording):
    win = AlignWindow(clean_recording, 30.0)
    body, nav = win.tracks
    assert win.tracks[0] is body
    obs = win.observations(True)
    assert win.observations(True) is obs
    assert win.observations(False) is not obs
    for a in (body, nav, obs.u_b0, obs.u_n0):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_head_holds_read_only_prefixes_of_the_windows_arrays(clean_recording):
    win = AlignWindow(clean_recording, 120.0)
    head = win.head(30.0)
    fresh = AlignWindow(clean_recording, 30.0)
    for mine, theirs in ((head.imu.t, fresh.imu.t), (head.imu.f, fresh.imu.f),
                         (head.aid.t, fresh.aid.t), (head.aid.heading_gt, fresh.aid.heading_gt)):
        assert np.array_equal(mine, theirs)
    for mine, whole, theirs in zip(head.tracks, win.tracks, fresh.tracks):
        assert np.shares_memory(mine, whole) and not mine.flags.writeable
        assert np.array_equal(mine, theirs)  # exact: tolerance 0
    for integrated in (True, False):
        mine, whole = head.observations(integrated), win.observations(integrated)
        theirs = fresh.observations(integrated)
        for a, b, c in ((mine.u_b0, whole.u_b0, theirs.u_b0), (mine.u_n0, whole.u_n0, theirs.u_n0)):
            assert np.shares_memory(a, b) and not a.flags.writeable
            assert np.array_equal(a, c)
        assert head.observations(integrated) is mine
    for method in AlignMethod:
        assert align_heading(head, method, 30.0) == align_heading(fresh, method, 30.0)


def test_head_longer_than_its_window_raises(clean_recording):
    win = AlignWindow(clean_recording, 30.0)
    with pytest.raises(InvalidArgumentError, match="head of a 30 s window"):
        win.head(60.0)
    for bad in (1.0, float("nan")):
        with pytest.raises(InvalidArgumentError):
            win.head(bad)
