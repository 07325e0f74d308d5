"""The shared classical window engine: ``AlignWindow`` and the evaluation
sweep built on it.

The engine must give every per-window estimate exactly (tolerance 0) what
a fresh cut of the same window gives, while integrating each window once
for all four classical methods.
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
from headalign.recording import sample_rates
from headalign.simulate import DEFAULT_SENSORS, scenario_bank, simulate_recording


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


@pytest.mark.parametrize("T", [10.0, 30.0])
def test_harness_windows_equal_fresh_cuts(bank_120s, monkeypatch, T):
    seen = {}
    classical = harness._classical_window_aes

    def record(windows, method, t_align):
        aes = classical(windows, method, t_align)
        seen.setdefault(method, []).append(aes)
        return aes

    monkeypatch.setattr(harness, "_classical_window_aes", record)
    rep = evaluate(bank_120s, list(CLASSICAL_METHODS), [T])
    for method in AlignMethod:
        fresh = [_fresh_cut_aes(rec, method, T) for rec in bank_120s]
        assert seen[method] == fresh  # exact: tolerance 0
        rows = [r for r in rep.rows if r.method == method.value]
        assert [r.mean_ae_deg for r in rows] == [float(np.mean(a)) for a in fresh]


def test_each_window_is_integrated_once_for_all_methods(clean_recording, monkeypatch):
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
