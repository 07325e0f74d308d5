from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import headalign.harness as harness
from headalign.errors import (
    AlignmentWindowError,
    DegenerateAttitudeError,
    DegenerateGeometryError,
    HeadAlignError,
    InsufficientDataError,
    InvalidArgumentError,
)
from headalign.harness import EvalReport, evaluate, nn_method_name
from headalign.nn.data import make_windows
from headalign.nn.model import build_headingnet


def test_nn_method_name():
    assert nn_method_name(10) == "HeadingNet10"
    assert nn_method_name(120.0) == "HeadingNet120"


def test_row_and_average_counts(clean_recording, noisy_recording):
    recs = [clean_recording, noisy_recording]
    rep = evaluate(recs, ["I-OBA", "A-OBA"], [30.0, 60.0])
    assert len(rep.rows) == 8  # methods x t_aligns x recordings
    assert len(rep.averages) == 4
    assert rep.improvements == []  # no neural method in the sweep
    for avg in rep.averages:
        cells = [
            r.mean_ae_deg
            for r in rep.rows
            if r.method == avg["method"] and r.t_align == avg["t_align"]
        ]
        assert len(cells) == 2
        assert avg["mean_ae_deg"] == pytest.approx(np.mean(cells), rel=1e-15)


def test_noise_free_classical_accuracy(clean_recording):
    rep = evaluate([clean_recording], ["I-OBA", "I-DVA"], [60.0])
    for row in rep.rows:
        assert row.mean_ae_deg < 0.1
        assert row.windows == 2  # 130 s holds two non-overlapping 60 s windows


def test_window_counts_match_neural_budget(clean_recording):
    # classical and neural scoring must consume identical window grids
    rep = evaluate([clean_recording], ["I-OBA"], [30.0])
    ws = make_windows([clean_recording], 30.0, "eval")
    assert rep.rows[0].windows == len(ws) == 4


def test_neural_rows_only_for_matching_variation(clean_recording):
    model = build_headingnet(10, seed=0).eval()
    rep = evaluate(
        [clean_recording], ["I-OBA", "HeadingNet10"], [10.0, 30.0], models={10: model}
    )
    nn_rows = [r for r in rep.rows if r.method == "HeadingNet10"]
    assert [r.t_align for r in nn_rows] == [10.0]
    assert [i["t_align"] for i in rep.improvements] == [10.0]
    assert {r.t_align for r in rep.rows if r.method == "I-OBA"} == {10.0, 30.0}


def test_evaluate_rejects_a_training_mode_model(clean_recording):
    model = build_headingnet(10, seed=0).train()
    with pytest.raises(HeadAlignError, match="eval mode"):
        evaluate([clean_recording], ["HeadingNet10"], [10.0], models={10: model})


def test_improvement_formula_and_tiebreak(clean_recording, monkeypatch):
    fixed = {"I-DVA": 4.0, "A-DVA": 2.0, "I-OBA": 2.0, "A-OBA": 3.0}

    def fake_classical(rec, method, t_align):
        return [fixed[method.value]]

    def fake_predict(model, x1, x2):
        return np.zeros(len(x1))

    monkeypatch.setattr(harness, "_classical_window_aes", fake_classical)
    monkeypatch.setattr(harness.HeadingModel, "predict", fake_predict)
    model = build_headingnet(10, seed=0).eval()
    rep = evaluate(
        [clean_recording],
        ["I-DVA", "A-DVA", "I-OBA", "A-OBA", "HeadingNet10"],
        [10.0],
        models={10: model},
    )
    imp = rep.improvements[0]
    # exact tie at 2.0 deg: the lexicographically smaller name wins
    assert imp["best_baseline_name"] == "A-DVA"
    assert imp["best_ae"] == 2.0
    nn_ae = [a for a in rep.averages if a["method"] == "HeadingNet10"][0]["mean_ae_deg"]
    assert imp["nn_ae"] == nn_ae
    assert imp["improvement_pct"] == pytest.approx(100.0 * (2.0 - nn_ae) / 2.0, rel=1e-15)


def test_improvement_is_zero_when_nn_matches_best(clean_recording, monkeypatch):
    monkeypatch.setattr(harness, "_classical_window_aes", lambda r, m, t: [1.5])

    def fake_predict(model, x1, x2):
        fake_predict.k += 1
        return np.zeros(len(x1))

    fake_predict.k = 0
    # make the NN mean AE exactly equal the baseline: every window off by 1.5 deg
    def fake_make_windows(recs, t, mode):
        ws = make_windows(recs, t, mode)
        ws.y = np.full_like(ws.y, np.deg2rad(1.5))
        return ws

    monkeypatch.setattr(harness.HeadingModel, "predict", fake_predict)
    monkeypatch.setattr(harness, "make_windows", fake_make_windows)
    model = build_headingnet(10, seed=0).eval()
    rep = evaluate([clean_recording], ["I-OBA", "HeadingNet10"], [10.0], models={10: model})
    imp = rep.improvements[0]
    assert imp["nn_ae"] == pytest.approx(1.5, abs=1e-12)
    assert imp["improvement_pct"] == pytest.approx(0.0, abs=1e-10)


def test_report_json_round_trip(clean_recording):
    rep = evaluate([clean_recording], ["I-OBA"], [30.0])
    d = rep.to_dict()
    assert d["version"] == "1"
    back = EvalReport.from_dict(d)
    assert back.to_json() == rep.to_json()
    with pytest.raises(InvalidArgumentError):
        EvalReport.from_dict({**d, "version": "9"})


def test_csv_headers_and_shapes(clean_recording, monkeypatch):
    monkeypatch.setattr(harness, "_classical_window_aes", lambda r, m, t: [2.0])
    monkeypatch.setattr(harness.HeadingModel, "predict", lambda m, a, b: np.zeros(len(a)))
    model = build_headingnet(10, seed=0).eval()
    rep = evaluate([clean_recording], ["I-OBA", "HeadingNet10"], [10.0], models={10: model})
    rows = rep.rows_csv().splitlines()
    assert rows[0] == "method,t_align,recording,mean_ae_deg,windows"
    assert len(rows) == 1 + len(rep.rows)
    assert rep.averages_csv().splitlines()[0] == "method,t_align,mean_ae_deg"
    imps = rep.improvements_csv().splitlines()
    assert imps[0] == "t_align,best_baseline_name,best_ae,nn_ae,improvement_pct"
    assert len(imps) == 2


def test_repeat_evaluation_is_byte_identical(clean_recording):
    a = evaluate([clean_recording], ["I-DVA", "A-OBA"], [30.0, 60.0])
    b = evaluate([clean_recording], ["I-DVA", "A-OBA"], [30.0, 60.0])
    assert a.to_json() == b.to_json()


def test_argument_validation(clean_recording):
    with pytest.raises(InvalidArgumentError):
        evaluate([clean_recording], [], [30.0])
    with pytest.raises(InvalidArgumentError):
        evaluate([clean_recording], ["I-OBA"], [])
    with pytest.raises(InsufficientDataError):
        evaluate([], ["I-OBA"], [30.0])
    with pytest.raises(InvalidArgumentError, match="neither classical"):
        evaluate([clean_recording], ["HeadingNet30"], [30.0])
    with pytest.raises(InvalidArgumentError):
        evaluate([clean_recording], ["bogus"], [30.0])


@pytest.mark.parametrize("methods, t_aligns, message", [
    pytest.param(["I-OBA", "I-OBA"], [30.0], "method I-OBA is listed more than once", id="method"),
    pytest.param(["I-OBA"], [10.0, 10.0], "alignment time 10.0 is listed more than once",
                 id="alignment-time"),
])
def test_repeated_method_or_alignment_time_is_rejected(clean_recording, methods, t_aligns, message):
    with pytest.raises(InvalidArgumentError, match=message):
        evaluate([clean_recording], methods, t_aligns)


def test_recording_too_short_for_window(clean_recording):
    short = clean_recording.slice_window(0.0, 20.0)
    with pytest.raises(InsufficientDataError):
        evaluate([short], ["I-OBA"], [30.0])


def _named(rec, name: str):
    return dataclasses.replace(rec, meta={**rec.meta, "scenario": {**rec.meta["scenario"], "name": name}})


def test_recording_too_short_first_by_alignment_time(clean_recording):
    # 'a' holds a 110 s window but no 120 s one, 'b' holds neither
    a = _named(clean_recording.slice_window(0.0, 115.0), "a")
    b = _named(clean_recording.slice_window(0.0, 100.0), "b")
    with pytest.raises(InsufficientDataError, match=r"^recording b too short for t_align=110.0$"):
        evaluate([a, b], ["I-OBA"], [110.0, 120.0])


@pytest.mark.parametrize("error", [AlignmentWindowError, DegenerateGeometryError])
def test_error_in_a_cell_keeps_its_class_and_names_the_cell(clean_recording, monkeypatch, error):
    def fail_on_the_60s_windows(win, method, t_align):
        if t_align == 60.0:
            raise error("window fault")
        return harness_align(win, method, t_align)

    harness_align = harness.align_heading
    monkeypatch.setattr(harness, "align_heading", fail_on_the_60s_windows)
    with pytest.raises(error, match=r"^recording a at t_align=60 s: window fault$"):
        evaluate([_named(clean_recording, "a")], ["I-OBA"], [30.0, 60.0])


def test_non_finite_error_first_by_alignment_time(clean_recording, noisy_recording, monkeypatch):
    on_b = {row.tobytes() for row in noisy_recording.imu.omega}
    align = harness.align_heading

    def nan_on_a_at_60s_and_b_at_30s(win, method, t_align):
        est = align(win, method, t_align)
        if (t_align, win.imu.omega[0].tobytes() in on_b) in ((60.0, False), (30.0, True)):
            est.ae_deg = float("nan")
        return est

    monkeypatch.setattr(harness, "align_heading", nan_on_a_at_60s_and_b_at_30s)
    recs = [_named(clean_recording, "a"), _named(noisy_recording, "b")]
    with pytest.raises(DegenerateAttitudeError, match=(
            r"^I-OBA at t_align=30 s gave a non-finite absolute error on recording b, window 0$")):
        evaluate(recs, ["I-OBA"], [30.0, 60.0])
