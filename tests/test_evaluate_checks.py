"""Checks at the edges of an evaluation: a non-finite per-window error
stops the sweep with a named error, and a malformed report is rejected
when it is read back."""
from __future__ import annotations

import numpy as np
import pytest

import headalign.harness as harness
from headalign.aligners import AlignMethod
from headalign.errors import DegenerateAttitudeError, InvalidArgumentError
from headalign.harness import EvalReport, evaluate
from headalign.nn.model import build_headingnet


def test_non_finite_classical_error_raises(clean_recording, monkeypatch):
    align = harness.align_heading

    def nan_for_a_oba_at_60s(win, method, t_align):
        est = align(win, method, t_align)
        if method is AlignMethod.A_OBA and round(win.imu.t[0]) == 60:
            est.ae_deg = float("nan")
        return est

    monkeypatch.setattr(harness, "align_heading", nan_for_a_oba_at_60s)
    with pytest.raises(DegenerateAttitudeError) as info:
        evaluate([clean_recording], ["I-OBA", "A-OBA"], [30.0])
    assert str(info.value) == (
        "A-OBA at t_align=30 s gave a non-finite absolute error on recording gentle, window 2"
    )


def test_non_finite_neural_error_raises(clean_recording, monkeypatch):
    monkeypatch.setattr(harness.HeadingModel, "predict", lambda model, x1, x2: np.full(len(x1), np.nan))
    model = build_headingnet(10, seed=0).eval()
    with pytest.raises(DegenerateAttitudeError, match="HeadingNet10 at t_align=10 s .* window 0"):
        evaluate([clean_recording], ["HeadingNet10"], [10.0], models={10: model})


@pytest.mark.parametrize(
    "section, edit",
    [
        ("rows", lambda e: e.pop("windows")),
        ("rows", lambda e: e.update(windows=4.0)),
        ("rows", lambda e: e.update(extra=1)),
        ("averages", lambda e: e.pop("t_align")),
        ("averages", lambda e: e.update(mean_ae_deg="0.5")),
        ("averages", lambda e: e.update(t_align=True)),
        ("averages", lambda e: e.update(mean_ae_deg=float("nan"))),
        ("improvements", lambda e: e.update(improvement_pct=float("inf"))),
        ("improvements", lambda e: e.pop("nn_ae")),
        ("improvements", lambda e: e.update(best_baseline_name=None)),
    ],
)
def test_report_from_dict_rejects_malformed_entries(section, edit):
    d = {
        "version": "1",
        "rows": [{"method": "I-OBA", "t_align": 10.0, "recording": "r",
                  "mean_ae_deg": 1.0, "windows": 4}],
        "averages": [{"method": "I-OBA", "t_align": 10.0, "mean_ae_deg": 1.0}],
        "improvements": [{"t_align": 10.0, "best_baseline_name": "I-OBA", "best_ae": 1.0,
                          "nn_ae": 0.5, "improvement_pct": 50.0}],
    }
    assert EvalReport.from_dict(d).to_dict() == d
    edit(d[section][0])
    with pytest.raises(InvalidArgumentError, match=rf"report {section}\[0\]"):
        EvalReport.from_dict(d)


@pytest.mark.parametrize("doc", [[], {"version": "1", "rows": {}, "averages": [], "improvements": []}])
def test_report_from_dict_rejects_wrong_containers(doc):
    with pytest.raises(InvalidArgumentError):
        EvalReport.from_dict(doc)
