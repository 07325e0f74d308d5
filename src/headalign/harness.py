"""Evaluation sweeps over methods and alignment times, plus the report
data model.

Classical methods and neural variants score the same windows, those of
:func:`~headalign.recording.window_grid`; absolute heading errors are
averaged per recording, then across recordings.  On one recording each
window start is cut and integrated once, at the longest alignment time
that starts there, and every shorter window there is a head of it
(:meth:`~headalign.aligners.AlignWindow.head`).  Every window is shared
by every classical method.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .aligners import AlignMethod, AlignWindow, align_heading
from .attitude import angle_diff
from .errors import (
    DegenerateAttitudeError,
    HeadAlignError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .fields import check_entry
from .nn.data import make_windows
from .nn.model import HeadingModel
from .recording import Recording, window_grid, window_starts

__all__ = ["EvalRow", "EvalReport", "check_eval_args", "evaluate", "nn_method_name"]

REPORT_VERSION = "1"

CLASSICAL_METHODS = tuple(m.value for m in AlignMethod)


def nn_method_name(t_align: int | float) -> str:
    return f"HeadingNet{int(t_align)}"


@dataclass
class EvalRow:
    method: str
    t_align: float
    recording: str
    mean_ae_deg: float
    windows: int


#: Field annotations of each record list in a serialised report.
_REPORT_FIELDS = {
    "rows": {f.name: f.type for f in fields(EvalRow)},
    "averages": {"method": "str", "t_align": "float", "mean_ae_deg": "float"},
    "improvements": {"t_align": "float", "best_baseline_name": "str", "best_ae": "float",
                     "nn_ae": "float", "improvement_pct": "float"},
}


@dataclass
class EvalReport:
    """Per-recording rows, per-(method, t_align) averages, and
    improvement of the neural variant over the best classical baseline."""

    rows: list[EvalRow] = field(default_factory=list)
    averages: list[dict] = field(default_factory=list)
    improvements: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "rows": [vars(r) for r in self.rows],
            "averages": self.averages,
            "improvements": self.improvements,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """Rebuild a report from :meth:`to_dict` output.  Another version, a
        missing or extra key, or a value that fails its field check raises
        :class:`InvalidArgumentError`."""
        if not isinstance(d, dict):
            raise InvalidArgumentError("report must be a JSON object")
        if d.get("version") != REPORT_VERSION:
            raise InvalidArgumentError(f"unsupported report version {d.get('version')!r}")
        lists = {}
        for name, kinds in _REPORT_FIELDS.items():
            entries = d.get(name)
            if not isinstance(entries, list):
                raise InvalidArgumentError(f"report {name!r} must be a list")
            lists[name] = [check_entry(f"report {name}[{k}]", e, kinds) for k, e in enumerate(entries)]
        return cls([EvalRow(**r) for r in lists["rows"]], lists["averages"], lists["improvements"])

    def rows_csv(self) -> str:
        lines = ["method,t_align,recording,mean_ae_deg,windows"]
        for r in self.rows:
            lines.append(
                f"{r.method},{r.t_align:g},{r.recording},{r.mean_ae_deg:.17g},{r.windows}"
            )
        return "\n".join(lines) + "\n"

    def averages_csv(self) -> str:
        lines = ["method,t_align,mean_ae_deg"]
        for a in self.averages:
            lines.append(f"{a['method']},{a['t_align']:g},{a['mean_ae_deg']:.17g}")
        return "\n".join(lines) + "\n"

    def improvements_csv(self) -> str:
        lines = ["t_align,best_baseline_name,best_ae,nn_ae,improvement_pct"]
        for i in self.improvements:
            lines.append(
                f"{i['t_align']:g},{i['best_baseline_name']},{i['best_ae']:.17g},"
                f"{i['nn_ae']:.17g},{i['improvement_pct']:.17g}"
            )
        return "\n".join(lines) + "\n"


def _rec_name(rec: Recording, i: int) -> str:
    return str(rec.meta.get("scenario", {}).get("name", f"rec{i}"))


def _align_windows(rec: Recording, t_align: float, cut: dict[int, AlignWindow]) -> list[AlignWindow]:
    """The eval windows of one recording at ``t_align``.  ``cut`` maps a
    window's first aiding sample to the longer window cut there earlier,
    and a window there is its head; any other window is cut from the
    recording and entered in ``cut``."""
    grid = window_grid(rec, t_align, "eval")
    return [cut[j0].head(t_align) if j0 in cut
            else cut.setdefault(j0, AlignWindow.from_grid(rec, grid, j0))
            for j0 in grid.aid_start.tolist()]


def _classical_window_aes(
    windows: list[AlignWindow], method: AlignMethod, t_align: float
) -> list[float]:
    """One alignment per window; windows keep what earlier methods built."""
    return [align_heading(win, method, t_align).ae_deg for win in windows]


def _neural_window_aes(model: HeadingModel, rec: Recording, t_align: float) -> list[float]:
    """One batched, cache-free inference walk over the recording's windows."""
    ws = make_windows([rec], t_align, "eval")
    return np.abs(np.degrees(angle_diff(model.predict(ws.x1, ws.x2), ws.y))).tolist()


def _cell_aes(
    rec: Recording, name: str, methods: list[str], T: float,
    models: dict[int, HeadingModel], cut: dict[int, AlignWindow],
) -> dict[str, list[float]]:
    """Per-window absolute errors of every method scored at ``T`` on one
    recording, classical ones on :func:`_align_windows` of ``cut``.  An
    error raised while scoring keeps its class and names the cell."""
    out = {}
    try:
        windows = _align_windows(rec, float(T), cut) if set(methods) & set(CLASSICAL_METHODS) else []
        for method in methods:
            if method in CLASSICAL_METHODS:
                out[method] = _classical_window_aes(windows, AlignMethod(method), float(T))
            elif method == nn_method_name(T):
                out[method] = _neural_window_aes(models[int(T)], rec, float(T))
    except HeadAlignError as exc:
        raise type(exc)(f"recording {name} at t_align={T:g} s: {exc}") from exc
    for method, aes in out.items():
        if not aes:
            raise InsufficientDataError(f"recording {name} too short for t_align={T}")
        for k, ae in enumerate(aes):
            if not math.isfinite(ae):
                raise DegenerateAttitudeError(
                    f"{method} at t_align={T:g} s gave a non-finite absolute error "
                    f"on recording {name}, window {k}"
                )
    return out


def _recording_cells(
    rec: Recording, name: str, methods: list[str], t_aligns: list[float],
    models: dict[int, HeadingModel],
) -> dict[float, dict[str, list[float]] | HeadAlignError]:
    """Every alignment time's :func:`_cell_aes` on one recording, or the
    error that cell raised.  The longest alignment time runs first, so
    that every window is integrated inside its own first
    ``align_heading`` call and never inside a head's.  The windows live
    only for this call."""
    cut: dict[int, AlignWindow] = {}
    cells = {}
    for T in sorted(t_aligns, reverse=True):
        try:
            cells[T] = _cell_aes(rec, name, methods, T, models, cut)
        except HeadAlignError as exc:
            cells[T] = exc
    return cells


def check_eval_args(methods: list[str], t_aligns: list[float], models: dict[int, HeadingModel]) -> None:
    """Reject, before any recording is touched, an empty method or
    alignment-time list, a non-finite or non-positive alignment time, a
    repeated entry, and a method that is neither classical nor one of
    ``models``' neural variants."""
    if not methods:
        raise InvalidArgumentError("method list is empty")
    if not t_aligns:
        raise InvalidArgumentError("alignment-time list is empty")
    for T in t_aligns:
        window_starts(0.0, T, "eval")  # rejects a non-finite or non-positive T
    for kind, entries in (("method", methods), ("alignment time", t_aligns)):
        for i, e in enumerate(entries):
            if e in entries[:i]:
                raise InvalidArgumentError(f"{kind} {e} is listed more than once")
    neural = {nn_method_name(T) for T in models}
    for m in methods:
        if m not in CLASSICAL_METHODS and m not in neural:
            raise InvalidArgumentError(
                f"method {m!r} is neither classical ({', '.join(CLASSICAL_METHODS)}) "
                "nor a loaded neural variant"
            )


def evaluate(
    recordings: list[Recording],
    methods: list[str],
    t_aligns: list[float],
    models: dict[int, HeadingModel] | None = None,
) -> EvalReport:
    """Score every (method, t_align, recording) cell on shared windows.

    ``models`` maps alignment time to a trained model; a method name
    like ``HeadingNet30`` without a matching model raises.  Neural
    methods are skipped silently for alignment times other than their
    own variation.  A non-finite absolute error on any window raises
    :class:`DegenerateAttitudeError` naming the method, alignment time,
    recording and window.  When several (alignment time, recording)
    cells fail, the error raised is the first cell's in the order of
    ``t_aligns``, then of ``recordings``.  Rows are ordered by alignment
    time, then method, then recording.
    """
    models = models or {}
    check_eval_args(methods, t_aligns, models)
    if not recordings:
        raise InsufficientDataError("no recordings to evaluate")

    report = EvalReport()
    names = [_rec_name(rec, ri) for ri, rec in enumerate(recordings)]
    cells = [_recording_cells(rec, name, methods, t_aligns, models)
             for rec, name in zip(recordings, names)]
    for T in t_aligns:
        per_rec = [by_T[T] for by_T in cells]
        for by_method in per_rec:  # the first failing cell, alignment time outermost
            if isinstance(by_method, HeadAlignError):
                raise by_method
        for method in methods:
            for name, by_method in zip(names, per_rec):
                if method in by_method:
                    aes = by_method[method]
                    report.rows.append(
                        EvalRow(method, float(T), name, float(np.mean(aes)), len(aes))
                    )

    for T in t_aligns:
        for method in methods:
            cells = [r.mean_ae_deg for r in report.rows if r.method == method and r.t_align == T]
            if cells:
                report.averages.append(
                    {"method": method, "t_align": float(T), "mean_ae_deg": float(np.mean(cells))}
                )

    for T in t_aligns:
        nn_avg = [a for a in report.averages if a["t_align"] == T and a["method"] not in CLASSICAL_METHODS]
        base = [a for a in report.averages if a["t_align"] == T and a["method"] in CLASSICAL_METHODS]
        if not nn_avg or not base:
            continue
        # strict minimum; ties broken by method name
        best = min(base, key=lambda a: (a["mean_ae_deg"], a["method"]))
        nn = nn_avg[0]
        report.improvements.append(
            {
                "t_align": float(T),
                "best_baseline_name": best["method"],
                "best_ae": best["mean_ae_deg"],
                "nn_ae": nn["mean_ae_deg"],
                "improvement_pct": 100.0 * (best["mean_ae_deg"] - nn["mean_ae_deg"]) / best["mean_ae_deg"],
            }
        )
    return report
