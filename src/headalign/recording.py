"""Recording container and on-disk round-trip.

A recording is a directory of four files:

- ``imu.csv``: ``t,wx,wy,wz,fx,fy,fz`` (s, rad/s, m/s^2)
- ``aid.csv``: ``t,lat,lon,heading_gt``(s, rad, rad, rad)
- ``truth.csv``: ``t,roll,pitch,yaw`` (s, rad), dense at IMU rate
- ``meta.json``: scenario config, sensor spec, seed, format version "1"

Floats are written with 17 significant digits so the round trip is
bit-exact for IEEE doubles.  The writer formats a whole table with one
``%`` operation; its bytes are those of ``np.savetxt(fmt="%.17g")``.

The reader parses the data lines with ``np.loadtxt`` and keeps the
result only when it has one row of the right width per line.  Anything
else (a ``loadtxt`` error, a skipped blank line) goes to a line-by-line
``float()`` parser, which alone decides bad input: it names the first
bad line by its file line number, and it accepts the few spellings
``float()`` takes and ``loadtxt`` does not (``1_0``), so both paths
accept the same files and read the same values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import InsufficientDataError, InvalidArgumentError, RecordingFormatError
from .strapdown import AidData, ImuData, _Stream, require_finite

__all__ = ["TruthTrack", "Recording", "WindowGrid", "read_recording", "window_grid",
           "window_starts", "write_recording"]

FORMAT_VERSION = "1"

_IMU_HEADER = "t,wx,wy,wz,fx,fy,fz"
_AID_HEADER = "t,lat,lon,heading_gt"
_TRUTH_HEADER = "t,roll,pitch,yaw"

#: Sample spacing may deviate from nominal by at most this (seconds).
RATE_TOL = 1e-6


def sample_rates(meta: dict) -> tuple[float, float]:
    """``(imu_rate, aid_rate)`` in Hz from a recording's metadata; a
    recording without a scenario entry is taken as 100 Hz / 5 Hz."""
    scenario = meta.get("scenario", {})
    return float(scenario.get("imu_rate", 100.0)), float(scenario.get("aid_rate", 5.0))


def window_starts(duration: float, t_align: float, mode: str) -> np.ndarray:
    """Whole-second window start offsets: stride 1 s for ``"train"``,
    stride ``ceil(t_align)`` for ``"eval"``, so that eval windows never
    overlap.  Every window ends within ``duration``.  ``t_align`` must be
    finite and positive; any other mode raises."""
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not (np.isfinite(t_align) and t_align > 0):
        raise InvalidArgumentError(f"window length must be finite and > 0 s, got {t_align}")
    if mode == "train":
        last = int(np.floor(duration - t_align + 1e-9))
        return np.arange(0, last + 1)
    step = int(np.ceil(t_align))
    n = int(np.floor((duration - t_align) / step + 1e-9)) + 1
    return np.arange(0, n) * step


class WindowGrid(NamedTuple):
    """:func:`window_grid`'s windows: offsets ``starts`` (w), first aiding
    samples ``aid_start`` (j0), ``width`` (W) and ``ratio`` (k)."""

    t_align: float
    starts: NDArray[np.int64]
    aid_start: NDArray[np.intp]
    width: int
    ratio: int


def window_grid(rec, t_align: float, mode: str) -> WindowGrid:
    """The windows of ``rec`` at ``t_align`` in ``mode`` as index ranges:
    the one window rule of the classical and the neural methods.

    ``rec`` has ``imu`` and ``aid`` streams, aiding sample j being IMU
    sample k·j.  The rates are :func:`sample_rates` of ``rec.meta``, or
    the streams' own spacing when ``rec`` has no ``meta``; k = imu_rate /
    aid_rate, and t0 is the first IMU time.

    - start: j0 is the first aiding sample at or after t0 + w, for each w
      of :func:`window_starts` (duration = IMU samples / imu_rate);
    - width: W = ⌊aid_rate · t_align⌋ aiding samples in every window.
      Each sample of [j0, j0 + W) lies in [t0 + w, t0 + w + t_align), so
      no two eval windows share one;
    - IMU range: [k·j0, k·(j0 + W)); truth and label: aiding sample j0 + W − 1.

    A window that runs past either stream is left out.  At 100/5 Hz with
    5·t_align whole, a window is exactly the samples of [t0 + w, t0 + w +
    t_align).  A bad mode or ``t_align``, or one shorter than an aiding
    interval, raises :class:`InvalidArgumentError`.
    """
    if getattr(rec, "meta", None) is None:
        if min(len(rec.imu), len(rec.aid)) < 2:
            raise InsufficientDataError("a stream needs 2 samples to give its rate")
        imu_rate, aid_rate = ((len(s) - 1) / float(s.t[-1] - s.t[0]) for s in (rec.imu, rec.aid))
    else:
        imu_rate, aid_rate = sample_rates(rec.meta)
    starts = window_starts(len(rec.imu) / imu_rate, t_align, mode)
    width = int(np.floor(aid_rate * t_align + 1e-9))
    if width < 1:
        raise InvalidArgumentError(f"a {t_align:g} s window holds no aiding sample at {aid_rate:g} Hz")
    ratio = int(round(imu_rate / aid_rate))
    aid_start = np.searchsorted(rec.aid.t, rec.imu.t[0] + starts - 1e-9, "left")
    fits = aid_start + width <= min(len(rec.aid), len(rec.imu) // ratio)
    return WindowGrid(float(t_align), starts[fits], aid_start[fits], width, ratio)


@dataclass
class TruthTrack(_Stream):
    """Dense ground-truth attitude at IMU rate: Euler angles in radians,
    columns (roll, pitch, yaw)."""

    t: NDArray[np.float64]
    euler: NDArray[np.float64]

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.euler = np.asarray(self.euler, dtype=float)
        if self.euler.shape != (self.t.size, 3):
            raise InvalidArgumentError("euler must be (n, 3) matching t")
        require_finite("truth", t=self.t, euler=self.euler)

    @property
    def heading(self) -> NDArray[np.float64]:
        return self.euler[:, 2]


@dataclass
class Recording:
    """One time-aligned dataset unit: IMU stream, aiding stream, dense
    ground-truth attitude, and the metadata that produced them."""

    imu: ImuData
    aid: AidData
    truth: TruthTrack
    meta: dict

    def __post_init__(self):
        if len(self.imu) == 0 or len(self.aid) == 0:
            raise InsufficientDataError("recording has an empty IMU or aiding stream")
        if abs(self.imu.t[0] - self.aid.t[0]) > 1e-9:
            raise InvalidArgumentError("IMU and aiding streams must start together")
        if self.truth.t.size != self.imu.t.size or np.max(np.abs(self.truth.t - self.imu.t)) > 1e-9:
            raise InvalidArgumentError("truth track must be sampled on the IMU time grid")

    @property
    def duration(self) -> float:
        return float(self.imu.t[-1] - self.imu.t[0])

    def slice_window(self, t_start: float, t_end: float) -> "Recording":
        """Sub-recording over ``[t_start, t_end]`` (inclusive grid bounds)."""
        imu, aid, truth = (s.slice_window(t_start, t_end) for s in (self.imu, self.aid, self.truth))
        return Recording(imu, aid, truth, self.meta)


def _write_csv(path: str, header: str, table: NDArray[np.float64]) -> None:
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


def _split_lines(text: str) -> list[str]:
    r"""Lines of ``text`` without their terminators, split as iterating a
    file opened with ``newline=""`` splits them (``\n``, ``\r\n``,
    ``\r``).  ``str.splitlines`` would also split on ``\v``, ``\f``
    and ``\x1c``-``\x1e``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_lines(name: str, lines: list[str], ncol: int) -> NDArray[np.float64]:
    """Line-by-line parse that decides bad input: the first bad line
    raises with its file line number (the header is line 1)."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(",")
        if len(fields) != ncol:
            raise RecordingFormatError(
                f"{name} line {lineno}: expected {ncol} fields, got {len(fields)}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise RecordingFormatError(f"{name} line {lineno}: {exc}") from exc
    return np.array(rows, dtype=float)


def _loadtxt(lines: list[str], ncol: int) -> NDArray[np.float64] | None:
    """C-speed parse of the data lines, or ``None`` wherever it might
    not agree with :func:`_parse_lines`: ``loadtxt`` skips blank lines
    (and warns when every line is blank), and ``float()`` accepts some
    fields (``1_0``) that it rejects."""
    if not lines[0]:
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(lines), ncol) else None


def _read_csv(path: str, header: str) -> NDArray[np.float64]:
    name = os.path.basename(path)
    ncol = len(header.split(","))
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise RecordingFormatError(f"{name}: {exc}") from exc
    with fh:
        first = fh.readline()
        if first.rstrip("\r\n") != header:
            raise RecordingFormatError(
                f"{name} line 1: expected header {header!r}, got {first.rstrip()!r}"
            )
        lines = _split_lines(fh.read())
    if not lines:
        raise RecordingFormatError(f"{name}: no data rows")
    data = _loadtxt(lines, ncol)
    if data is None:
        data = _parse_lines(name, lines, ncol)
    bad = np.nonzero(np.diff(data[:, 0]) <= 0)[0]
    if bad.size:
        raise RecordingFormatError(
            f"{name} line {bad[0] + 3}: non-increasing timestamp"
        )
    return data


def write_recording(rec: Recording, path: str) -> None:
    """Write a recording to directory ``path`` (created if needed)."""
    os.makedirs(path, exist_ok=True)
    _write_csv(
        os.path.join(path, "imu.csv"),
        _IMU_HEADER,
        np.column_stack([rec.imu.t, rec.imu.omega, rec.imu.f]),
    )
    _write_csv(
        os.path.join(path, "aid.csv"),
        _AID_HEADER,
        np.column_stack([rec.aid.t, rec.aid.lat, rec.aid.lon, rec.aid.heading_gt]),
    )
    _write_csv(
        os.path.join(path, "truth.csv"),
        _TRUTH_HEADER,
        np.column_stack([rec.truth.t, rec.truth.euler]),
    )
    meta = dict(rec.meta)
    meta.setdefault("version", FORMAT_VERSION)
    with open(os.path.join(path, "meta.json"), "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_rate(name: str, t: NDArray[np.float64], rate: float) -> None:
    if t.size < 2:
        return
    dt = np.diff(t)
    worst = np.max(np.abs(dt - 1.0 / rate))
    if worst > RATE_TOL:
        raise RecordingFormatError(
            f"{name}: sample spacing off nominal 1/{rate:g} s by {worst:.3g} s"
        )


def read_recording(path: str) -> Recording:
    """Read and validate a recording directory.

    Raises
    ------
    RecordingFormatError
        On malformed rows (with line numbers), non-monotone time, rate
        mismatch, or aiding timestamps that are not a subset of the IMU
        grid.  No partial recording is ever returned.
    """
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise RecordingFormatError(f"meta.json: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RecordingFormatError(f"meta.json line {exc.lineno}: {exc.msg}") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise RecordingFormatError(
            f"meta.json: unsupported format version {meta.get('version')!r}"
        )

    imu_tab = _read_csv(os.path.join(path, "imu.csv"), _IMU_HEADER)
    aid_tab = _read_csv(os.path.join(path, "aid.csv"), _AID_HEADER)
    truth_tab = _read_csv(os.path.join(path, "truth.csv"), _TRUTH_HEADER)

    imu_rate, aid_rate = sample_rates(meta)
    _check_rate("imu.csv", imu_tab[:, 0], imu_rate)
    _check_rate("aid.csv", aid_tab[:, 0], aid_rate)

    ratio = int(round(imu_rate / aid_rate))
    sub = imu_tab[::ratio, 0][: aid_tab.shape[0]]
    if sub.size != aid_tab.shape[0] or np.max(np.abs(sub - aid_tab[:, 0])) > 1e-9:
        raise RecordingFormatError(
            "aid.csv: aiding timestamps are not every "
            f"{ratio}th IMU timestamp"
        )
    if truth_tab.shape[0] != imu_tab.shape[0]:
        raise RecordingFormatError("truth.csv: row count differs from imu.csv")

    try:
        return Recording(
            imu=ImuData(imu_tab[:, 0], imu_tab[:, 1:4], imu_tab[:, 4:7]),
            aid=AidData(aid_tab[:, 0], aid_tab[:, 1], aid_tab[:, 2], aid_tab[:, 3]),
            truth=TruthTrack(truth_tab[:, 0], truth_tab[:, 1:4]),
            meta=meta,
        )
    except InvalidArgumentError as exc:
        raise RecordingFormatError(str(exc)) from exc
