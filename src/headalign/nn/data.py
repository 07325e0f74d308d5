"""Sliding-window dataset assembly.

A window covers ``[w, w + t_align)`` seconds of one recording and yields
two 6-row images plus a label:

- branch-1 input: gyro and accelerometer rows at the IMU rate, mean-pooled
  down to the aiding rate (rows: wx, wy, wz, fx, fy, fz);
- branch-2 input: navigation-frame reference rows at the aiding rate
  (rows: Earth-rate N/E/D, gravity N/E/D, from the measured latitude);
- label: the last aiding heading inside the window.

Training windows slide with a 1 s stride and are shuffled; evaluation
windows are non-overlapping and kept in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ..errors import InsufficientDataError, InvalidArgumentError
from ..recording import Recording, sample_rates
from ..rng import stream
from ..strapdown import earth_rate_nav, gravity_nav
from .layers import avgpool_rate_match

__all__ = ["WindowSet", "make_windows", "window_starts"]

Array = NDArray[np.float64]


@dataclass
class WindowSet:
    """Assembled window batch; ``stats`` holds per-row normalization
    (set only by train mode, consumed by the trainer)."""

    x1: Array
    x2: Array
    y: Array
    rec_index: NDArray[np.int64]
    t_start: Array
    t_align: float
    stats: dict | None = None

    def __len__(self) -> int:
        return self.y.size


def _nav_rows(aid) -> Array:
    """(6, n) navigation reference rows from the measured latitude."""
    return np.concatenate([earth_rate_nav(aid.lat).T, gravity_nav(aid.lat).T])


def window_starts(duration: float, t_align: float, mode: str) -> np.ndarray:
    """Whole-second window start offsets: stride 1 s for train, stride
    ``ceil(t_align)`` for eval, so that eval windows never overlap.  Every
    window ends within ``duration``.  ``t_align`` must be finite and
    positive."""
    if not (np.isfinite(t_align) and t_align > 0):
        raise InvalidArgumentError(f"window length must be finite and > 0 s, got {t_align}")
    if mode == "train":
        last = int(np.floor(duration - t_align + 1e-9))
        return np.arange(0, last + 1)
    step = int(np.ceil(t_align))
    n = int(np.floor((duration - t_align) / step + 1e-9)) + 1
    return np.arange(0, n) * step


def make_windows(
    recordings: list[Recording],
    t_align: float,
    mode: str,
    seed: int = 0,
) -> WindowSet:
    """Cut every recording into windows for one alignment time.

    Window starts are whole seconds; a recording must cover at least one
    full window.  In train mode per-row mean/std over the produced set
    are attached as ``stats`` (rows with zero spread get std 1.0).
    """
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not recordings:
        raise InsufficientDataError("no recordings supplied")

    x1_all, x2_all, y_all, idx_all, t0_all = [], [], [], [], []
    for ri, rec in enumerate(recordings):
        imu_rate, aid_rate = sample_rates(rec.meta)
        k = int(round(imu_rate / aid_rate))
        n_imu = len(rec.imu)
        duration = n_imu / imu_rate
        starts = window_starts(duration, t_align, mode)
        if duration + 1e-9 < t_align:
            raise InsufficientDataError(
                f"recording {ri} covers {duration:.1f} s < window {t_align:.1f} s"
            )

        width = int(round(aid_rate * t_align))
        body = np.concatenate([rec.imu.omega.T, rec.imu.f.T], axis=0)
        pooled = avgpool_rate_match(body[:, : (n_imu // k) * k], k)
        nav = _nav_rows(rec.aid)

        for w in starts:
            j0 = int(round(w * aid_rate))
            j1 = j0 + width
            if j1 > pooled.shape[1] or j1 > nav.shape[1]:
                continue
            x1_all.append(pooled[:, j0:j1])
            x2_all.append(nav[:, j0:j1])
            y_all.append(rec.aid.heading_gt[j1 - 1])
            idx_all.append(ri)
            t0_all.append(rec.imu.t[0] + float(w))

    if not y_all:
        raise InsufficientDataError("no windows produced")

    x1 = np.asarray(x1_all)[:, None, :, :]
    x2 = np.asarray(x2_all)[:, None, :, :]
    y = np.asarray(y_all)
    rec_index = np.asarray(idx_all, dtype=np.int64)
    t_start = np.asarray(t0_all)

    stats = None
    if mode == "train":
        order = stream(seed, "shuffle", "windows").permutation(y.size)
        x1, x2, y = x1[order], x2[order], y[order]
        rec_index, t_start = rec_index[order], t_start[order]
        stats = {}
        for tag, x in (("1", x1), ("2", x2)):
            mean = x.mean(axis=(0, 1, 3))
            std = x.std(axis=(0, 1, 3))
            std = np.where(std < 1e-12, 1.0, std)
            stats[f"mean{tag}"] = mean
            stats[f"std{tag}"] = std

    return WindowSet(x1, x2, y, rec_index, t_start, float(t_align), stats)
