"""Sliding-window dataset assembly.

A window is one range of :func:`~headalign.recording.window_grid`, the
grid the classical methods score on too, and yields two 6-row images
plus a label:

- branch-1 input: gyro and accelerometer rows at the IMU rate, mean-pooled
  down to the aiding rate (rows: wx, wy, wz, fx, fy, fz);
- branch-2 input: navigation-frame reference rows at the aiding rate
  (rows: Earth-rate N/E/D, gravity N/E/D, from the measured latitude);
- label: the heading at the window's last aiding sample.

Training windows slide with a 1 s stride and are shuffled; evaluation
windows are non-overlapping and kept in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from ..errors import InsufficientDataError, InvalidArgumentError
from ..recording import Recording, WindowGrid, window_grid, window_starts
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


def _gather(rows: list[Array], grids: list[WindowGrid]) -> Array:
    """The ``(n, 1, 6, W)`` windows of every grid, cut from its
    recording's ``(6, m)`` rows by one index into all the rows joined end
    to end.  The joined copy is C-ordered, and so is the gather."""
    offsets = np.cumsum([0] + [r.shape[1] for r in rows[:-1]])
    joined = np.ascontiguousarray(np.concatenate(rows, axis=1))
    every = sliding_window_view(joined, grids[0].width, axis=1).transpose(1, 0, 2)
    return every[np.concatenate([g.aid_start + o for g, o in zip(grids, offsets)])][:, None]


def make_windows(
    recordings: list[Recording],
    t_align: float,
    mode: str,
    seed: int = 0,
) -> WindowSet:
    """Cut every recording into the windows of its
    :func:`~headalign.recording.window_grid` at one alignment time.

    Every recording must hold at least one window, and all of them the
    same window width.  In train mode per-row mean/std over the produced
    set are attached as ``stats`` (rows with zero spread get std 1.0).
    """
    window_starts(0.0, t_align, mode)  # rejects a bad mode or window length
    if not recordings:
        raise InsufficientDataError("no recordings supplied")

    grids = [window_grid(rec, t_align, mode) for rec in recordings]
    for ri, grid in enumerate(grids):
        if not grid.starts.size:
            raise InsufficientDataError(f"recording {ri} is too short for a {t_align:g} s window")
        if grid.width != grids[0].width:
            raise InvalidArgumentError(
                f"recordings 0 and {ri} give {grids[0].width} and {grid.width} aiding samples "
                f"per {t_align:g} s window; one window set needs one width"
            )

    pooled, nav = [], []
    for rec, grid in zip(recordings, grids):
        k, n_imu = grid.ratio, len(rec.imu)
        body = np.concatenate([rec.imu.omega.T, rec.imu.f.T], axis=0)
        pooled.append(avgpool_rate_match(body[:, : (n_imu // k) * k], k))
        nav.append(_nav_rows(rec.aid))
    x1, x2 = _gather(pooled, grids), _gather(nav, grids)
    pairs = list(zip(recordings, grids))
    y = np.concatenate([rec.aid.heading_gt[g.aid_start + g.width - 1] for rec, g in pairs])
    rec_index = np.repeat(np.arange(len(recordings), dtype=np.int64), [g.starts.size for g in grids])
    t_start = np.concatenate([rec.imu.t[0] + g.starts for rec, g in pairs])

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
