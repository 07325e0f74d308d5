"""Cyclic mean-square-error loss for angle regression."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from ..errors import InsufficientDataError, ShapeError

__all__ = ["cmse_loss"]


def cmse_loss(
    pred: NDArray[np.float64], target: NDArray[np.float64], scale: float = 1.0
) -> tuple[float, NDArray[np.float64]]:
    """Wrap-aware squared angular error.

    err_i = atan2(sin(pred_i - target_i), cos(pred_i - target_i)),
    loss = scale * mean(err_i^2).  Returns (loss, dloss/dpred); the
    gradient is (2 * scale / N) * err_i, since the wrap is locally the
    identity away from +-pi.  ``pred`` and ``target`` must have the same
    shape; anything else raises ``ShapeError``, broadcasting included.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} does not match target shape {target.shape}")
    if pred.size == 0:
        raise InsufficientDataError("loss needs at least one prediction")
    d = pred - target
    err = np.arctan2(np.sin(d), np.cos(d))
    loss = float(scale * np.mean(err * err))
    grad = (2.0 * scale / err.size) * err
    return loss, grad
