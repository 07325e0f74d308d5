"""Training loop: shuffled minibatches, cyclic loss, AdamW, step decay."""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, InvalidArgumentError, TrainingDivergedError
from ..fields import check_fields, from_dict
from ..rng import stream
from .blas import blas_control, one_blas_thread
from .data import WindowSet
from .loss import cmse_loss
from .model import HeadingModel, variation_fields
from .optim import AdamW, steplr

__all__ = ["TrainConfig", "default_train_config", "train"]


@dataclass
class TrainConfig:
    epochs: int
    loss_scale: float
    lr: float
    weight_decay: float
    scheduler_step: int
    seed: int
    batch: int = 512
    gamma: float = 0.8
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 0 or self.batch < 1 or self.scheduler_step < 1:
            raise InvalidArgumentError("epochs must be >= 0, batch >= 1 and scheduler_step >= 1")
        beta1, beta2 = self.betas
        for name, v, ok, rule in (
            ("lr", self.lr, lambda v: v > 0, "> 0"),
            ("weight_decay", self.weight_decay, lambda v: v >= 0, ">= 0"),
            ("loss_scale", self.loss_scale, lambda v: v > 0, "> 0"),
            ("gamma", self.gamma, lambda v: 0 < v <= 1, "in (0, 1]"),
            ("beta1", beta1, lambda v: 0 <= v < 1, "in [0, 1)"),
            ("beta2", beta2, lambda v: 0 <= v < 1, "in [0, 1)"),
            ("eps", self.eps, lambda v: v > 0, "> 0"),
        ):
            if not ok(v):
                raise InvalidArgumentError(f"{name} must be {rule}, got {v}")


def default_train_config(t_align: int, seed: int, **overrides) -> TrainConfig:
    """Stock hyperparameters of a variation (its ``VARIATIONS`` row);
    keyword overrides win, and one that names no field raises."""
    return from_dict(TrainConfig, variation_fields(t_align, TrainConfig) | {"seed": seed} | overrides, "train")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@contextmanager
def _branch_threads(model: HeadingModel):
    """Inside the block, hold OpenBLAS to one thread and, where its thread
    count can be set and the process may use two or more CPUs, lend
    ``model`` a one-worker pool for its branch walks.  On leaving, by
    return or by raise, the pool is taken back and its thread joined and
    the BLAS thread count is restored.  A raise may leave a walk half
    done, so then, once the pool's thread has ended, every layer's
    forward cache is dropped; on a return each backward has consumed its
    forward's caches already."""
    try:
        with one_blas_thread(), ExitStack() as stack:
            if blas_control() is not None and _cpu_count() >= 2:
                # imported here so that commands which never train do not load it
                from concurrent.futures import ThreadPoolExecutor

                model._pool = stack.enter_context(ThreadPoolExecutor(1, thread_name_prefix="branch2"))
            try:
                yield
            finally:
                model._pool = None
    except BaseException:
        for layer in model.layers():
            layer._cache = None
        raise


def train(
    model: HeadingModel, windows: WindowSet, cfg: TrainConfig
) -> tuple[HeadingModel, list[tuple[int, float, float]]]:
    """Fit the model; returns it in eval mode plus per-epoch history rows
    ``(epoch, lr, train_loss)``.

    Normalization statistics attached to the window set are frozen into
    the model before the first step.  A non-finite loss aborts with the
    epoch, batch, and first offending layer.

    While it runs, the process's OpenBLAS is held to one thread, so the
    trained bytes do not depend on ``OPENBLAS_NUM_THREADS``.  Where that
    hold is possible and the process may use two or more CPUs, every
    forward and backward runs branch 2 on one pool thread while the
    calling thread runs branch 1, with the serial walk's bits.  On
    return or raise the pool's thread has ended, no layer keeps a
    forward cache, and the BLAS thread count is what it was.
    """
    n = len(windows)
    if n == 0:
        raise InsufficientDataError("empty window set")
    if windows.stats is not None:
        model.norm = {k: np.array(v, dtype=float) for k, v in windows.stats.items()}

    with _branch_threads(model):
        model.train()
        opt = AdamW(
            model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay,
            betas=cfg.betas, eps=cfg.eps,
        )
        history: list[tuple[int, float, float]] = []
        for epoch in range(cfg.epochs):
            opt.lr = steplr(cfg.lr, cfg.gamma, cfg.scheduler_step, epoch)
            order = stream(cfg.seed, "shuffle", epoch).permutation(n)
            total = 0.0
            for bi, lo in enumerate(range(0, n, cfg.batch)):
                idx = order[lo : lo + cfg.batch]
                x1, x2, y = windows.x1[idx], windows.x2[idx], windows.y[idx]
                rng = stream(cfg.seed, "dropout", epoch, bi)
                pred = model.forward(x1, x2, rng=rng)
                loss, dpred = cmse_loss(pred, y, cfg.loss_scale)
                if not np.isfinite(loss):
                    model.eval()
                    bad = model.check_finite(x1, x2)
                    where = f"first non-finite output in layer {bad!r}" if bad else "non-finite loss only"
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {bi}: {where}"
                    )
                model.backward(dpred)
                opt.step()
                total += loss * idx.size
            history.append((epoch, opt.lr, total / n))
        model.eval()
    return model, history
