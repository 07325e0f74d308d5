from __future__ import annotations

import hashlib
import importlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import headalign

from headalign.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    ShapeError,
    TrainingDivergedError,
)
from headalign.nn.data import make_windows
from headalign.nn import model as nn_model
from headalign.nn.blas import blas_control
from headalign.nn.loss import cmse_loss
from headalign.nn.model import build_headingnet
from headalign.nn.optim import AdamW, steplr
from headalign.nn.train import TrainConfig, default_train_config, train

# the package re-exports the train() function under the submodule's name
nn_train = importlib.import_module("headalign.nn.train")


class TestCmseLoss:
    def test_zero_at_perfect_prediction(self):
        y = np.array([0.1, -2.0, 3.0])
        loss, grad = cmse_loss(y, y)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_full_turn_is_free(self):
        y = np.array([0.4])
        loss, _ = cmse_loss(y + 2.0 * np.pi, y)
        assert loss < 1e-25

    def test_quarter_turn_scaled_reference(self):
        loss, _ = cmse_loss(np.array([np.pi / 2]), np.array([0.0]), scale=10.0)
        assert loss == pytest.approx(24.674011002723397, abs=1e-9)

    def test_wrap_beats_linear_difference(self):
        # nominal difference 2 pi - 0.1 must be charged as 0.1
        loss, grad = cmse_loss(np.array([2.0 * np.pi - 0.05]), np.array([-0.05]))
        assert loss == pytest.approx(0.0, abs=1e-25)
        loss, grad = cmse_loss(np.array([np.pi + 0.1]), np.array([-np.pi]))
        assert loss == pytest.approx(0.01, abs=1e-12)
        assert grad[0] == pytest.approx(0.2, abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(40)
        pred = rng.uniform(-3.0, 3.0, 8)
        target = rng.uniform(-3.0, 3.0, 8)
        _, grad = cmse_loss(pred, target, scale=7.0)
        eps = 1e-7
        for i in range(8):
            p = pred.copy()
            p[i] += eps
            hi, _ = cmse_loss(p, target, scale=7.0)
            p[i] -= 2 * eps
            lo, _ = cmse_loss(p, target, scale=7.0)
            assert grad[i] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6, abs=1e-10)

    def test_scale_is_linear(self):
        pred = np.array([0.3, -0.8])
        target = np.array([0.1, 0.2])
        l1, g1 = cmse_loss(pred, target, scale=1.0)
        l2, g2 = cmse_loss(pred, target, scale=2.0)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-15)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-15)

    def test_scale_lr_tradeoff_on_quadratic_descent(self):
        # doubling the loss scale and halving the step size walks the
        # identical plain-gradient-descent trajectory
        target = np.array([1.0])

        def descend(scale, lr, steps=50):
            theta = np.array([-2.0])
            path = []
            for _ in range(steps):
                _, g = cmse_loss(theta, target, scale=scale)
                theta = theta - lr * g
                path.append(theta[0])
            return np.array(path)

        np.testing.assert_allclose(descend(1.0, 0.2), descend(2.0, 0.1), atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            cmse_loss(np.array([]), np.array([]))

    def test_broadcasting_shapes_rejected(self):
        # (3,) against (3, 1) would broadcast to a 3x3 gradient
        with pytest.raises(ShapeError, match=r"\(3,\) does not match target shape \(3, 1\)"):
            cmse_loss(np.zeros(3), np.zeros((3, 1)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError, match=r"\(3,\) does not match target shape \(2,\)"):
            cmse_loss(np.zeros(3), np.zeros(2))


class TestStepLR:
    def test_staircase_values(self):
        assert steplr(0.0009, 0.8, 120, 0) == 0.0009
        assert steplr(0.0009, 0.8, 120, 119) == 0.0009
        assert steplr(0.0009, 0.8, 120, 120) == pytest.approx(0.00072)
        assert steplr(0.0009, 0.8, 120, 240) == pytest.approx(5.76e-4)
        assert steplr(0.0009, 0.8, 120, 360) == pytest.approx(4.608e-4)

    def test_invalid_step(self):
        with pytest.raises(InvalidArgumentError):
            steplr(1e-3, 0.8, 0, 5)


class TestAdamW:
    def test_zero_gradient_leaves_params_alone(self):
        p = np.array([1.0, -2.0, 3.0])
        g = np.zeros(3)
        opt = AdamW([("p", p, g)], lr=0.01, weight_decay=0.0)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])

    def test_decoupled_decay_factor(self):
        # zero gradient: each step multiplies by exactly (1 - lr * wd)
        p = np.array([2.0])
        g = np.zeros(1)
        opt = AdamW([("p", p, g)], lr=0.0008, weight_decay=0.08)
        opt.step()
        assert p[0] == pytest.approx(2.0 * (1.0 - 6.4e-5), rel=1e-15)
        opt.step()
        assert p[0] == pytest.approx(2.0 * (1.0 - 6.4e-5) ** 2, rel=1e-15)

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = np.array([0.0, 0.0])
        g = np.array([1.0, -3.0])
        opt = AdamW([("p", p, g)], lr=0.25)
        opt.step()
        np.testing.assert_allclose(p, [-0.25, 0.25], rtol=1e-7)

    def test_quadratic_convergence(self):
        theta_star = np.array([1.5, -2.0, 0.25])
        p = np.zeros(3)
        g = np.zeros(3)
        opt = AdamW([("p", p, g)], lr=0.01)
        for k in range(5000):
            g[...] = p - theta_star
            opt.step()
            if np.linalg.norm(p - theta_star) < 1e-6:
                break
        assert np.linalg.norm(p - theta_star) < 1e-6
        assert k < 2000

    def test_gradient_shape_mismatch(self):
        p = np.zeros(3)
        opt = AdamW([("p", p, np.zeros((2, 2)))])
        with pytest.raises(ShapeError):
            opt.step()

    def test_zero_grad(self):
        g = np.ones(4)
        opt = AdamW([("p", np.zeros(4), g)])
        opt.zero_grad()
        np.testing.assert_array_equal(g, np.zeros(4))


@pytest.fixture(scope="module")
def small_windows(noisy_recording):
    rec = noisy_recording.slice_window(0.0, 42.0)
    return make_windows([rec], 10.0, "train", seed=1)


class TestTrainLoop:
    def test_zero_epochs_freezes_stats_only(self, small_windows):
        model = build_headingnet(10, seed=1)
        before = [p.copy() for _, p, _ in model.params()]
        cfg = default_train_config(10, seed=1, epochs=0)
        model, history = train(model, small_windows, cfg)
        assert history == []
        assert not model.training
        for (_, p, _), b in zip(model.params(), before):
            np.testing.assert_array_equal(p, b)
        np.testing.assert_array_equal(model.norm["mean1"], small_windows.stats["mean1"])
        np.testing.assert_array_equal(model.norm["std2"], small_windows.stats["std2"])

    def test_loss_decreases_on_small_problem(self, small_windows):
        model = build_headingnet(10, seed=1)
        cfg = default_train_config(10, seed=1, epochs=6, lr=0.05, batch=64)
        model, history = train(model, small_windows, cfg)
        assert len(history) == 6
        assert history[-1][2] < 0.6 * history[0][2]

    def test_history_learning_rates_follow_schedule(self, small_windows):
        model = build_headingnet(10, seed=2)
        cfg = default_train_config(10, seed=2, epochs=5, scheduler_step=2, gamma=0.5, lr=0.01)
        _, history = train(model, small_windows, cfg)
        lrs = [h[1] for h in history]
        np.testing.assert_allclose(lrs, [0.01, 0.01, 0.005, 0.005, 0.0025], rtol=1e-12)
        assert [h[0] for h in history] == [0, 1, 2, 3, 4]

    def test_training_is_deterministic(self, small_windows):
        runs = []
        for _ in range(2):
            model = build_headingnet(10, seed=3)
            cfg = default_train_config(10, seed=3, epochs=2)
            model, history = train(model, small_windows, cfg)
            runs.append((history, [p.copy() for _, p, _ in model.params()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_input_aborts_with_diagnostics(self, small_windows):
        import copy

        ws = copy.copy(small_windows)
        ws.x1 = small_windows.x1.copy()
        ws.x1[0] = np.nan  # a lone NaN can lose a max-pool comparison; poison the window
        model = build_headingnet(10, seed=4)
        cfg = default_train_config(10, seed=4, epochs=1)
        with pytest.raises(TrainingDivergedError) as exc:
            train(model, ws, cfg)
        msg = str(exc.value)
        assert "epoch 0" in msg and "batch 0" in msg
        assert "b1.conv1" in msg
        assert exc.value.code == "training-diverged"

    def test_empty_window_set_rejected(self, small_windows):
        import copy

        ws = copy.copy(small_windows)
        ws.x1 = ws.x1[:0]
        ws.x2 = ws.x2[:0]
        ws.y = ws.y[:0]
        model = build_headingnet(10, seed=0)
        with pytest.raises(InsufficientDataError):
            train(model, ws, default_train_config(10, seed=0, epochs=1))

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            TrainConfig(epochs=-1, loss_scale=1.0, lr=1e-3, weight_decay=0.0, scheduler_step=10, seed=0)
        with pytest.raises(InvalidArgumentError):
            default_train_config(45, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 0.0, "gamma must be in (0, 1], got 0.0"),
        ("gamma", 1.5, "gamma must be in (0, 1], got 1.5"),
        ("gamma", float("nan"), "gamma must be finite, got nan"),
        ("betas", (1.0, 0.999), "beta1 must be in [0, 1), got 1.0"),
        ("betas", (0.9, -0.1), "beta2 must be in [0, 1), got -0.1"),
        ("betas", (0.9, float("inf")), "betas[1] must be finite, got inf"),
        ("eps", 0.0, "eps must be > 0, got 0.0"),
        ("eps", "tiny", "eps must be a number, got 'tiny'"),
        ("scheduler_step", 0, "epochs must be >= 0, batch >= 1 and scheduler_step >= 1"),
        ("epochs", 1.5, "epochs must be an integer, got 1.5"),
        ("epochs", float("nan"), "epochs must be an integer, got nan"),
        ("epochs", float("inf"), "epochs must be an integer, got inf"),
        ("epochs", "3", "epochs must be an integer, got '3'"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("batch", 2.5, "batch must be an integer, got 2.5"),
        ("batch", False, "batch must be an integer, got False"),
        ("scheduler_step", 1.5, "scheduler_step must be an integer, got 1.5"),
        ("lr", "0.001", "lr must be a number, got '0.001'"),
        ("lr", True, "lr must be a number, got True"),
        ("betas", (0.9,), "betas must be a list of 2 entries, got (0.9,)"),
        ("betas", (0.9, "0.999"), "betas[1] must be a number, got '0.999'"),
        ("momentum", 0.9, "unknown train field(s) ['momentum']; expected ['epochs', 'loss_scale', 'lr', "
                          "'weight_decay', 'scheduler_step', 'seed', 'batch', 'gamma', 'betas', 'eps']"),
    ])
    def test_config_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(InvalidArgumentError) as exc:
            default_train_config(10, seed=0, **{field: value})
        assert str(exc.value) == message

    def test_config_accepts_range_edges(self):
        cfg = default_train_config(10, seed=0, gamma=1.0, betas=(0.0, 0.0), weight_decay=0.0)
        assert cfg.gamma == 1.0 and cfg.betas == (0.0, 0.0) and cfg.weight_decay == 0.0

    def test_default_config_table(self):
        cfg = default_train_config(90, seed=9)
        assert (cfg.epochs, cfg.loss_scale, cfg.lr) == (500, 100.0, 0.0005)
        assert (cfg.weight_decay, cfg.scheduler_step) == (0.8, 150)
        assert cfg.batch == 512 and cfg.gamma == 0.8
        over = default_train_config(90, seed=9, epochs=7, lr=0.1)
        assert over.epochs == 7 and over.lr == 0.1


# -- branch walks on two threads -------------------------------------------

needs_blas_control = pytest.mark.skipif(
    blas_control() is None,
    reason="no OpenBLAS thread-count symbol found: train() cannot hold BLAS to one thread and walks serially",
)


def _trained(t_align, windows, cpus, monkeypatch):
    """A seeded one-epoch train() with the CPU-count probe reading
    ``cpus``; returns its history, parameter bytes and whether any walk
    ran its branches on the lent pool."""
    monkeypatch.setattr(nn_train, "_cpu_count", lambda: cpus)
    pooled = []
    both = nn_model._both
    monkeypatch.setattr(nn_model, "_both", lambda pool, f1, f2: pooled.append(pool is not None) or both(pool, f1, f2))
    model, history = train(build_headingnet(t_align, seed=5), windows,
                           default_train_config(t_align, seed=5, epochs=1, batch=64))
    return history, [p.tobytes() for _, p, _ in model.params()], any(pooled)


@needs_blas_control
@pytest.mark.parametrize("t_align", [10, 60])
def test_concurrent_branch_walks_change_no_bit(noisy_recording, monkeypatch, t_align):
    """Both runs are under train()'s one-thread BLAS hold; the serial one
    sees one CPU, so no pool is lent.  Tolerance 0."""
    windows = make_windows([noisy_recording], float(t_align), "train", seed=5)
    serial = _trained(t_align, windows, 1, monkeypatch)
    concurrent = _trained(t_align, windows, 2, monkeypatch)
    assert (serial[2], concurrent[2]) == (False, True)
    assert concurrent[0] == serial[0]
    assert concurrent[1] == serial[1]


_CHECKPOINT_SCRIPT = """
import sys
from headalign.nn.data import make_windows
from headalign.nn.model import build_headingnet, save_checkpoint
from headalign.nn.train import default_train_config, train
from headalign.simulate import DEFAULT_SENSORS, scenario_bank, simulate_recording
rec = simulate_recording(scenario_bank(42, duration=60.0)[0], DEFAULT_SENSORS)
model, _ = train(build_headingnet(10, seed=42), make_windows([rec], 10.0, "train", seed=42),
                 default_train_config(10, seed=42, epochs=1))
save_checkpoint(model, sys.argv[1])
"""


@needs_blas_control
def test_trained_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    """At 1 and 2 BLAS threads the parent code trained different bytes."""
    src = os.path.dirname(os.path.dirname(headalign.__file__))
    digests = []
    for threads in ("1", "2"):
        path = tmp_path / f"blas{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _CHECKPOINT_SCRIPT, str(path)], env=env, check=True)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


class _BranchFault(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["returns", "diverges", "branch1_raises", "branch2_raises"])
def test_train_restores_blas_threads_and_joins_its_pool(small_windows, monkeypatch, case, cpus):
    """After train() returns or raises, the BLAS thread count and the
    thread count are what they were, and no layer keeps a forward cache.
    A branch's error surfaces with its own class.  With a pool lent, it
    surfaces after the other branch has ended (branch 2 is slowed when
    branch 1 raises); walking serially, a branch-1 error stops the walk
    before branch 2 starts."""
    monkeypatch.setattr(nn_train, "_cpu_count", lambda: cpus)
    pooled = []
    both = nn_model._both
    monkeypatch.setattr(nn_model, "_both", lambda pool, f1, f2: pooled.append(pool is not None) or both(pool, f1, f2))
    model = build_headingnet(10, seed=6)
    ended, blas_inside = set(), []

    def watch_last(branch, pause):
        layer = branch[-1]

        def forward(x, training=False, rng=None):
            time.sleep(pause)
            blas_inside.append(blas_control()[0]() if blas_control() else None)
            ended.add(layer.name)
            return type(layer).forward(layer, x, training, rng)

        layer.forward = forward

    def fault(x, training=False, rng=None):
        raise _BranchFault(case)

    watch_last(model.branch1, 0.0)
    watch_last(model.branch2, 0.2 if case == "branch1_raises" else 0.0)
    if case == "diverges":
        model.fc[0].W[0, 0] = np.nan
    elif case == "branch1_raises":
        model.branch1[0].forward = fault
    elif case == "branch2_raises":
        model.branch2[0].forward = fault
    threads = threading.active_count()
    blas = blas_control()[0]() if blas_control() else None
    cfg = default_train_config(10, seed=6, epochs=1)
    if case == "returns":
        train(model, small_windows, cfg)
    else:
        with pytest.raises(TrainingDivergedError if case == "diverges" else _BranchFault):
            train(model, small_windows, cfg)
    assert pooled[0] == (blas is not None and cpus >= 2)  # the first training walk
    failed = {"branch1_raises": {"b1.act3"}, "branch2_raises": {"b2.act3"}}.get(case, set())
    if case == "branch1_raises" and not pooled[0]:
        failed = {"b1.act3", "b2.act3"}
    assert ended == {"b1.act3", "b2.act3"} - failed
    if blas is not None:
        assert set(blas_inside) == ({1} if ended else set())
        assert blas_control()[0]() == blas
    assert threading.active_count() == threads
    assert [layer.name for layer in model.layers() if layer._cache is not None] == []


def test_both_returns_only_after_branch2_when_branch1_raises():
    from concurrent.futures import ThreadPoolExecutor

    ended = []

    def fault():
        raise _BranchFault("branch 1")

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(_BranchFault):
            nn_model._both(pool, fault, lambda: time.sleep(0.2) or ended.append("b2"))
        assert ended == ["b2"]
