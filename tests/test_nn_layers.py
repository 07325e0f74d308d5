"""Finite-difference gradient checks and small closed-form examples for
every layer.  The numeric oracle perturbs one entry at a time and
compares the central difference of a scalar probe against the analytic
backward pass."""
from __future__ import annotations

import numpy as np
import pytest

from headalign.errors import ForwardCacheError, HeadAlignError, InvalidArgumentError, ShapeError
from headalign.nn.layers import (
    AvgPool1d,
    Conv2d,
    Dropout,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool1x2,
    Tanh,
    avgpool_rate_match,
)
from headalign.rng import stream


def numeric_input_grad(run, x, dy, eps=1e-6):
    """Central-difference gradient of sum(run(x) * dy) w.r.t. x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = float(np.sum(run(x) * dy))
        flat[i] = keep - eps
        lo = float(np.sum(run(x) * dy))
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def numeric_param_grad(run, x, dy, param, eps=1e-6):
    g = np.zeros_like(param)
    flat = param.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = float(np.sum(run(x) * dy))
        flat[i] = keep - eps
        lo = float(np.sum(run(x) * dy))
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / scale


class TestConv2d:
    def test_one_by_one_identity(self):
        conv = Conv2d(1, 1, (1, 1))
        conv.W[...] = 1.0
        x = np.arange(12.0).reshape(1, 1, 3, 4)
        np.testing.assert_array_equal(conv.forward(x), x)

    def test_ones_kernel_counts_window(self):
        conv = Conv2d(1, 1, (2, 2))
        conv.W[...] = 1.0
        x = np.ones((1, 1, 3, 3))
        np.testing.assert_array_equal(conv.forward(x), np.full((1, 1, 2, 2), 4.0))

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(20)
        conv = Conv2d(3, 2, (2, 3))
        conv.W[...] = rng.normal(size=conv.W.shape)
        conv.b[...] = rng.normal(size=2)
        x = rng.normal(size=(2, 3, 4, 6))
        y = conv.forward(x)
        assert y.shape == (2, 2, 3, 4)
        for n in range(2):
            for o in range(2):
                for i in range(3):
                    for j in range(4):
                        ref = conv.b[o] + np.sum(
                            x[n, :, i : i + 2, j : j + 3] * conv.W[o]
                        )
                        assert y[n, o, i, j] == pytest.approx(ref, rel=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(21)
        conv = Conv2d(2, 3, (2, 4))
        conv.W[...] = 0.5 * rng.normal(size=conv.W.shape)
        conv.b[...] = 0.1 * rng.normal(size=3)
        x = rng.normal(size=(2, 2, 3, 7))
        dy = rng.normal(size=(2, 3, 2, 4))
        conv.forward(x)
        dx = conv.backward(dy)
        assert rel_err(dx, numeric_input_grad(lambda v: conv.forward(v), x, dy)) < 1e-4
        assert rel_err(conv.dW, numeric_param_grad(lambda v: conv.forward(v), x, dy, conv.W)) < 1e-4
        assert rel_err(conv.db, numeric_param_grad(lambda v: conv.forward(v), x, dy, conv.b)) < 1e-4

    def test_shape_errors(self):
        conv = Conv2d(2, 1, (2, 2))
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 3, 4, 4)))  # wrong channel count
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 1, 4)))  # kernel taller than input


class TestMaxPool1x2:
    def test_pairwise_max(self):
        pool = MaxPool1x2()
        x = np.array([1.0, 3.0, 2.0, 8.0]).reshape(1, 1, 1, 4)
        np.testing.assert_array_equal(pool.forward(x).ravel(), [3.0, 8.0])

    def test_odd_width_drops_last(self):
        pool = MaxPool1x2()
        x = np.array([5.0, 1.0, 7.0]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(pool.forward(x).ravel(), [5.0])
        dx = pool.backward(np.array([[[[2.0]]]]))
        np.testing.assert_array_equal(dx.ravel(), [2.0, 0.0, 0.0])

    def test_tie_routes_to_first(self):
        pool = MaxPool1x2()
        x = np.array([4.0, 4.0]).reshape(1, 1, 1, 2)
        pool.forward(x)
        dx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(dx.ravel(), [1.0, 0.0])

    def test_backward_scatters_to_argmax(self):
        pool = MaxPool1x2()
        x = np.array([1.0, 3.0, 2.0, 8.0, 9.0, 0.0]).reshape(1, 1, 1, 6)
        pool.forward(x)
        dx = pool.backward(np.array([10.0, 20.0, 30.0]).reshape(1, 1, 1, 3))
        np.testing.assert_array_equal(dx.ravel(), [0.0, 10.0, 0.0, 20.0, 30.0, 0.0])

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(22)
        pool = MaxPool1x2()
        x = rng.normal(size=(2, 3, 2, 8))
        dy = rng.normal(size=(2, 3, 2, 4))
        pool.forward(x)
        dx = pool.backward(dy)
        assert rel_err(dx, numeric_input_grad(lambda v: pool.forward(v), x, dy)) < 1e-6


class TestActivations:
    def test_leaky_relu_values(self):
        act = LeakyReLU(0.05)
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(act.forward(x), [-0.1, 0.0, 3.0], atol=1e-15)

    def test_leaky_relu_gradient(self):
        rng = np.random.default_rng(23)
        act = LeakyReLU(0.05)
        x = rng.normal(size=(4, 7)) + np.sign(rng.normal(size=(4, 7))) * 0.05
        dy = rng.normal(size=(4, 7))
        act.forward(x)
        assert rel_err(act.backward(dy), numeric_input_grad(lambda v: act.forward(v), x, dy)) < 1e-6

    def test_tanh_values_and_gradient(self):
        act = Tanh()
        assert act.forward(np.array([0.0]))[0] == 0.0
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(act.forward(x), np.tanh(x), atol=1e-15)
        dy = rng.normal(size=(3, 5))
        act.forward(x)
        assert rel_err(act.backward(dy), numeric_input_grad(lambda v: act.forward(v), x, dy)) < 1e-6


def where_pool(x, dy):
    """MaxPool1x2 forward and backward in their np.where formulation."""
    w = x.shape[-1] - x.shape[-1] % 2
    a, b = x[..., 0:w:2], x[..., 1:w:2]
    first = a >= b
    dx = np.zeros(x.shape)
    dx[..., 0:w:2] = np.where(first, dy, 0.0)
    dx[..., 1:w:2] = np.where(first, 0.0, dy)
    return np.where(first, a, b), dx


def where_leaky_relu(x, dy, alpha):
    """LeakyReLU forward and backward in their np.where formulation."""
    pos = x > 0
    return np.where(pos, x, alpha * x), np.where(pos, dy, alpha * dy)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _signed_zeros(rng, a):
    """``a`` with each exact zero given a random sign."""
    return np.where(a == 0, rng.choice([-0.0, 0.0], size=a.shape), a)


def where_case(kind, shape, seed):
    """(x, dy) with random values, or with small integers, many of them
    tied within a pooling pair and many zeros of either sign."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=shape), rng.normal(size=shape)
    x, dy = (_signed_zeros(rng, rng.integers(-2, 3, size=shape).astype(float)) for _ in range(2))
    x[..., 1::2] = np.where(rng.random(x[..., 1::2].shape) < 0.5, x[..., 0 : shape[-1] - 1 : 2], x[..., 1::2])
    x[..., 1::2][x[..., 1::2] == 0] *= -1.0  # ties of 0.0 and -0.0
    return x, dy


WHERE_SHAPES = [(1, 16, 5, 40), (1, 16, 5, 41), (512, 16, 5, 41)]


class TestWhereFormulation:
    """The pooling and activation passes give, bit for bit, what their
    np.where formulation gives: values, tie routing and signed zeros."""

    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("shape", WHERE_SHAPES, ids=str)
    def test_max_pool(self, shape, kind):
        x, dy_in = where_case(kind, shape, seed=shape[0] + shape[-1])
        pool = MaxPool1x2()
        y = pool.forward(x)
        dy = dy_in[..., : y.shape[-1]]
        y_ref, dx_ref = where_pool(x, dy)
        assert_same_bits(y, y_ref)
        assert_same_bits(pool.backward(dy), dx_ref)

    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("shape", WHERE_SHAPES, ids=str)
    def test_leaky_relu(self, shape, kind):
        x, dy = where_case(kind, shape, seed=shape[0] + shape[-1] + 1)
        for alpha in (0.0, 0.05, 0.1, 1.0):
            act = LeakyReLU(alpha)
            y_ref, dx_ref = where_leaky_relu(x, dy, alpha)
            assert_same_bits(act.forward(x), y_ref)
            assert_same_bits(act.backward(dy), dx_ref)

    @pytest.mark.parametrize("alpha", [-0.01, 1.5, np.nan, np.inf, -np.inf])
    def test_leaky_slope_outside_unit_interval_refused(self, alpha):
        with pytest.raises(InvalidArgumentError, match="leaky slope must be in"):
            LeakyReLU(alpha)


class TestDropout:
    def test_identity_when_eval_or_p_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        assert Dropout(0.5).forward(x, training=False) is x
        assert Dropout(0.0).forward(x, training=True) is x

    def test_requires_rng_in_training(self):
        with pytest.raises(InvalidArgumentError):
            Dropout(0.3).forward(np.ones((2, 2)), training=True)

    def test_invalid_probability(self):
        with pytest.raises(InvalidArgumentError):
            Dropout(1.0)
        with pytest.raises(InvalidArgumentError):
            Dropout(-0.1)

    def test_keep_fraction_and_inverted_scaling(self):
        p = 0.3
        x = np.ones((1000, 1000))
        drop = Dropout(p)
        y = drop.forward(x, training=True, rng=stream(0, "dropout-test"))
        kept = y != 0.0
        assert kept.mean() == pytest.approx(1.0 - p, abs=0.01)
        # survivors are scaled by 1/(1-p), so the expectation is preserved
        np.testing.assert_allclose(y[kept], 1.0 / (1.0 - p), atol=1e-15)
        assert y.mean() == pytest.approx(1.0, abs=0.01)

    def test_mask_reproducible_from_stream(self):
        drop = Dropout(0.4)
        x = np.ones((8, 8))
        a = drop.forward(x, training=True, rng=stream(5, "mask"))
        b = drop.forward(x, training=True, rng=stream(5, "mask"))
        np.testing.assert_array_equal(a, b)

    def test_gradient_with_frozen_mask(self):
        rng = np.random.default_rng(25)
        drop = Dropout(0.4)
        x = rng.normal(size=(5, 6))
        dy = rng.normal(size=(5, 6))

        def run(v):
            return drop.forward(v, training=True, rng=stream(9, "fd"))

        run(x)
        dx = drop.backward(dy)
        assert rel_err(dx, numeric_input_grad(run, x, dy)) < 1e-6


class TestLinear:
    def test_known_affine_map(self):
        fc = Linear(2, 2)
        fc.W[...] = [[1.0, 2.0], [3.0, 4.0]]
        fc.b[...] = [0.5, -1.0]
        y = fc.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(y, [[3.5, 6.0]])

    def test_gradients(self):
        rng = np.random.default_rng(26)
        fc = Linear(7, 4)
        fc.W[...] = rng.normal(size=(4, 7))
        fc.b[...] = rng.normal(size=4)
        x = rng.normal(size=(3, 7))
        dy = rng.normal(size=(3, 4))
        fc.forward(x)
        dx = fc.backward(dy)
        assert rel_err(dx, numeric_input_grad(lambda v: fc.forward(v), x, dy)) < 1e-6
        assert rel_err(fc.dW, numeric_param_grad(lambda v: fc.forward(v), x, dy, fc.W)) < 1e-6
        assert rel_err(fc.db, numeric_param_grad(lambda v: fc.forward(v), x, dy, fc.b)) < 1e-6

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            Linear(3, 2).forward(np.zeros((1, 4)))


class TestFlattenAndAvgPool:
    def test_flatten_round_trip(self):
        fl = Flatten()
        x = np.arange(24.0).reshape(2, 3, 4)
        y = fl.forward(x)
        assert y.shape == (2, 12)
        np.testing.assert_array_equal(y[0], x[0].ravel())  # row-major order
        np.testing.assert_array_equal(fl.backward(y), x)

    def test_avgpool_means(self):
        pool = AvgPool1d(20)
        x = np.arange(1.0, 21.0).reshape(1, 1, 20)
        np.testing.assert_array_equal(pool.forward(x).ravel(), [10.5])
        x2 = np.full((2, 3, 40), 7.0)
        np.testing.assert_array_equal(pool.forward(x2), np.full((2, 3, 2), 7.0))

    def test_avgpool_gradient(self):
        rng = np.random.default_rng(27)
        pool = AvgPool1d(4)
        x = rng.normal(size=(2, 3, 12))
        dy = rng.normal(size=(2, 3, 3))
        pool.forward(x)
        dx = pool.backward(dy)
        assert rel_err(dx, numeric_input_grad(lambda v: pool.forward(v), x, dy)) < 1e-6

    def test_rate_match_matches_block_means(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(6, 100))
        y = avgpool_rate_match(x, 20)
        assert y.shape == (6, 5)
        for j in range(5):
            np.testing.assert_allclose(y[:, j], x[:, 20 * j : 20 * (j + 1)].mean(axis=1), atol=1e-15)

    def test_rate_match_rejects_non_divisor(self):
        with pytest.raises(ShapeError):
            avgpool_rate_match(np.zeros((2, 10)), 3)
        with pytest.raises(InvalidArgumentError):
            AvgPool1d(0)


def _cache_cases():
    """(layer, input shape, forward in training mode) for every layer class
    that caches: both Conv2d paths, with and without the input gradient,
    and Dropout in training mode, in eval mode and at p = 0."""
    return [
        (Conv2d(2, 3, (2, 3), name="direct"), (2, 2, 3, 6), False),
        (Conv2d(2, 3, (2, 3), name="direct_no_dx", input_grad=False), (2, 2, 3, 6), False),
        (Conv2d(2, 3, (1, 60), name="spectral"), (2, 2, 2, 120), False),
        (MaxPool1x2(name="pool"), (2, 3, 2, 7), False),
        (LeakyReLU(0.05, name="act"), (3, 4), False),
        (Tanh(name="tanh"), (3, 4), False),
        (Dropout(0.3, name="drop_train"), (5, 6), True),
        (Dropout(0.3, name="drop_eval"), (5, 6), False),
        (Dropout(0.0, name="drop_p0"), (5, 6), True),
        (Linear(4, 3, name="fc"), (2, 4), False),
        (Flatten(name="flatten"), (2, 3, 4), False),
    ]


class TestForwardCache:
    """Backward consumes the cache its forward left, so a backward with no
    forward before it raises a typed error naming the layer."""

    @pytest.mark.parametrize("case", range(len(_cache_cases())))
    def test_second_backward_raises(self, case):
        layer, shape, training = _cache_cases()[case]
        rng = np.random.default_rng(29)
        with pytest.raises(ForwardCacheError, match=f"^{layer.name}: backward has no forward cache"):
            layer.backward(np.ones(1))
        y = layer.forward(rng.normal(size=shape), training=training, rng=stream(3, "drop"))
        dy = rng.normal(size=y.shape)
        layer.backward(dy)
        with pytest.raises(ForwardCacheError, match=f"^{layer.name}: backward has no forward cache"):
            layer.backward(dy)
        # a new forward makes the next backward valid again
        layer.forward(rng.normal(size=shape), training=training, rng=stream(3, "drop"))
        layer.backward(dy)

    def test_unmasked_dropout_passes_dy_through_once(self):
        dy = np.arange(6.0).reshape(2, 3)
        for drop, training in ((Dropout(0.3), False), (Dropout(0.0), True)):
            drop.forward(np.ones((2, 3)), training=training, rng=stream(3, "drop"))
            assert drop.backward(dy) is dy
            with pytest.raises(ForwardCacheError):
                drop.backward(dy)

    def test_forward_cache_error_is_a_headalign_error(self):
        assert issubclass(ForwardCacheError, HeadAlignError)
        assert ForwardCacheError.code == "forward-cache"
