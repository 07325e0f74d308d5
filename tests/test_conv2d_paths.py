"""Conv2d's two paths against the single-copy formulas: the direct
path's batch-chunked im2col and per-tap input gradient, and the
spectral path's width-axis rFFT products; the ``input_grad=False``
switch, which layers select the spectral path, and the memory of a
training step at the stock batch.

Tolerance: every output, dW and dx agrees with the reference within
1e-12 relative to the reference's largest magnitude (measured drift on
numpy 2.4.6/OpenBLAS: at most 1.2e-15 on the direct path, 1.6e-15 on the
spectral path).
"""
from __future__ import annotations

import numpy as np
import pytest
from conftest import traced_memory
from numpy.lib.stride_tricks import sliding_window_view

from headalign.nn import layers
from headalign.nn.layers import Conv2d
from headalign.nn.model import build_headingnet, load_checkpoint, save_checkpoint
from headalign.nn.optim import AdamW
from headalign.rng import stream

RTOL = 1e-12


def reference_conv(conv: Conv2d, x, dy):
    """Forward, dW and dx from one im2col copy of the whole batch, dx as
    the full correlation of the zero-padded dy with the flipped kernel."""
    win = sliding_window_view(x, (conv.kh, conv.kw), axis=(2, 3))
    y = np.tensordot(win, conv.W, axes=([1, 4, 5], [1, 2, 3]))
    y = np.ascontiguousarray(y.transpose(0, 3, 1, 2)) + conv.b[None, :, None, None]
    dW = np.tensordot(dy, win, axes=([0, 2, 3], [0, 2, 3]))
    pad = ((0, 0), (0, 0), (conv.kh - 1, conv.kh - 1), (conv.kw - 1, conv.kw - 1))
    dwin = sliding_window_view(np.pad(dy, pad), (conv.kh, conv.kw), axis=(2, 3))
    dx = np.tensordot(dwin, conv.W[:, :, ::-1, ::-1], axes=([1, 4, 5], [0, 2, 3]))
    return y, dW, np.ascontiguousarray(dx.transpose(0, 3, 1, 2))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _conv(in_ch, out_ch, kernel, seed, **kwargs):
    rng = np.random.default_rng(seed)
    conv = Conv2d(in_ch, out_ch, kernel, **kwargs)
    conv.W[...] = rng.normal(size=conv.W.shape)
    conv.b[...] = rng.normal(size=out_ch)
    return conv, rng


CASES = {
    # (in_ch, out_ch, kernel, input shape (N, C, H, W))
    "wide": (3, 4, (2, 3), (9, 3, 5, 11)),
    "one_by_one": (2, 3, (1, 1), (7, 2, 3, 4)),
    "kh_1": (4, 2, (1, 5), (6, 4, 3, 9)),
    "kw_1": (2, 5, (3, 1), (5, 2, 4, 6)),
    "full_width": (4, 2, (2, 11), (6, 4, 3, 11)),
    "single_sample": (16, 32, (2, 7), (1, 16, 6, 20)),
}


@pytest.mark.parametrize("chunked", [False, True], ids=["one_chunk", "chunked"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_single_copy_formulas(monkeypatch, case, chunked):
    in_ch, out_ch, kernel, shape = CASES[case]
    conv, rng = _conv(in_ch, out_ch, kernel, seed=sorted(CASES).index(case))
    x = rng.normal(size=shape)
    if chunked:
        # room for two samples' windows per chunk, so any batch > 2 splits
        per_sample = np.prod(sliding_window_view(x[:1], kernel, axis=(2, 3)).shape) * 8
        monkeypatch.setattr(layers, "IM2COL_BYTES", 2 * per_sample + 1)
    chunks = len(list(conv._windows(x)))
    assert chunks == (-(-shape[0] // 2) if chunked else 1)
    y = conv.forward(x)
    dy = rng.normal(size=y.shape)
    dx = conv.backward(dy)
    y_ref, dW_ref, dx_ref = reference_conv(conv, x, dy)
    if chunks == 1:
        np.testing.assert_array_equal(y, y_ref)  # the same single tensordot
    assert_close(y, y_ref)
    assert_close(conv.dW, dW_ref)
    assert_close(dx, dx_ref)
    np.testing.assert_array_equal(conv.db, dy.sum(axis=(0, 2, 3)))
    assert dx.flags.c_contiguous and y.flags.c_contiguous


def test_chunk_budget_is_per_copy_bytes():
    conv = Conv2d(16, 32, (2, 45))
    x = np.zeros((32, 16, 5, 120))  # HeadingNet60 conv2 input at batch 32
    per_sample = 16 * 4 * 76 * 2 * 45 * 8
    sizes = [win.shape[0] for _, win in conv._windows(x)]
    assert sum(sizes) == 32 and len(sizes) > 1
    assert max(sizes) * per_sample <= layers.IM2COL_BYTES


def test_direct_backward_walks_dw_and_dx_in_chunks_at_the_stock_budget(monkeypatch):
    # HeadingNet10 conv2 at a batch that the budget splits at least in three
    conv, rng = _conv(16, 32, (2, 7), seed=71)
    x = rng.normal(size=(160, 16, 5, 20))
    y = conv.forward(x)
    dy = rng.normal(size=y.shape)
    chunks = []
    windows = Conv2d._windows

    def counted(self, x, temps=0):
        for sl, win in windows(self, x, temps):
            chunks.append(sl)
            yield sl, win

    monkeypatch.setattr(Conv2d, "_windows", counted)
    dx = conv.backward(dy)
    assert len(chunks) >= 3
    y_ref, dW_ref, dx_ref = reference_conv(conv, x, dy)
    assert_close(y, y_ref)
    assert_close(conv.dW, dW_ref)
    assert_close(dx, dx_ref)
    assert dx.flags.c_contiguous


def test_without_input_grad_returns_none_and_same_parameter_grads():
    grads = []
    for input_grad in (True, False):
        conv, rng = _conv(1, 16, (2, 10), seed=7, input_grad=input_grad)
        x = rng.normal(size=(5, 1, 6, 50))
        dy = rng.normal(size=conv.forward(x).shape)
        dx = conv.backward(dy)
        assert (dx is None) == (not input_grad)
        grads.append((conv.dW.copy(), conv.db.copy()))
    for with_dx, without_dx in zip(*grads):
        np.testing.assert_array_equal(with_dx, without_dx)


def test_only_the_branch_input_convs_skip_the_input_gradient():
    model = build_headingnet(30, seed=0)
    skip = {layer.name for layer in model.layers() if isinstance(layer, Conv2d) and not layer.input_grad}
    assert skip == {"b1.conv1", "b2.conv1"}
    assert Conv2d(1, 1, (1, 1)).input_grad


def _stock_batch_step(t_align):
    """One batch-512 forward+backward in training mode on random inputs:
    the model after it and the traced memory above the inputs."""
    model = build_headingnet(t_align, seed=0).train()
    rng = np.random.default_rng(t_align)
    x1 = rng.normal(size=(512, 1, 6, model.config.input_width))
    x2 = rng.normal(size=x1.shape)
    with traced_memory() as mem:
        pred = model.forward(x1, x2, rng=stream(0, "dropout"))
        model.backward(np.ones_like(pred))
    assert np.isfinite(pred).all()
    assert all(np.isfinite(g).all() for _, _, g in model.params())
    return model, mem


def test_stock_batch_headingnet10_step_memory():
    """Measured peak 49.2 MiB (112.7 MiB while IM2COL_BYTES was 64 MiB,
    dx was built over the whole batch and forward caches outlived the
    step).  After the step no layer holds a forward cache, and nothing
    the step allocated stays live but the prediction."""
    model, mem = _stock_batch_step(10)
    assert mem.peak < 80 * 2**20, f"peak {mem.peak / 2**20:.1f} MiB"
    for layer in model.layers():
        assert layer._cache is None, layer.name
    assert mem.live < 2**20, f"live {mem.live / 2**20:.1f} MiB"


def test_check_finite_on_a_stock_batch_keeps_nothing():
    """check_finite on 512 HeadingNet10 windows walks without keeping any
    layer's forward cache.  Measured peak 24.3 MiB and live 0.0 MiB
    (43.4 and 37.9 MiB while an eval-mode walk kept every cache)."""
    model = build_headingnet(10, seed=0)
    rng = np.random.default_rng(10)
    x1 = rng.normal(size=(512, 1, 6, model.config.input_width))
    x2 = rng.normal(size=x1.shape)
    with traced_memory() as mem:
        assert model.check_finite(x1, x2) is None
    assert mem.peak < 36 * 2**20, f"peak {mem.peak / 2**20:.1f} MiB"
    assert mem.live < 2**20, f"live {mem.live / 2**20:.1f} MiB"


def test_stock_batch_headingnet30_step_memory():
    """Measured peak 118.8 MiB (231.4 MiB with the 64 MiB budget,
    whole-batch dx and caches outliving the step)."""
    _, mem = _stock_batch_step(30)
    assert mem.peak < 180 * 2**20, f"peak {mem.peak / 2**20:.1f} MiB"


def test_stock_batch_headingnet120_step_memory():
    """One batch-512 forward+backward of the longest variation; measured
    peak 429 MiB (588 MiB with the 64 MiB budget and caches outliving the
    step) with conv1 and conv2 on the spectral path, where one unchunked
    conv2 im2col copy alone is 7.1 GB."""
    _, mem = _stock_batch_step(120)
    assert mem.peak < 2**30, f"peak {mem.peak / 2**20:.0f} MiB"


# -- spectral path -----------------------------------------------------------

SPECTRAL_CASES = {
    # (in_ch, out_ch, kernel, input shape (N, C, H, W), input_grad)
    "kh_1": (2, 3, (1, 60), (5, 2, 3, 120), True),
    "kh_2": (3, 4, (2, 60), (5, 3, 4, 120), True),
    "kh_3_odd_width": (2, 5, (3, 50), (4, 2, 5, 101), True),
    "no_input_grad": (1, 6, (2, 60), (5, 1, 6, 120), False),
    "single_sample": (16, 8, (2, 45), (1, 16, 5, 120), True),
    # a kernel as wide as the input never meets SPECTRAL_RATIO; forced below
    "full_width": (4, 2, (2, 30), (6, 4, 3, 30), True),
}


@pytest.mark.parametrize("chunked", [False, True], ids=["one_chunk", "chunked"])
@pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
def test_spectral_path_matches_single_copy_formulas(monkeypatch, case, chunked):
    in_ch, out_ch, kernel, shape, input_grad = SPECTRAL_CASES[case]
    conv, rng = _conv(in_ch, out_ch, kernel, seed=100 + sorted(SPECTRAL_CASES).index(case),
                      input_grad=input_grad)
    if case == "full_width":
        monkeypatch.setattr(layers, "SPECTRAL_RATIO", 0)
    assert conv.spectral(shape)
    x = rng.normal(size=shape)
    if chunked:
        # room for two samples' spectra per chunk, so any batch > 2 splits
        n, c, h, w = shape
        per_sample = 16 * (w // 2 + 1) * (h - kernel[0] + 1) * (2 * kernel[0] * c + 3 * out_ch)
        monkeypatch.setattr(layers, "IM2COL_BYTES", 2 * per_sample + 1)
    chunks = len(conv._spectral_chunks(shape))
    assert chunks == (-(-shape[0] // 2) if chunked else 1)
    y = conv.forward(x)
    dy = rng.normal(size=y.shape)
    dx = conv.backward(dy)
    y_ref, dW_ref, dx_ref = reference_conv(conv, x, dy)
    assert_close(y, y_ref)
    assert_close(conv.dW, dW_ref)
    if input_grad:
        assert_close(dx, dx_ref)
        assert dx.flags.c_contiguous
    else:
        assert dx is None
    np.testing.assert_array_equal(conv.db, dy.sum(axis=(0, 2, 3)))
    assert y.flags.c_contiguous


def test_spectral_gradients_match_central_differences():
    rng = np.random.default_rng(53)
    conv, _ = _conv(2, 3, (2, 50), seed=53)
    x = rng.normal(size=(2, 2, 3, 100))
    assert conv.spectral(x.shape)
    dy = rng.normal(size=conv.forward(x).shape)
    dx = conv.backward(dy)

    def num_grad(a, eps=1e-6):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(np.sum(conv.forward(x) * dy))
            flat[i] = keep - eps
            down = float(np.sum(conv.forward(x) * dy))
            flat[i] = keep
            g.reshape(-1)[i] = (up - down) / (2.0 * eps)
        return g

    for got, wrt in ((dx, x), (conv.dW, conv.W), (conv.db, conv.b)):
        got = got.copy()
        assert np.abs(got - num_grad(wrt)).max() / np.abs(got).max() < 1e-6


def _spectral_convs(t_align):
    """Names of the Conv2d layers that take the spectral path in one
    forward of the variation."""
    model = build_headingnet(t_align, seed=0)
    width = model.config.input_width
    x = np.zeros((2, 1, model.config.input_rows, width))
    model.forward(x, x)
    convs = [layer for layer in model.layers() if isinstance(layer, Conv2d)]
    return {conv.name for conv in convs if conv.spectral(conv._cache.shape)}


def test_only_the_long_headingnet60_convs_are_spectral():
    assert _spectral_convs(10) == set()
    assert _spectral_convs(60) == {"b1.conv1", "b2.conv1", "b1.conv2", "b2.conv2"}


# -- kept kernel spectra -------------------------------------------------------


def test_kernel_spectra_are_built_once_while_w_is_unchanged(monkeypatch):
    conv, rng = _conv(16, 8, (2, 45), seed=61)
    built = []
    kernel_spectrum = Conv2d._kernel_spectrum
    monkeypatch.setattr(Conv2d, "_kernel_spectrum", lambda self, w: built.append(w) or kernel_spectrum(self, w))
    x = rng.normal(size=(3, 16, 5, 120))
    for _ in range(3):
        y = conv.forward(x)
        conv.backward(rng.normal(size=y.shape))
    assert built == [120, 120]  # forward's layout once, backward's once
    conv.forward(rng.normal(size=(1, 16, 5, 100)))
    assert built == [120, 120, 100]  # kept per input width
    conv.forward(x)
    assert built == [120, 120, 100]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_like_a_fresh_layer(conv, x, dy):
    """conv's next forward and backward equal, bit for bit, those of a new
    layer holding the same weights."""
    fresh = Conv2d(conv.in_ch, conv.out_ch, (conv.kh, conv.kw), input_grad=conv.input_grad)
    fresh.W[...] = conv.W
    fresh.b[...] = conv.b
    assert conv.spectral(x.shape)
    for got, want in ((conv.forward(x), fresh.forward(x)), (conv.backward(dy), fresh.backward(dy)),
                      (conv.dW, fresh.dW), (conv.db, fresh.db)):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def _edit_one_element(conv, rng):
    conv.W[1, 2, 0, 3] += 0.25


def _assign_all(conv, rng):
    conv.W[...] = rng.normal(size=conv.W.shape)


def _adamw_step(conv, rng):
    conv.dW[...] = rng.normal(size=conv.W.shape)
    conv.db[...] = rng.normal(size=conv.b.shape)
    AdamW(conv.params(), lr=1e-2, weight_decay=1e-2).step()


@pytest.mark.parametrize("edit", [_edit_one_element, _assign_all, _adamw_step])
def test_kept_spectra_follow_in_place_edits_of_w(edit):
    conv, rng = _conv(16, 8, (2, 45), seed=62)
    x = rng.normal(size=(2, 16, 5, 120))
    dy = rng.normal(size=(2, 8, 4, 76))
    _assert_like_a_fresh_layer(conv, x, dy)  # keeps spectra of the first W
    before = conv.W.copy()
    edit(conv, rng)
    assert not np.array_equal(conv.W, before)
    _assert_like_a_fresh_layer(conv, x, dy)


def test_kept_spectra_follow_the_weights_a_checkpoint_loads(tmp_path):
    # the model's constructor probes branch 1 with its zero weights, so
    # b1.conv2 keeps spectra of W = 0 before the loader writes W in place
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(build_headingnet(60, seed=3), path)
    conv = {layer.name: layer for layer in load_checkpoint(path).layers()}["b1.conv2"]
    assert conv._kept_W is not None and np.any(conv._kept_W != conv.W)
    rng = np.random.default_rng(63)
    _assert_like_a_fresh_layer(conv, rng.normal(size=(2, 16, 5, 120)), rng.normal(size=(2, 32, 4, 76)))
