"""Layers with hand-written forward/backward passes.

Every layer works on float64 numpy arrays shaped (batch, channels,
height, width) unless noted and exposes ``params()`` as a list of
(name, value, grad) triples sharing storage with the layer.  A forward
keeps what its backward needs in the layer's one cache slot,
``Layer._cache``, and the backward consumes it.  Inference
(``HeadingModel.predict``) clears each slot as its walk passes the
layer and keeps nothing; ``HeadingModel.forward``, in either mode,
keeps every cache for a backward.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ..errors import ForwardCacheError, InvalidArgumentError, ShapeError

__all__ = [
    "Conv2d",
    "MaxPool1x2",
    "LeakyReLU",
    "Tanh",
    "Dropout",
    "Linear",
    "Flatten",
    "AvgPool1d",
    "avgpool_rate_match",
]

Array = NDArray[np.float64]


class Layer:
    """Base: stateless unless a subclass stores parameters or a cache."""

    name: str = ""
    #: What the last forward kept for backward; None once consumed.
    _cache = None

    def params(self) -> list[tuple[str, Array, Array]]:
        return []

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        raise NotImplementedError

    def backward(self, dy: Array) -> Array | None:
        """Store the parameter gradients and return dL/dx.  Only a
        ``Conv2d`` built with ``input_grad=False`` returns ``None``.

        Backward consumes the cache of the forward before it: it takes
        the cache and clears it, so a network's backward frees each
        layer's activations once it has passed the layer, and a trained
        model holds none.  A backward with no forward cache to consume
        raises ``ForwardCacheError``."""
        raise NotImplementedError

    def _take(self):
        """The forward cache, cleared on the layer."""
        cache = self._cache
        if cache is None:
            raise ForwardCacheError(
                f"{self.name}: backward has no forward cache to consume; "
                "run forward before each backward"
            )
        self._cache = None
        return cache


#: Most bytes one batch chunk's temporaries may take.  On the direct
#: path: the im2col windows plus the GEMM output in forward; the windows,
#: the transposed dy, the chunk's NHWC input gradient and one tap's
#: product in backward.  On the spectral path: the complex spectra of the
#: rows stacked into the GEMM and of its output.  Forward and backward
#: walk the batch in chunks under it; a chunk holds at least one sample.
#: Chosen by a sweep on 2 vCPUs: step time and traced peak of a
#: stock-batch (512) training step, HeadingNet10/30/60/90/120, and the
#: ``train_nets`` benchmark's peak RSS (HeadingNet10/60/90/120 step times
#: at 4 and 8 MiB are medians of three runs, the rest one run):
#:
#:    4 MiB  0.38/1.64/3.08/4.79/7.92 s   46/115/228/321/429 MiB  174 MiB
#:    8 MiB  0.42/1.68/2.68/4.12/6.13 s   49/119/231/324/429 MiB  181 MiB
#:   16 MiB  0.40/1.93/2.42/4.47/6.06 s   56/127/239/331/436 MiB  205 MiB
#:   32 MiB  0.37/2.15/2.65/4.92/5.99 s   70/142/254/346/451 MiB  230 MiB
#:
#: 8 MiB is as fast as the larger budgets within the host's +-20 % and
#: peaks lower; 4 MiB slows the spectral variations, whose chunks become
#: a few samples each.  Below 32 MiB, the most glibc's dynamic mmap
#: threshold rises to, a chunk's copies reuse heap pages instead of
#: faulting in a new mapping on every call.
IM2COL_BYTES = 8 * 2**20

#: A conv runs in the frequency domain when its direct multiplies per
#: output row and channel pair, (W - kw + 1) * kw, reach this many times
#: the input width W, to which the spectral cost of a row is roughly
#: proportional (W//2 + 1 complex bins plus the FFTs).  Measured on 2 vCPUs
#: (spectral speed-up over direct, forward plus backward, batch 32/512):
#: HeadingNet30 conv1 at 24.2 is 0.86x/0.73x, HeadingNet60 conv1 at 48.2
#: 1.5x/1.3x and conv2 at 28.5 6.3x/4.6x.  Single-input-channel layers
#: spend most of the spectral time in the FFTs, so they need the higher
#: ratio.
SPECTRAL_RATIO = 25


@lru_cache(maxsize=32)
def _dft(kw: int, w: int) -> Array:
    """(kw, 2 * (w//2 + 1)) real matrix: a kernel row times it gives the
    conjugate of the row's length-w rFFT as interleaved (re, im) pairs,
    so the product views as complex without a copy."""
    # reduce b*f mod w before scaling so the angle keeps full precision
    theta = (2 * np.pi / w) * (np.outer(np.arange(kw), np.arange(w // 2 + 1)) % w)
    m = np.stack([np.cos(theta), np.sin(theta)], axis=-1).reshape(kw, -1)
    m.flags.writeable = False
    return m


def _bins_last(spec: Array) -> Array:
    """(F, n, rows, ch) spectra -> contiguous (n, ch, rows, F), so the
    inverse transform runs over contiguous lines."""
    return np.ascontiguousarray(spec.transpose(1, 3, 2, 0))


class Conv2d(Layer):
    """Valid cross-correlation, stride 1: out (N, O, H-kh+1, W-kw+1).

    Weight layout (out_ch, in_ch, kh, kw); one bias per output channel.
    Two paths, chosen per call from the kernel and input shape alone
    (``spectral``):

    * direct: forward and dW contract im2col windows; dx is the
      transposed convolution, summed one kernel tap at a time.  Backward
      computes dW and dx of a batch chunk in the same pass over its
      windows and writes the chunk's dx into one input-sized array.
    * spectral, for kernels long against the input width (see
      ``SPECTRAL_RATIO``): forward, dW and dx are products of width-axis
      rFFTs of length W.  A valid correlation of W samples never wraps,
      so no padding is needed.  The kh kernel rows are stacked beside the
      channels, so each frequency bin is one complex GEMM
      (N*Ho, kh*C) @ (kh*C, O).  dW is summed over chunks in the
      frequency domain and inverted once.

    Both walk the batch in chunks whose temporaries stay under
    ``IM2COL_BYTES``.  Backward consumes the input cached by forward.  With
    ``input_grad=False`` (a layer fed by the network input) backward
    skips dx and returns ``None``.  The spectral path keeps the kernel
    spectra it built, per input width, with a copy of the ``W`` they came
    from, and reuses them while ``W`` holds the same bits; the optimiser,
    the checkpoint loader and the initialiser all write ``W`` in place,
    so the check reads its contents.
    """

    def __init__(
        self, in_ch: int, out_ch: int, kernel: tuple[int, int], name: str = "conv",
        input_grad: bool = True,
    ):
        kh, kw = kernel
        if kh < 1 or kw < 1:
            raise InvalidArgumentError(f"{name}: kernel must be positive, got {kernel}")
        self.in_ch, self.out_ch, self.kh, self.kw = in_ch, out_ch, kh, kw
        self.name = name
        self.input_grad = input_grad
        self.W = np.zeros((out_ch, in_ch, kh, kw))
        self.b = np.zeros(out_ch)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        # spectral path: kept GEMM-layout kernel spectra and the W they are of
        self._kept_W: Array | None = None
        self._kept: dict[tuple[str, int], Array] = {}

    def params(self):
        return [(f"{self.name}.W", self.W, self.dW), (f"{self.name}.b", self.b, self.db)]

    def spectral(self, shape: tuple[int, ...]) -> bool:
        """Whether an input of this (N, C, H, W) shape takes the spectral path."""
        w = shape[3]
        return (w - self.kw + 1) * self.kw >= SPECTRAL_RATIO * w

    @staticmethod
    def _chunks(n: int, per_sample: int):
        step = max(1, IM2COL_BYTES // per_sample)
        return [slice(lo, lo + step) for lo in range(0, n, step)]

    def _windows(self, x: Array, temps: int = 0):
        """Yield (batch slice, (n, C, Ho, Wo, kh, kw) window view) chunks,
        sized so that a chunk's window copy plus ``temps`` more float64
        values per sample stay under ``IM2COL_BYTES``."""
        x = np.ascontiguousarray(x)
        n, c, h, w = x.shape
        shape = (n, c, h - self.kh + 1, w - self.kw + 1, self.kh, self.kw)
        # sliding_window_view's strided view, without its argument handling
        win = np.ndarray(shape, x.dtype, x, strides=x.strides + x.strides[2:])
        win.flags.writeable = False
        for sl in self._chunks(n, (math.prod(shape[1:]) + temps) * x.itemsize):
            yield sl, win[sl]

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeError(f"{self.name}: expected (N, {self.in_ch}, H, W), got {x.shape}")
        if x.shape[2] < self.kh or x.shape[3] < self.kw:
            raise ShapeError(
                f"{self.name}: kernel ({self.kh}x{self.kw}) larger than input {x.shape[2:]}"
            )
        self._cache = x
        if self.spectral(x.shape):
            return self._spectral_forward(x)
        n, _, h, w = x.shape
        o, ho, wo = self.out_ch, h - self.kh + 1, w - self.kw + 1
        y = np.empty((n, o, ho, wo))
        # np.tensordot(win, W, axes=([1, 4, 5], [1, 2, 3])) spelled out, the
        # same copies and GEMM: (n*Ho*Wo, C*kh*kw) windows @ (C*kh*kw, O)
        wt = self.W.transpose(1, 2, 3, 0).reshape(-1, o)
        b = self.b[:, None, None]
        for sl, win in self._windows(x, temps=o * ho * wo):
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(-1, len(wt))
            np.add(np.dot(cols, wt).reshape(len(win), ho, wo, o).transpose(0, 3, 1, 2), b, out=y[sl])
            del cols  # before the next chunk copies its windows
        return y

    def backward(self, dy: Array) -> Array | None:
        x = self._take()
        self.db[...] = dy.sum(axis=(0, 2, 3))
        if self.spectral(x.shape):
            return self._spectral_backward(x, dy)
        _, c, h, w = x.shape
        o, ho, wo = dy.shape[1:]
        dW = self.dW.reshape(o, -1)  # a view: chunks accumulate in place
        dW[...] = 0.0
        # per sample beside the windows: dy transposed, and for dx the NHWC
        # chunk gradient and one tap's product
        temps = o * ho * wo
        if self.input_grad:
            dx = np.empty_like(x)
            temps += c * (h * w + ho * wo)
        for sl, win in self._windows(x, temps):
            m = len(win)
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(-1, dW.shape[1])
            dy_t = np.ascontiguousarray(dy[sl].transpose(0, 2, 3, 1)).reshape(-1, o)
            # dW[o,c,a,b] = sum_{n,i,j} dy[n,o,i,j] win[n,c,i,j,a,b]
            dW += dy_t.T @ cols
            del cols
            if self.input_grad:
                # dx[n,c,i+a,j+b] += sum_o dy[n,o,i,j] W[o,c,a,b], one tap (a, b) at a time
                dxc = np.zeros((m, h, w, c))
                for a in range(self.kh):
                    for b in range(self.kw):
                        dxc[:, a : a + ho, b : b + wo] += (dy_t @ self.W[:, :, a, b]).reshape(m, ho, wo, c)
                dx[sl] = dxc.transpose(0, 3, 1, 2)
                del dxc
            del dy_t  # this chunk's copies go before the next chunk makes its own
        return dx if self.input_grad else None

    # -- spectral path: F = W//2 + 1 bins, spectra laid out (F, n, rows, ...) --

    def _kernel_spectrum(self, w: int) -> Array:
        """conj(rFFT_w) of every kernel row, (O, C, kh, F) complex; one real
        GEMM.  Called through ``_kept_spectrum``, which keeps its GEMM layouts."""
        spec = (self.W.reshape(-1, self.kw) @ _dft(self.kw, w)).view(np.complex128)
        return spec.reshape(self.out_ch, self.in_ch, self.kh, -1)

    def _kept_spectrum(self, kind: str, w: int) -> Array:
        """The kernel spectrum at input width w in a GEMM layout: ``"kc"``,
        conj(rFFT) as (F, kh*C, O) for forward, or ``"kt"``, the rFFT itself
        as (F, O, kh*C) for dx; rows ordered (a, c) as in _stacked_spectra.
        Built once per (kind, w) and kept while W holds the same bits."""
        if self._kept_W is None or not np.array_equal(
            self._kept_W.view(np.uint64), self.W.view(np.uint64)
        ):
            self._kept_W = self.W.copy()
            self._kept = {}
        spec = self._kept.get((kind, w))
        if spec is None:
            k = self._kernel_spectrum(w)
            if kind == "kc":
                spec = np.ascontiguousarray(k.transpose(3, 2, 1, 0))
                spec = spec.reshape(-1, self.kh * self.in_ch, self.out_ch)
            else:
                spec = np.conjugate(k.transpose(3, 0, 2, 1), order="C")
                spec = spec.reshape(-1, self.out_ch, self.kh * self.in_ch)
            self._kept[kind, w] = spec
        return spec

    def _spectral_chunks(self, shape: tuple[int, ...]):
        # per sample: the row-stacked input spectra twice (the stack, and
        # backward's stacked input gradient) and the output spectra three
        # times (GEMM result, bins-last copy, inverse transform)
        n, c, h, w = shape
        ho, f = h - self.kh + 1, w // 2 + 1
        return self._chunks(n, 16 * f * ho * (2 * self.kh * c + 3 * self.out_ch))

    def _stacked_spectra(self, x: Array, conj: bool = False) -> Array:
        """(F, n*Ho, kh*C): row i, column (a, c) holds rFFT(x[:, c, i+a]),
        conjugated when ``conj``."""
        n, c, h, w = x.shape
        ho = h - self.kh + 1
        xf = np.fft.rfft(x, axis=-1).transpose(3, 0, 2, 1)  # (F, n, H, C)
        out = np.empty((xf.shape[0], n, ho, self.kh, c), dtype=np.complex128)
        for a in range(self.kh):
            if conj:
                np.conjugate(xf[:, :, a : a + ho], out=out[:, :, :, a])
            else:
                out[:, :, :, a] = xf[:, :, a : a + ho]
        return out.reshape(xf.shape[0], n * ho, self.kh * c)

    def _spectral_forward(self, x: Array) -> Array:
        n, _, h, w = x.shape
        ho, wo, o = h - self.kh + 1, w - self.kw + 1, self.out_ch
        kc = self._kept_spectrum("kc", w)
        b = self.b[:, None, None]
        y = np.empty((n, o, ho, wo))
        for sl in self._spectral_chunks(x.shape):
            xs = x[sl]
            yf = (self._stacked_spectra(xs) @ kc).reshape(-1, len(xs), ho, o)  # (F, m, Ho, O)
            np.add(np.fft.irfft(_bins_last(yf), n=w)[..., :wo], b, out=y[sl])
        return y

    def _spectral_backward(self, x: Array, dy: Array) -> Array | None:
        _, c, h, w = x.shape
        ho, o, kh = h - self.kh + 1, self.out_ch, self.kh
        f = w // 2 + 1
        if self.input_grad:
            kt = self._kept_spectrum("kt", w)
            dx = np.empty_like(x)
        # conj(dW spectrum), (F, kh*C, O), summed over the batch
        gc = np.zeros((f, kh * c, o), dtype=np.complex128)
        for sl in self._spectral_chunks(x.shape):
            xs = x[sl]
            m = len(xs)
            dyf = np.fft.rfft(dy[sl], n=w, axis=-1).transpose(3, 0, 2, 1).reshape(f, m * ho, o)
            gc += self._stacked_spectra(xs, conj=True).transpose(0, 2, 1) @ dyf
            if not self.input_grad:
                continue
            dxs = (dyf @ kt).reshape(f, m, ho, kh, c)
            dxf = np.zeros((f, m, h, c), dtype=np.complex128)
            for a in range(kh):
                dxf[:, :, a : a + ho] += dxs[:, :, :, a]
            dx[sl] = np.fft.irfft(_bins_last(dxf), n=w)
        # irFFT of conj(G) is the dW correlation reversed in time: g[b] = irfft(gc)[-b mod W]
        g = np.fft.irfft(gc, n=w, axis=0)[(-np.arange(self.kw)) % w]
        self.dW[...] = g.reshape(self.kw, kh, c, o).transpose(3, 2, 1, 0)
        return dx if self.input_grad else None


class MaxPool1x2(Layer):
    """(1, 2) max pool, stride 2 along width; odd width drops the last
    column.  Backward routes each gradient to the window argmax, first
    element on ties."""

    def __init__(self, name: str = "pool"):
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        w = x.shape[-1] - (x.shape[-1] % 2)
        a = x[..., 0:w:2]
        b = x[..., 1:w:2]
        self._cache = (a >= b, x.shape[-1])  # ties keep the first element
        # b first: np.maximum returns its second argument on a tie of 0.0
        # and -0.0, as np.where(a >= b, a, b) does
        return np.maximum(b, a)

    def backward(self, dy: Array) -> Array:
        first, width = self._take()
        dx = np.empty(dy.shape[:-1] + (width,))
        w = width - (width % 2)
        # on the bits, so every slot is exactly dy or +0.0: a pair's first
        # slot gets dy & mask, the mask all ones where the first element
        # won and zero elsewhere, and its second slot the rest, dy ^ that
        even = dx[..., 0:w:2].view(np.int64)
        bits = dy.view(np.int64)
        np.subtract(0, first, out=even, dtype=np.int64)
        np.bitwise_and(even, bits, out=even)
        np.bitwise_xor(bits, even, out=dx[..., 1:w:2].view(np.int64))
        dx[..., w:] = 0.0
        return dx


class LeakyReLU(Layer):
    """max(x, 0) + alpha * min(x, 0); slope alpha for x <= 0.  Computed
    as max(x, alpha * x), which needs 0 <= alpha <= 1."""

    def __init__(self, alpha: float, name: str = "lrelu"):
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise InvalidArgumentError(f"{name}: leaky slope must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        y = np.multiply(x, self.alpha)
        self._cache = np.maximum(x, y, out=y)
        return y

    def backward(self, dy: Array) -> Array:
        # y > 0 exactly where x > 0; dy times a slope of 1.0 or alpha
        slope = np.array([self.alpha, 1.0]).take((self._take() > 0).view(np.uint8))
        return np.multiply(dy, slope, out=slope)


class Tanh(Layer):
    def __init__(self, name: str = "tanh"):
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        self._cache = np.tanh(x)
        return self._cache

    def backward(self, dy: Array) -> Array:
        y = self._take()
        return dy * (1.0 - y * y)


#: Dropout's cache after a forward that dropped nothing (eval mode or
#: p = 0): its backward passes dy through, once.
_UNMASKED = object()


class Dropout(Layer):
    """Inverted dropout: keep with probability 1-p and scale by 1/(1-p)
    during training; identity in eval mode."""

    def __init__(self, p: float, name: str = "dropout"):
        if not 0.0 <= p < 1.0:
            raise InvalidArgumentError(f"{name}: dropout p must be in [0, 1), got {p}")
        self.p = float(p)
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        if not training or self.p == 0.0:
            self._cache = _UNMASKED
            return x
        if rng is None:
            raise InvalidArgumentError(f"{self.name}: training-mode dropout needs an rng")
        keep = 1.0 - self.p
        self._cache = (rng.random(x.shape) < keep) / keep
        return x * self._cache

    def backward(self, dy: Array) -> Array:
        mask = self._take()
        return dy if mask is _UNMASKED else dy * mask


class Linear(Layer):
    """Affine map on (N, in) inputs: y = x W^T + b."""

    def __init__(self, in_features: int, out_features: int, name: str = "fc"):
        self.in_features, self.out_features = in_features, out_features
        self.name = name
        self.W = np.zeros((out_features, in_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def params(self):
        return [(f"{self.name}.W", self.W, self.dW), (f"{self.name}.b", self.b, self.db)]

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"{self.name}: expected (N, {self.in_features}), got {x.shape}")
        self._cache = x
        return x @ self.W.T + self.b

    def backward(self, dy: Array) -> Array:
        self.dW[...] = dy.T @ self._take()
        self.db[...] = dy.sum(axis=0)
        return dy @ self.W


class Flatten(Layer):
    def __init__(self, name: str = "flatten"):
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: Array) -> Array:
        return dy.reshape(self._take())


class AvgPool1d(Layer):
    """Non-overlapping mean over blocks of k along the last axis."""

    def __init__(self, k: int, name: str = "avgpool"):
        if k < 1:
            raise InvalidArgumentError(f"{name}: pool factor must be >= 1, got {k}")
        self.k = int(k)
        self.name = name

    def forward(self, x: Array, training: bool = False, rng=None) -> Array:
        return avgpool_rate_match(x, self.k)

    def backward(self, dy: Array) -> Array:
        return np.repeat(dy, self.k, axis=-1) / self.k


def avgpool_rate_match(x: Array, k: int) -> Array:
    """Mean over non-overlapping blocks of ``k`` along the last axis.

    Used to bring the 100 Hz inertial rows down to the 5 Hz aiding rate
    (k = 20) before they enter the network.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if k < 1 or n % k != 0:
        raise ShapeError(f"pool factor {k} does not divide width {n}")
    return x.reshape(x.shape[:-1] + (n // k, k)).mean(axis=-1)
