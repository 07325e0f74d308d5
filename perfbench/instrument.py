"""Span wrappers around headalign's public names, for the traced run.

Each name is patched where its caller looks it up: the CLI imported
``simulate_recording`` and friends into ``headalign.cli``, the harness
imported ``align_heading``, and the aligners imported the strapdown
functions.  Layer classes are patched on the class, so every instance
of every model is covered.  The layers themselves are not changed.
"""

from __future__ import annotations

import importlib
import os
import tracemalloc

import headalign.aligners as aligners
import headalign.cli as cli
import headalign.harness as harness
import headalign.nn.data as nn_data
import headalign.nn.layers as layers
import headalign.nn.model as nn_model
import headalign.nn.optim as optim
import headalign.simulate as simulate

# the package re-exports the train() function under the submodule's name
nn_train = importlib.import_module("headalign.nn.train")

LAYER_CLASSES = (layers.Conv2d, layers.MaxPool1x2, layers.LeakyReLU, layers.Tanh,
                 layers.Dropout, layers.Linear, layers.Flatten)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def install(tracer) -> None:
    """Patch every traced name; undo with ``tracer.unpatch()``."""
    count = tracer.count
    p = tracer.patch

    def written(args, _):
        rec, path = args[0], args[1]
        count("imu_samples_written", len(rec.imu))
        count("write_bytes", _dir_bytes(path))

    def pairs(args, _):
        count("pairs_used", args[0].count)
        count("pairs_skipped", args[0].skipped)

    input_shapes = {}

    def conv_fwd_flop(args, _):
        conv, x = args[0], args[1]
        input_shapes[id(conv)] = n, c, h, w = x.shape
        count("conv_flop", 2 * n * conv.out_ch * c * conv.kh * conv.kw
              * (h - conv.kh + 1) * (w - conv.kw + 1))

    def conv_bwd_flop(args, _):
        conv = args[0]
        n, c, h, w = input_shapes[id(conv)]
        taps = 2 * n * conv.out_ch * c * conv.kh * conv.kw
        # dW over the output grid, dx over the input grid
        count("conv_flop", taps * ((h - conv.kh + 1) * (w - conv.kw + 1) + h * w))

    p(cli, "main", "cli.main")
    p(cli, "simulate_recording", "simulate.simulate_recording")
    p(simulate, "simulate_recording", "simulate.simulate_recording")
    p(cli, "write_recording", "recording.write_recording", note=written)
    p(cli, "read_recording", "recording.read_recording",
      note=lambda args, _: count("read_bytes", _dir_bytes(args[0])))
    p(cli, "evaluate", "harness.evaluate")
    p(harness, "align_heading", "aligners.align_heading")
    p(aligners, "integrate_body_frame", "strapdown.integrate_body_frame",
      note=lambda args, _: count("body_samples", len(args[0])))
    for fn in ("integrate_nav_frame", "observation_integrated", "observation_instantaneous"):
        p(aligners, fn, f"strapdown.{fn}")
    p(aligners, "oba_accumulate", "aligners.oba_accumulate")
    p(aligners, "oba_solve", "aligners.oba_solve", note=pairs)
    p(aligners, "jacobi_eigh", "aligners.jacobi_eigh")
    p(aligners, "dva_solve", "aligners.dva_solve")
    p(nn_data, "make_windows", "nn.data.make_windows",
      note=lambda args, ws: count("windows", len(ws)))
    for cls in LAYER_CLASSES:
        is_conv = cls is layers.Conv2d
        p(cls, "forward", lambda args: f"nn.layers.{args[0].name}.fwd",
          note=conv_fwd_flop if is_conv else None)
        p(cls, "backward", lambda args: f"nn.layers.{args[0].name}.bwd",
          note=conv_bwd_flop if is_conv else None)
    p(nn_model.HeadingModel, "forward", "nn.model.forward")
    p(nn_model.HeadingModel, "backward", "nn.model.backward")
    p(nn_train, "cmse_loss", "nn.loss.cmse_loss")
    p(optim.AdamW, "step", "nn.optim.AdamW.step")
    p(nn_train, "train", "nn.train.train")


def conv_peaks(step) -> tuple[dict[str, float], float]:
    """Run ``step()`` under tracemalloc.

    Returns, per Conv2d instance name, the most memory one forward or
    backward call allocated above what was live when it started (MiB),
    and the peak traced memory of the whole step (MiB).
    """
    peaks: dict[str, float] = {}
    overall = 0
    originals = layers.Conv2d.forward, layers.Conv2d.backward

    def measured(fn):
        def run(self, *args, **kwargs):
            nonlocal overall
            current, peak = tracemalloc.get_traced_memory()
            overall = max(overall, peak)
            tracemalloc.reset_peak()
            out = fn(self, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
            overall = max(overall, peak)
            peaks[self.name] = max(peaks.get(self.name, 0.0), (peak - current) / 2**20)
            return out
        return run

    layers.Conv2d.forward, layers.Conv2d.backward = map(measured, originals)
    tracemalloc.start()
    try:
        step()
        overall = max(overall, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        layers.Conv2d.forward, layers.Conv2d.backward = originals
    return peaks, overall / 2**20
