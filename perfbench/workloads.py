"""The two benchmark workloads.

Each workload makes its inputs from the seed, warms up, and then runs
repetitions of one fixed job.  A repetition returns its timings, the
number of operations it attempted and failed, the invariant checks that
hold for every seed, and fingerprints compared against
``reference.json`` at the default seed.  Only public headalign names are
called, always through their module so that the traced run's wrappers
see the calls.

- ``cli_pipeline``: ``headalign simulate`` (5 scenarios x 120 s) then
  ``headalign evaluate`` (4 classical methods x T in {10,30,60,90,120}),
  both in-process through ``cli.main``: 400 ``align_heading`` calls and
  no neural-network code.  The stock 420 s bank takes 17-25 s per
  repetition, too long for a run to hold several; 120 s keeps every
  scenario, method and window length.
- ``train_nets``: two parts run one after the other.  HeadingNet10: one
  stock-config epoch (batch 512) on the desk-scale split of the
  acceptance test, short kernels at large batch.  HeadingNet60: three
  steps on the same split at batch 32 (the stock batch of 512 does not
  fit in 7 GiB), long kernels whose im2col copies dominate time and
  memory.  Each part ends with batch-1 ``predict_heading`` on held-out
  windows.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import time

import numpy as np

import headalign.cli as cli
import headalign.harness as harness
import headalign.nn.data as nn_data
import headalign.nn.model as nn_model
import headalign.simulate as simulate

# the package re-exports the train() function under the submodule's name
nn_train = importlib.import_module("headalign.nn.train")

#: Batch-1 inferences per training repetition; the p90 of one
#: repetition already has 30 samples beyond it.
N_INFER = 300

_DIGEST = re.compile(r"^(S\d+):|^  (\S+) sha256=([0-9a-f]{64})$")


def _desk_scale_split(seed: int):
    """Train/eval recordings of the desk-scale acceptance test."""
    bank = simulate.scenario_bank(seed, duration=420.0)
    recs = [simulate.simulate_recording(cfg, simulate.DEFAULT_SENSORS) for cfg in bank]
    train_recs = [r.slice_window(0.0, 300.0 - 1e-6) for r in recs[:4]] + [recs[4]]
    eval_recs = [r.slice_window(300.0, 420.0) for r in recs[:4]]
    return train_recs, eval_recs


def _head(ws, n: int):
    """The first ``n`` windows of a (shuffled) window set."""
    return nn_data.WindowSet(ws.x1[:n], ws.x2[:n], ws.y[:n], ws.rec_index[:n],
                             ws.t_start[:n], ws.t_align, ws.stats)


class CliPipeline:
    name = "cli_pipeline"
    tag = ""
    #: Recording length of the simulated bank, seconds.
    duration = 120.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Inputs are generated by the timed ``simulate`` command itself."""

    def _pipeline(self, root: str, extra_sim: list[str], extra_eval: list[str]):
        data, out = os.path.join(root, "data"), os.path.join(root, "eval")
        sim_out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sim_out):
            rc_sim = cli.main(["simulate", "--seed", str(self.seed), "--out-dir", data, *extra_sim])
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc_eval = cli.main(["evaluate", "--data", data, "--out-dir", out, *extra_eval])
        t2 = time.perf_counter()
        return (rc_sim, rc_eval), (t0, t1, t2), sim_out.getvalue(), out

    def warm_up(self) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        try:
            rcs, *_ = self._pipeline(root, ["--duration", "20"], ["--t-aligns", "10"])
        finally:
            shutil.rmtree(root)
        if rcs != (0, 0):
            raise RuntimeError(f"warm-up pipeline exited with {rcs}")

    def rep(self) -> dict:
        calls: list[tuple[str, float, float]] = []
        aes: list[float] = []
        written: dict[str, object] = {}
        read: dict[str, object] = {}
        align, write_recording, read_recording = (
            harness.align_heading, cli.write_recording, cli.read_recording)

        def timed_align(rec, method, t_align, *args, **kwargs):
            start = time.perf_counter_ns()
            est = align(rec, method, t_align, *args, **kwargs)
            calls.append((str(getattr(method, "value", method)), float(t_align),
                          (time.perf_counter_ns() - start) / 1e6))
            aes.append(est.ae_deg)
            return est

        def capture_write(rec, path, *args, **kwargs):
            written[os.path.basename(path)] = rec
            return write_recording(rec, path, *args, **kwargs)

        def capture_read(path):
            rec = read_recording(path)
            read[os.path.basename(path)] = rec
            return rec

        root = tempfile.mkdtemp(dir=self.workdir)
        harness.align_heading, cli.write_recording, cli.read_recording = (
            timed_align, capture_write, capture_read)
        try:
            rcs, (t0, t1, t2), sim_text, out = self._pipeline(
                root, ["--duration", f"{self.duration:g}"], [])
        finally:
            harness.align_heading, cli.write_recording, cli.read_recording = (
                align, write_recording, read_recording)
        try:
            failures, fingerprint, estimates = self._check(rcs, sim_text, out, aes, written, read)
        finally:
            shutil.rmtree(root)
        cells: dict[str, list[float]] = {}
        for method, t, ms in calls:
            cells.setdefault(f"{method}@{t:g}", []).append(ms)
        if len(calls) != estimates:
            failures.append(f"{len(calls)} align_heading calls for {estimates} classical estimates")
        return dict(
            pipeline_s=t2 - t0, items=estimates, items_s=t2 - t1, latency_ms=cells, calls=calls,
            ops=2 + estimates, failed_ops=sum(rc != 0 for rc in rcs),
            failures=failures, fingerprints={self.name: fingerprint},
        )

    def _check(self, rcs, sim_text, out, aes, written, read):
        """Invariants of any seed; no headalign code runs here, so the
        traced run records no span for the check."""
        failures = []
        if rcs != (0, 0):
            failures.append(f"CLI exit codes {rcs}, expected (0, 0)")
        digests, scenario = {}, None
        for line in sim_text.splitlines():
            m = _DIGEST.match(line)
            if m and m.group(1):
                scenario = m.group(1)
            elif m:
                digests[f"{scenario}/{m.group(2)}"] = m.group(3)
        report_path = os.path.join(out, "eval_report.json")
        averages, estimates = {}, 0
        if os.path.isfile(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
            averages = {f"{a['method']}@{a['t_align']:g}": a["mean_ae_deg"]
                        for a in report["averages"]}
            estimates = sum(row["windows"] for row in report["rows"])
        else:
            failures.append("eval_report.json was not written")
        bad = [k for k, v in averages.items() if not math.isfinite(v)]
        if bad or not all(math.isfinite(a) for a in aes):
            failures.append(f"non-finite absolute error (averages: {bad})")
        if not written or sorted(written) != sorted(read):
            failures.append(f"wrote recordings {sorted(written)} but read back {sorted(read)}")
        for name in sorted(written.keys() & read.keys()):
            want, got = written[name], read[name]
            if not all(
                np.array_equal(a, b) for a, b in (
                    (got.imu.t, want.imu.t), (got.imu.omega, want.imu.omega),
                    (got.imu.f, want.imu.f), (got.aid.t, want.aid.t),
                    (got.aid.lat, want.aid.lat), (got.aid.lon, want.aid.lon),
                    (got.aid.heading_gt, want.aid.heading_gt),
                    (got.truth.t, want.truth.t), (got.truth.euler, want.truth.euler))):
                failures.append(f"recording {name} read back differs from what was written")
        return failures, {"digests": digests, "mean_ae_deg": averages}, estimates


class TrainNet:
    """Train one variation on the desk-scale split, then batch-1 inference.
    One part of ``train_nets``; its name keys its reference fingerprint."""

    def __init__(self, variation: int, batch: int, steps: int | None, seed: int):
        self.variation, self.batch, self.steps = variation, batch, steps
        self.seed = seed
        self.name = f"train_net{variation}"
        self.tag = f"v{variation}"

    def make_inputs(self) -> None:
        train_recs, eval_recs = _desk_scale_split(self.seed)
        windows = nn_data.make_windows(train_recs, float(self.variation), "train", seed=self.seed)
        self.windows = _head(windows, self.steps * self.batch) if self.steps else windows
        self.held_out = nn_data.make_windows(eval_recs, float(self.variation), "eval")
        self.config = nn_train.default_train_config(
            self.variation, seed=self.seed, epochs=1, batch=self.batch)

    def one_step(self):
        """One training step on a fresh model (warm-up and memory pass)."""
        model = nn_model.build_headingnet(self.variation, seed=self.seed)
        return nn_train.train(model, _head(self.windows, self.batch), self.config)[0]

    def warm_up(self) -> None:
        model = self.one_step()
        for k in range(8):
            nn_model.predict_heading(model, self.held_out.x1[k % len(self.held_out)],
                                     self.held_out.x2[k % len(self.held_out)])

    def rep(self) -> dict:
        model = nn_model.build_headingnet(self.variation, seed=self.seed)
        n = len(self.windows)
        t0 = time.perf_counter()
        model, history = nn_train.train(model, self.windows, self.config)
        t1 = time.perf_counter()
        held = self.held_out
        preds, lat = [], []
        for k in range(N_INFER):
            i = k % len(held)
            start = time.perf_counter_ns()
            psi = nn_model.predict_heading(model, held.x1[i], held.x2[i])
            lat.append((time.perf_counter_ns() - start) / 1e6)
            if k < len(held):
                preds.append(psi)
        t2 = time.perf_counter()
        losses = [row[2] for row in history]
        failures = []
        if not all(math.isfinite(v) for v in losses):
            failures.append(f"non-finite training loss {losses}")
        if not all(math.isfinite(v) for v in preds):
            failures.append("non-finite heading prediction")
        return dict(
            pipeline_s=t2 - t0, items=n, items_s=t1 - t0,
            latency_ms={f"{self.tag}.predict_heading": lat},
            ops=math.ceil(n / self.batch) + N_INFER, failed_ops=0,
            failures=failures,
            fingerprints={self.name: {"loss_history": losses, "predictions": preds}},
        )


class TrainNets:
    """HeadingNet10 then HeadingNet60, each trained and then queried.

    A repetition is one repetition of each part, summed; the traced run
    traces the parts one at a time, so that each Conv2d span belongs to
    one network.
    """

    name = "train_nets"

    def __init__(self, seed: int):
        self.parts = (TrainNet(10, 512, None, seed), TrainNet(60, 32, 3, seed))

    def make_inputs(self) -> None:
        for part in self.parts:
            part.make_inputs()

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def rep(self) -> dict:
        reps = [part.rep() for part in self.parts]
        out = {key: sum(r[key] for r in reps)
               for key in ("pipeline_s", "items", "items_s", "ops", "failed_ops")}
        for key in ("latency_ms", "fingerprints"):
            out[key] = {k: v for r in reps for k, v in r[key].items()}
        out["failures"] = [f for r in reps for f in r["failures"]]
        return out


def make(name: str, seed: int, workdir: str):
    if name == "cli_pipeline":
        return CliPipeline(seed, workdir)
    if name == "train_nets":
        return TrainNets(seed)
    raise ValueError(f"unknown workload {name!r}")
