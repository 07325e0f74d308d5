"""Metric names, aggregation and the correctness gate (stdlib only).

End-to-end metrics are generic so that every workload reports all of
them; ``ALIASES`` gives the workload-specific name each one stands for.
Per-layer metrics are derived from the spans and counts of a traced run.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import self_times

WORKLOADS = ("cli_pipeline", "train_nets")
DEFAULT_SEED = 42

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("pipeline_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("latency_ms.p75", "ms", "lower"),
    ("latency_ms.p90", "ms", "lower"),
)

#: What each generic end-to-end metric measures on each workload.
ALIASES = {
    "cli_pipeline": {
        "pipeline_s": "pipeline_s: simulate start to eval_report.json written",
        "items_per_s": "align_per_s: classical estimates / evaluate wall time",
        "latency_ms.p75": "align_ms.p75: one T=10 s align_heading call, geo-mean over 4 methods",
        "latency_ms.p90": "align_ms.p90: one T=10 s align_heading call, geo-mean over 4 methods",
    },
    "train_nets": {
        "pipeline_s": "train() then the batch-1 inferences, HeadingNet10 plus HeadingNet60",
        "items_per_s": "train_windows_per_s: forward, loss, backward and AdamW, both networks",
        "latency_ms.p75": "infer_ms.p75: one batch-1 predict_heading call, geo-mean over v10, v60",
        "latency_ms.p90": "infer_ms.p90: one batch-1 predict_heading call, geo-mean over v10, v60",
    },
}

#: Conv2d instances per variation tag.
CONVS = {
    "v10": ("b1.conv1", "b1.conv2", "b1.conv3", "b2.conv1", "b2.conv2", "b2.conv3", "fuse.conv4"),
    "v60": ("b1.conv1", "b1.conv2", "b1.conv3", "b2.conv1", "b2.conv2", "b2.conv3",
            "fuse.conv4", "fuse.conv5"),
}

#: Latency cells with fewer calls per repetition are left out of the
#: latency percentiles, which would rest on a handful of calls.  On
#: cli_pipeline this keeps the four T = 10 s cells of 60 calls each.
MIN_CELL_SAMPLES = 50

#: Float fingerprints at the default seed: (comparison, tolerance).  A
#: change of summation order moves these by about 1e-12; a behaviour
#: change moves them by far more.
TOLERANCES = {
    "mean_ae_deg": ("abs", 1e-6),
    "loss_history": ("rel", 1e-6),
    "predictions": ("abs", 1e-6),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name mapped to (unit, better)."""
    lo, hi = "lower", "higher"
    m = {
        "cli.self_ms": ("ms", lo),
        "simulate.simulate_recording.ms": ("ms", lo),
    }
    for fn in ("write_recording", "read_recording"):
        m[f"recording.{fn}.ms"] = ("ms", lo)
        m[f"recording.{fn}.mb_per_s"] = ("MB/s", hi)
    m.update({
        "harness.evaluate.ms": ("ms", lo),
        "harness.evaluate.self_ms": ("ms", lo),
        "strapdown.integrate_body_frame.calls": ("count", lo),
        "strapdown.integrate_body_frame.ms": ("ms", lo),
        "strapdown.integrate_body_frame.samples": ("count", lo),
        "strapdown.integrate_nav_frame.calls": ("count", lo),
        "strapdown.integrate_nav_frame.ms": ("ms", lo),
        "strapdown.observation_integrated.ms": ("ms", lo),
        "strapdown.observation_instantaneous.ms": ("ms", lo),
        "strapdown.body_samples_per_imu_sample": ("ratio", lo),
        "aligners.align_heading.calls": ("count", lo),
        "aligners.align_heading.self_ms": ("ms", lo),
        "aligners.oba_accumulate.calls": ("count", lo),
        "aligners.oba_accumulate.ms": ("ms", lo),
        "aligners.oba_solve.ms": ("ms", lo),
        "aligners.jacobi_eigh.calls": ("count", lo),
        "aligners.jacobi_eigh.ms": ("ms", lo),
        "aligners.dva_solve.ms": ("ms", lo),
        "aligners.pairs_used_frac": ("ratio", hi),
    })
    for tag in CONVS:
        m[f"nn.data.{tag}.make_windows.ms"] = ("ms", lo)
        m[f"nn.data.{tag}.make_windows.windows"] = ("count", hi)
    for tag, convs in CONVS.items():
        for conv in convs:
            m[f"nn.layers.{tag}.{conv}.fwd_ms"] = ("ms", lo)
            m[f"nn.layers.{tag}.{conv}.bwd_ms"] = ("ms", lo)
            m[f"nn.layers.{tag}.{conv}.peak_mib"] = ("MiB", lo)
        m[f"nn.layers.{tag}.other.fwd_ms"] = ("ms", lo)
        m[f"nn.layers.{tag}.other.bwd_ms"] = ("ms", lo)
        m[f"nn.layers.{tag}.conv.gflop_per_s"] = ("GFLOP/s", hi)
    for tag in CONVS:
        m[f"nn.model.{tag}.self_ms"] = ("ms", lo)
        m[f"nn.loss.{tag}.cmse_loss.ms"] = ("ms", lo)
        m[f"nn.optim.{tag}.AdamW.step.ms"] = ("ms", lo)
        m[f"nn.train.{tag}.self_ms"] = ("ms", lo)
    return m


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_cells(reps: list[dict]) -> dict[str, list[float]]:
    """Per-call latencies of every repetition, pooled by cell.

    A cell holds calls that do the same work: one method and window
    length of ``align_heading``, or the batch-1 ``predict_heading`` of
    one network.  Cells with fewer than ``MIN_CELL_SAMPLES`` calls per
    repetition are left out.
    """
    cells: defaultdict[str, list[float]] = defaultdict(list)
    for r in reps:
        for cell, samples in r["latency_ms"].items():
            if len(samples) >= MIN_CELL_SAMPLES:
                cells[cell].extend(samples)
    return cells


def latency(cells: dict[str, list[float]], q: float) -> float:
    """Geometric mean over cells of each cell's ``q``-th percentile: it
    does not jump between cells of very different cost."""
    return statistics.geometric_mean(percentile(samples, q) for samples in cells.values())


def end_to_end(workers: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Aggregate worker reports into end-to-end values and sample counts.

    ``setup_s`` is the median over processes; ``peak_rss_mib`` is the
    max RSS of the one process that ran repetitions (n = 1).
    ``pipeline_s`` and ``items_per_s`` are medians over repetitions.
    The latency percentiles are taken over every call of a cell in every
    repetition (``latency_cells``).

    Latency is reported at p75 and p90, not at the median: the speed of
    the shared host switches between two levels about 1.6x apart, and
    the share of calls that run at the slow level is close to one half
    and differs from run to run, so the median of millisecond calls
    jumps between the two levels.  The upper quartile and p90 stay on
    one level; ``run.py`` prints the median beside them.
    """
    reps = [r for w in workers for r in w["reps"]]
    timed = next(w for w in workers if w["reps"])
    cells = latency_cells(reps)
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mib": timed["peak_rss_kib"] / 1024.0,
        "pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["items_s"] for r in reps),
        "latency_ms.p75": latency(cells, 75),
        "latency_ms.p90": latency(cells, 90),
    }
    n_lat = sum(len(samples) for samples in cells.values())
    counts = dict.fromkeys(values, len(reps))
    counts.update(setup_s=len(workers), peak_rss_mib=1,
                  **{"latency_ms.p75": n_lat, "latency_ms.p90": n_lat})
    return values, counts


def layer_metrics(spans, counts, tag: str,
                  conv_peaks: dict[str, float]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced run plus extras for the baseline rows.

    ``tag`` names the network variation the run trained (``v10``/``v60``)
    or is empty; metrics of layers the workload never ran are 0.
    """
    selfs = self_times(spans)
    total: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    calls: defaultdict[str, int] = defaultdict(int)
    names = {}
    for sid, name, start, end, _, _ in spans:
        names[sid] = name
        total[name] += end - start
        self_ns[name] += selfs[sid]
        calls[name] += 1

    def ms(ns):
        return ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    out = dict.fromkeys(layer_metric_specs(), 0.0)
    out["cli.self_ms"] = ms(self_ns["cli.main"])
    out["simulate.simulate_recording.ms"] = ms(total["simulate.simulate_recording"])
    for fn, key in (("write_recording", "write_bytes"), ("read_recording", "read_bytes")):
        ns = total[f"recording.{fn}"]
        out[f"recording.{fn}.ms"] = ms(ns)
        out[f"recording.{fn}.mb_per_s"] = ratio(counts.get(key, 0) / 1e6, ns / 1e9)
    out["harness.evaluate.ms"] = ms(total["harness.evaluate"])
    out["harness.evaluate.self_ms"] = ms(self_ns["harness.evaluate"])
    for fn in ("integrate_body_frame", "integrate_nav_frame",
               "observation_integrated", "observation_instantaneous"):
        out[f"strapdown.{fn}.ms"] = ms(total[f"strapdown.{fn}"])
    for fn in ("integrate_body_frame", "integrate_nav_frame"):
        out[f"strapdown.{fn}.calls"] = calls[f"strapdown.{fn}"]
    out["strapdown.integrate_body_frame.samples"] = counts.get("body_samples", 0)
    out["strapdown.body_samples_per_imu_sample"] = ratio(
        counts.get("body_samples", 0), counts.get("imu_samples_written", 0))
    out["aligners.align_heading.calls"] = calls["aligners.align_heading"]
    out["aligners.align_heading.self_ms"] = ms(self_ns["aligners.align_heading"])
    for fn in ("oba_accumulate", "jacobi_eigh"):
        out[f"aligners.{fn}.calls"] = calls[f"aligners.{fn}"]
    for fn in ("oba_accumulate", "oba_solve", "jacobi_eigh", "dva_solve"):
        out[f"aligners.{fn}.ms"] = ms(total[f"aligners.{fn}"])
    used, skipped = counts.get("pairs_used", 0), counts.get("pairs_skipped", 0)
    out["aligners.pairs_used_frac"] = ratio(used, used + skipped)

    extras = {"per_call_ms": {n: ms(total[n]) / c for n, c in calls.items() if c},
              "evaluate_share": {}, "bwd_ranking": [], "step_fwd_bwd_ms": 0.0}
    ev = total["harness.evaluate"]
    if ev:
        extras["evaluate_share"] = {
            "integrate_*": (total["strapdown.integrate_body_frame"]
                            + total["strapdown.integrate_nav_frame"]) / ev,
            "oba_accumulate": total["aligners.oba_accumulate"] / ev,
        }
    if tag:
        out[f"nn.data.{tag}.make_windows.ms"] = ms(total["nn.data.make_windows"])
        out[f"nn.data.{tag}.make_windows.windows"] = counts.get("windows", 0)
        convs = CONVS[tag]
        conv_ns = 0
        for kind in ("fwd", "bwd"):
            other = sum(ns for n, ns in total.items()
                        if n.startswith("nn.layers.") and n.endswith(f".{kind}")
                        and n[len("nn.layers."):-len(kind) - 1] not in convs)
            out[f"nn.layers.{tag}.other.{kind}_ms"] = ms(other)
            for conv in convs:
                ns = total[f"nn.layers.{conv}.{kind}"]
                out[f"nn.layers.{tag}.{conv}.{kind}_ms"] = ms(ns)
                conv_ns += ns
        for conv in convs:
            out[f"nn.layers.{tag}.{conv}.peak_mib"] = conv_peaks.get(conv, 0.0)
        out[f"nn.layers.{tag}.conv.gflop_per_s"] = ratio(counts.get("conv_flop", 0), conv_ns)
        out[f"nn.model.{tag}.self_ms"] = ms(self_ns["nn.model.forward"] + self_ns["nn.model.backward"])
        out[f"nn.loss.{tag}.cmse_loss.ms"] = ms(total["nn.loss.cmse_loss"])
        out[f"nn.optim.{tag}.AdamW.step.ms"] = ms(total["nn.optim.AdamW.step"])
        out[f"nn.train.{tag}.self_ms"] = ms(self_ns["nn.train.train"])
        extras["bwd_ranking"] = sorted(
            ((out[f"nn.layers.{tag}.{c}.bwd_ms"], c) for c in convs), reverse=True)
        in_train = sum(end - start for _, name, start, end, parent, _ in spans
                       if name in ("nn.model.forward", "nn.model.backward")
                       and names.get(parent) == "nn.train.train")
        extras["step_fwd_bwd_ms"] = ratio(ms(in_train), calls["nn.optim.AdamW.step"])
    return out, extras


def roadmap_rows(workload: str, extras: dict) -> list[str]:
    """The ad-hoc baseline rows of ROADMAP.md beside this run's numbers.

    The ROADMAP figures were taken once on a scratch copy (2 CPUs,
    Python 3.11.7, numpy 2.4.6/OpenBLAS), partly under cProfile, so the
    two columns are for comparison by eye only.  Recording costs are
    scaled from this run's recording length to the ROADMAP's 420 s.
    """
    per_call = extras.get("per_call_ms", {})
    per_420s = 420.0 / extras.get("recording_s", 420.0)
    rows = [f"{'ROADMAP baseline row':<54} {'ROADMAP':>12}   this run"]

    def row(label, then, now):
        rows.append(f"{label:<54} {then:>12}   {now}")

    if workload == "cli_pipeline":
        row("simulate_recording (ms per 420 s recorded)", "43",
            f"{per_call.get('simulate.simulate_recording', 0) * per_420s:.0f}")
        row("write_recording (ms per 420 s recorded)", "800",
            f"{per_call.get('recording.write_recording', 0) * per_420s:.0f}")
        row("read_recording (ms per 420 s recorded)", "414",
            f"{per_call.get('recording.read_recording', 0) * per_420s:.0f}")
        row("align_heading I-OBA, T=120 s (ms per call)", "110",
            f"{extras.get('i_oba_120_ms', 0):.0f}")
        share = extras.get("evaluate_share", {})
        row("evaluate share: _chain (in integrate_*)", "48 %",
            f"{100 * share.get('integrate_*', 0):.0f} %")
        row("evaluate share: oba_accumulate", "31 %",
            f"{100 * share.get('oba_accumulate', 0):.0f} %")
    else:
        ranking = extras.get("bwd_ranking", [])
        top = ", ".join(f"{c} {v:.0f} ms" for v, c in ranking[:2]) or "-"
        row("Conv2d backward top cost", "b1/b2.conv1", top)
        if workload == "train_net10":
            row("HeadingNet10 fwd+bwd, batch 512 (ms per step)", "2100",
                f"{extras.get('step_fwd_bwd_ms', 0):.0f}")
        else:
            row("HeadingNet60 fwd+bwd, batch 32 (tracemalloc peak GiB)", "0.9",
                f"{extras.get('step_peak_mib', 0) / 1024:.2f}")
    return rows


def compare_fingerprint(got: dict, ref: dict) -> list[str]:
    """Differences between a run's fingerprint and the stored reference."""
    failures = []
    got_digests, ref_digests = got.get("digests", {}), ref.get("digests", {})
    bad = sorted(k for k in got_digests.keys() | ref_digests.keys()
                 if got_digests.get(k) != ref_digests.get(k))
    if bad:
        failures.append(f"digests differ: {', '.join(bad)}")
    for key, (kind, tol) in TOLERANCES.items():
        if key not in ref:
            continue
        a, b = got.get(key), ref[key]
        if isinstance(b, dict):
            if not isinstance(a, dict) or sorted(a) != sorted(b):
                failures.append(f"{key}: keys differ")
                continue
            pairs = [(a[k], b[k], k) for k in sorted(b)]
        else:
            if not isinstance(a, list) or len(a) != len(b):
                failures.append(f"{key}: length differs")
                continue
            pairs = [(x, y, i) for i, (x, y) in enumerate(zip(a, b))]
        for x, y, where in pairs:
            err = abs(x - y) if kind == "abs" else abs(x - y) / max(abs(y), 1e-300)
            if not err <= tol:
                failures.append(f"{key}[{where}]: {x!r} vs reference {y!r} ({kind} tol {tol:g})")
                break
    return failures
