"""Command-line entry point.

Subcommands: ``simulate``, ``align``, ``train``, ``evaluate``,
``report``.  Global flags (``--seed``, ``--out-dir``,
``--format {csv,json}``) may appear before or after the subcommand.
Errors are emitted as one JSON object per line on stderr with a
machine-readable ``error`` code; the exit code is 0 iff nothing failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .aligners import AlignMethod, align_heading
from .errors import HeadAlignError, InvalidArgumentError
from .harness import CLASSICAL_METHODS, EvalReport, evaluate, nn_method_name
from .nn.data import make_windows
from .nn.model import build_headingnet, load_checkpoint, save_checkpoint
from .nn.train import default_train_config, train
from .recording import read_recording, write_recording
from .simulate import (
    DEFAULT_SENSORS,
    NOISE_FREE,
    ScenarioConfig,
    SensorSpec,
    scenario_bank,
    simulate_recording,
)

__all__ = ["main"]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"malformed JSON in {path}: {exc}") from exc


def _load_scenarios(path: str) -> list[ScenarioConfig]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc["scenarios"] if "scenarios" in doc else [doc]
    if not isinstance(doc, list):
        raise InvalidArgumentError(f"{path} must hold a scenario object or {{'scenarios': [...]}}")
    return [ScenarioConfig.from_dict(d) for d in doc]


def _load_sensors(arg: str) -> SensorSpec:
    if arg == "default":
        return DEFAULT_SENSORS
    if arg == "none":
        return NOISE_FREE
    return SensorSpec.from_dict(_load_json(arg))


def _recordings_in(data_dir: str, names: list[str] | None = None):
    if not os.path.isdir(data_dir):
        raise InvalidArgumentError(f"not a directory: {data_dir}")
    found = []
    for entry in sorted(os.listdir(data_dir)):
        full = os.path.join(data_dir, entry)
        if os.path.isfile(os.path.join(full, "meta.json")):
            if names and entry not in names:
                continue
            found.append((entry, read_recording(full)))
    if not found:
        raise InvalidArgumentError(f"no recordings under {data_dir}")
    return found


def cmd_simulate(args) -> int:
    out = args.out_dir
    seed = args.seed
    if args.config:
        scenarios = _load_scenarios(args.config)
    else:
        scenarios = scenario_bank(seed if seed is not None else 0, duration=args.duration)
    sensors = _load_sensors(args.sensors)
    os.makedirs(out, exist_ok=True)
    for cfg in scenarios:
        use_seed = seed * 1000 + cfg.seed if seed is not None and args.config else cfg.seed
        rec = simulate_recording(cfg, sensors, seed=use_seed)
        rec_dir = os.path.join(out, cfg.name)
        write_recording(rec, rec_dir)
        print(f"{cfg.name}: seed={use_seed}")
        for fname in ("imu.csv", "aid.csv", "truth.csv", "meta.json"):
            fpath = os.path.join(rec_dir, fname)
            print(f"  {fname} sha256={_sha256(fpath)}")
    return 0


def cmd_align(args) -> int:
    rec = read_recording(args.recording)
    est = align_heading(rec, AlignMethod(args.method), args.t_align)
    result = {
        "method": est.method,
        "t_align": est.t_align,
        "heading_deg": float(np.degrees(est.psi_hat)),
        "truth_deg": float(np.degrees(est.psi_gt)),
        "ae_deg": est.ae_deg,
    }
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        print("method,t_align,heading_deg,truth_deg,ae_deg")
        print(
            f"{est.method},{est.t_align:g},{result['heading_deg']:.6f},"
            f"{result['truth_deg']:.6f},{est.ae_deg:.6f}"
        )
    return 0


def cmd_train(args) -> int:
    if args.seed is None:
        raise InvalidArgumentError("training requires --seed (reproducibility by default)")
    names = args.names.split(",") if args.names else None
    recs = [rec for _, rec in _recordings_in(args.data, names)]
    overrides = {
        k: v
        for k, v in {
            "epochs": args.epochs,
            "lr": args.lr,
            "weight_decay": args.weight_decay,
            "loss_scale": args.loss_scale,
            "scheduler_step": args.scheduler_step,
            "batch": args.batch,
        }.items()
        if v is not None
    }
    cfg = default_train_config(args.variation, seed=args.seed, **overrides)
    print("effective config: " + json.dumps(vars(cfg) | {"variation": args.variation}, sort_keys=True, default=list))

    windows = make_windows(recs, float(args.variation), "train", seed=args.seed)
    model = build_headingnet(args.variation, seed=args.seed)
    model, history = train(model, windows, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = args.checkpoint or os.path.join(args.out_dir, f"headingnet{args.variation}.ckpt")
    save_checkpoint(model, ckpt)
    hist_path = os.path.join(args.out_dir, f"headingnet{args.variation}_history.csv")
    with open(hist_path, "w", newline="\n") as fh:
        fh.write("epoch,lr,train_loss\n")
        for epoch, lr, loss in history:
            fh.write(f"{epoch},{lr:.17g},{loss:.17g}\n")
    print(f"checkpoint: {ckpt} sha256={_sha256(ckpt)}")
    print(f"history: {hist_path}")
    if history:
        print(f"final train loss: {history[-1][2]:.6g}")
    return 0


def cmd_evaluate(args) -> int:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise InvalidArgumentError("method list is empty")
    t_aligns = [float(v) for v in args.t_aligns.split(",") if v]
    recs = [rec for _, rec in _recordings_in(args.data, args.names.split(",") if args.names else None)]

    models = {}
    for path in args.checkpoint or []:
        model = load_checkpoint(path)
        T = int(model.config.t_align)
        models[T] = model
        name = nn_method_name(T)
        if name not in methods:
            methods.append(name)

    report = evaluate(recs, methods, t_aligns, models)
    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "eval_report.json")
    with open(json_path, "w", newline="\n") as fh:
        fh.write(report.to_json())
    written = [json_path]
    if args.format == "csv":
        for name, text in (
            ("eval_rows.csv", report.rows_csv()),
            ("eval_averages.csv", report.averages_csv()),
            ("eval_improvements.csv", report.improvements_csv()),
        ):
            p = os.path.join(args.out_dir, name)
            with open(p, "w", newline="\n") as fh:
                fh.write(text)
            written.append(p)
    for p in written:
        print(f"{p} sha256={_sha256(p)}")
    return 0


def _text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)


def cmd_report(args) -> int:
    path = args.input or os.path.join(args.out_dir, "eval_report.json")
    try:
        with open(path) as fh:
            report = EvalReport.from_dict(json.load(fh))
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read report: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"corrupt report {path}: {exc}") from exc

    methods = sorted({a["method"] for a in report.averages})
    if args.methods is not None:
        keep = [m for m in args.methods.split(",") if m]
        if not keep:
            raise InvalidArgumentError("method list is empty")
        methods = [m for m in methods if m in keep]
        if not methods:
            raise InvalidArgumentError("no requested method present in the report")
    t_aligns = sorted({a["t_align"] for a in report.averages})

    cell = {(a["method"], a["t_align"]): a["mean_ae_deg"] for a in report.averages}
    rows = []
    for m in methods:
        rows.append([m] + [
            f"{cell[(m, T)]:.3f}" if (m, T) in cell else "-" for T in t_aligns
        ])
    print("mean AE (deg) per method and alignment time, averaged over recordings")
    print(_text_table(["method"] + [f"{T:g}s" for T in t_aligns], rows))

    if report.improvements:
        print()
        print("improvement of the neural variant over the best classical baseline")
        imp_rows = [
            [f"{i['t_align']:g}s", i["best_baseline_name"], f"{i['best_ae']:.3f}",
             f"{i['nn_ae']:.3f}", f"{i['improvement_pct']:.1f}%"]
            for i in report.improvements
        ]
        print(_text_table(["t_align", "best baseline", "best AE", "nn AE", "improvement"], imp_rows))

    os.makedirs(args.out_dir, exist_ok=True)
    fig1 = os.path.join(args.out_dir, "fig_ae_vs_talign.csv")
    with open(fig1, "w", newline="\n") as fh:
        fh.write("t_align," + ",".join(methods) + "\n")
        for T in t_aligns:
            vals = [f"{cell[(m, T)]:.17g}" if (m, T) in cell else "" for m in methods]
            fh.write(f"{T:g}," + ",".join(vals) + "\n")
    fig2 = os.path.join(args.out_dir, "fig_improvement.csv")
    with open(fig2, "w", newline="\n") as fh:
        fh.write(report.improvements_csv())
    print()
    print(f"wrote {fig1}")
    print(f"wrote {fig2}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="global random seed (required for train)")
    common.add_argument("--out-dir", default=argparse.SUPPRESS, help="artifact directory (default .)")
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="artifact/stdout format (default csv)")

    p = argparse.ArgumentParser(prog="headalign", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", parents=[common], help="generate synthetic mooring recordings")
    ps.add_argument("--config", help="scenario JSON (one object or {'scenarios': [...]})")
    ps.add_argument("--sensors", default="default",
                    help="'default', 'none', or path to a sensor-spec JSON")
    ps.add_argument("--duration", type=float, default=420.0,
                    help="bank scenario duration in seconds (ignored with --config)")
    ps.set_defaults(func=cmd_simulate)

    pa = sub.add_parser("align", parents=[common], help="run one classical alignment")
    pa.add_argument("--recording", required=True, help="recording directory")
    pa.add_argument("--method", required=True, choices=[m.value for m in AlignMethod])
    pa.add_argument("--t-align", type=float, required=True)
    pa.set_defaults(func=cmd_align)

    pt = sub.add_parser("train", parents=[common], help="train a neural variation")
    pt.add_argument("--variation", type=int, required=True, choices=(10, 30, 60, 90, 120))
    pt.add_argument("--data", required=True, help="directory of recording subdirectories")
    pt.add_argument("--names", help="comma-separated recording names to use")
    pt.add_argument("--epochs", type=int)
    pt.add_argument("--lr", type=float)
    pt.add_argument("--weight-decay", type=float)
    pt.add_argument("--loss-scale", type=float)
    pt.add_argument("--scheduler-step", type=int)
    pt.add_argument("--batch", type=int)
    pt.add_argument("--checkpoint", help="output checkpoint path")
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("evaluate", parents=[common], help="sweep methods x alignment times")
    pe.add_argument("--data", required=True)
    pe.add_argument("--names", help="comma-separated recording names to use")
    pe.add_argument("--methods", default=",".join(CLASSICAL_METHODS))
    pe.add_argument("--t-aligns", default="10,30,60,90,120")
    pe.add_argument("--checkpoint", action="append", help="neural checkpoint (repeatable)")
    pe.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("report", parents=[common], help="render tables and plot data")
    pr.add_argument("--input", help="eval_report.json path (default <out-dir>/eval_report.json)")
    pr.add_argument("--methods", help="comma-separated method filter")
    pr.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("seed", None), ("out_dir", "."), ("format", "csv")):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except HeadAlignError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io-error", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
