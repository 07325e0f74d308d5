"""One benchmark process: set up a workload, run repetitions, report JSON.

Started by ``run.py`` from the root of a headalign checkout, with the
BLAS thread count already fixed in the environment.  The last line of
standard output is one JSON object describing this process.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed(wl, budget: float) -> dict:
    """Set up; then, if ``budget`` > 0, run repetitions for ``budget``
    seconds: at least one, and no further one that would, as long as the
    last one took, end after ``budget``."""
    wl.make_inputs()
    wl.warm_up()
    setup_s = time.perf_counter() - T_START
    reps, start, last = [], time.perf_counter(), 0.0
    while budget > 0 and (not reps or time.perf_counter() + last - start <= budget):
        t = time.perf_counter()
        rep = wl.rep()
        last = time.perf_counter() - t
        rep.pop("calls", None)
        reps.append(rep)
    return {"setup_s": setup_s, "reps": reps,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _traced(wl, trace_path: str) -> dict:
    """Time one repetition untraced and one traced, part by part.

    Each part of the workload (the workload itself unless it has
    ``parts``) gets its own tracer, so that its spans and counts give
    the metrics of its variation tag; the parts' metrics add up, as each
    tagged metric is non-zero in one part only.
    """
    import instrument
    import metrics
    from spans import Tracer

    values: dict[str, float] = {}
    notes, reps, untraced_s, traced_s = [], [], 0.0, 0.0
    if os.path.exists(trace_path):
        os.remove(trace_path)
    for part in getattr(wl, "parts", (wl,)):
        tracer = Tracer()
        tracer.run = f"{part.name}/setup"
        instrument.install(tracer)
        try:
            part.make_inputs()
        finally:
            tracer.unpatch()
        part.warm_up()
        plain = part.rep()
        tracer.run = f"{part.name}/rep"
        instrument.install(tracer)
        try:
            traced = part.rep()
        finally:
            tracer.unpatch()
        peaks, step_peak = ({}, 0.0) if not part.tag else instrument.conv_peaks(part.one_step)
        part_values, extras = metrics.layer_metrics(tracer.spans, tracer.counts, part.tag, peaks)
        for name, v in part_values.items():
            values[name] = values.get(name, 0.0) + v
        extras["step_peak_mib"] = step_peak
        extras["recording_s"] = getattr(part, "duration", 420.0)
        t120 = [ms for method, t, ms in plain.get("calls", ()) if method == "I-OBA" and t == 120.0]
        extras["i_oba_120_ms"] = sum(t120) / len(t120) if t120 else 0.0
        tracer.dump(trace_path)
        notes += metrics.roadmap_rows(part.name, extras)
        untraced_s += plain["pipeline_s"]
        traced_s += traced["pipeline_s"]
        for rep in (plain, traced):
            rep.pop("calls", None)
            reps.append(rep)
    return {"layer_metrics": values, "notes": notes, "untraced_s": untraced_s,
            "traced_s": traced_s, "trace_file": trace_path, "reps": reps}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of repetitions; 0 only sets up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import headalign

    if not os.path.abspath(headalign.__file__).startswith(src + os.sep):
        raise RuntimeError(f"headalign imported from {headalign.__file__}, not {src}")
    import workloads

    wl = workloads.make(args.workload, args.seed, args.workdir)
    try:
        if args.trace:
            path = os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            out = _traced(wl, path)
        else:
            out = _timed(wl, args.budget)
        out["error"] = None
    except Exception:  # reported to run.py, which counts it as a failed operation
        traceback.print_exc()
        out = {"error": traceback.format_exc().splitlines()[-1], "reps": []}
    out["env"] = _environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
