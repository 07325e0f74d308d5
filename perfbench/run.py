"""headalign benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a headalign checkout::

    python3 perfbench/run.py --workload cli_pipeline --seed 42 --seconds 55 --trace 0

``--trace 0`` starts three fresh processes, each of which imports,
builds its inputs from the seed and warms up; the first then starts
timed repetitions for ``--seconds`` (at least one; none is started
that would, at the pace of the last, end after them).  It prints every
end-to-end metric.  ``--trace 1`` runs one process that times one repetition
untraced and one traced, and prints every per-layer metric.  The last
line of standard output is the JSON result; the exit code is 0 only
when every operation and every correctness check passed.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import metrics  # noqa: E402

#: Processes per timed run: one sets up and runs the repetitions, the
#: others only set up.  setup_s is the median of their set-up times.
PROCESSES = 3

#: A run must end within this many seconds.
DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


def worker_env() -> dict:
    """Environment of the worker processes.  The BLAS thread count is
    fixed here, before any of them imports numpy."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def _worker(args, env, deadline, budget: float = 0.0) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", args.workdir, "--trace", str(args.trace), "--budget", str(budget)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}", "reps": []}
    return json.loads(lines[-1])


def _gate(args, workers) -> list[str]:
    """Failures of correctness gate part 2 (any seed) and part 1 (default seed)."""
    failures = [f"worker error: {w['error']}" for w in workers if w.get("error")]
    reps = [r for w in workers for r in w["reps"]]
    failures += [f for r in reps for f in r["failures"]]
    if not reps:
        failures.append("no repetition ran")
    if args.seed == metrics.DEFAULT_SEED and reps:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        for r in reps:
            for key, fingerprint in r["fingerprints"].items():
                failures += [f"{key}: {f}" for f in metrics.compare_fingerprint(fingerprint, ref[key])]
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "headalign", "__init__.py")):
        print(f"error: {root} is not a headalign checkout (no src/headalign)", file=sys.stderr)
        return 2
    args.workdir = os.path.join(root, ".perfbench")
    os.makedirs(args.workdir, exist_ok=True)

    env = worker_env()
    workers = []
    try:
        if args.trace:
            workers.append(_worker(args, env, deadline))
        else:
            for budget in [args.seconds] + [0.0] * (PROCESSES - 1):
                workers.append(_worker(args, env, deadline, budget=budget))
                if workers[-1].get("error"):
                    break
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1

    failures = _gate(args, workers)
    reps = [r for w in workers for r in w["reps"]]
    attempted = max(1, sum(r["ops"] for r in reps))
    failed = sum(r["failed_ops"] for r in reps) + len(failures)

    env_info = next((w["env"] for w in workers if "env" in w), {})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env_info, sort_keys=True))
    for f in failures:
        print(f"FAILED: {f}")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          "operations: CLI commands, alignments, train steps, inferences)")

    if failures:
        values = {}
    elif args.trace:
        w = workers[0]
        values = w["layer_metrics"]
        for line in w["notes"]:
            print(line)
        overhead = 100.0 * (w["traced_s"] - w["untraced_s"]) / w["untraced_s"]
        print(f"tracing overhead: untraced {w['untraced_s']:.3f} s, traced {w['traced_s']:.3f} s "
              f"({overhead:+.1f} %); spans in {w['trace_file']}")
    else:
        values, counts = metrics.end_to_end(workers)
        for name, unit, _ in metrics.END_TO_END:
            alias = metrics.ALIASES[args.workload].get(name, "")
            print(f"{name:<16} {values[name]:>14.6g} {unit:<4} n={counts[name]:<6} {alias}")
        p50 = metrics.latency(metrics.latency_cells([r for w in workers for r in w["reps"]]), 50)
        print(f"{'latency_ms.p50':<16} {p50:>14.6g} ms   (median of the same calls; printed, not declared)")

    units = ({n: u for n, u, _ in metrics.END_TO_END} if not args.trace
             else {n: u for n, (u, _) in metrics.layer_metric_specs().items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
