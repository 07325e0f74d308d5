"""Write ``reference.json``: the default-seed fingerprints of every workload
(one per part of ``train_nets``).

Run from the root of a headalign checkout whose outputs are the
reference (the correctness gate compares later runs against them)::

    python3 perfbench/make_reference.py
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import time  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402


def main() -> int:
    env = run.worker_env()
    workdir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    ref = {}
    for name in metrics.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=metrics.DEFAULT_SEED, trace=0, workdir=workdir)
        w = run._worker(args, env, time.monotonic() + run.DEADLINE_S, budget=1e-9)
        if w.get("error") or w["reps"][0]["failures"]:
            print(f"{name}: {w.get('error') or w['reps'][0]['failures']}", file=sys.stderr)
            return 1
        ref.update(w["reps"][0]["fingerprints"])
    with open(os.path.join(run.HERE, "reference.json"), "w", newline="\n") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
