#!/usr/bin/env python3
"""duxwb benchmark: generate -> features -> train -> eval -> infer, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload small-frames --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exit code 0 means every correctness check
passed; 1 means a check or an operation failed; 2 means the program under
test (src/duxwb) was not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The environment every process of a run gets, set before the interpreter
# starts and inherited by child processes. One BLAS/FFT thread (<= nproc)
# keeps runs steady on a shared box. Fixed malloc thresholds keep glibc from
# mapping and unmapping each multi-megabyte frame temporary: with its default
# sliding threshold, whether a temporary faults in fresh pages depends on the
# heap's history, which made per-pixel timings swing by a fifth between runs.
PINNED_ENV = {
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "DUXWB_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": str(64 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    args.workload = WORKLOADS[args.workload]
    return args


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "duxwb" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'duxwb'} not found)", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        # glibc reads MALLOC_* only at start-up, so start again with them set
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    t0 = time.process_time()  # CPU time, like every figure of the benchmark (see workflow.py)
    import workflow  # numpy, scipy.fft and every duxwb module load here

    import_s = time.process_time() - t0
    if Path(workflow.duxwb.__file__).resolve().parent != SRC / "duxwb":
        print(f"error: duxwb imported from {workflow.duxwb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = workflow.Bench(args.workload, args.seed, args.seconds, bool(args.trace), HERE, import_s)
    try:
        metrics = bench.run()
    except workflow.checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": bench.failed, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        print("error: an operation failed; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
