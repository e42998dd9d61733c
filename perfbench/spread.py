#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload full-frames --seeds 1-10

Runs are made one at a time. For every metric it prints the median, the
interquartile distance over the median (`statistics.quantiles(n=4)`), that
spread as a share of the metric's bound in BENCHMARK.json, and the share of
failed operations. The raw results land in perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def relative_spread(values) -> float:
    """Interquartile distance over the median, as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: ok", file=sys.stderr, flush=True)

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"spread-{args.workload}-{args.seeds}-t{args.trace}.json"
    (out / name).write_text(json.dumps(runs, indent=1))

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'/bound':>7s}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        mid = statistics.median(values)
        spread = relative_spread(values) if len(values) > 1 and mid else float("nan")
        bound = bounds.get(metric)
        share = f"{spread / bound:7.2f}" if bound else "      -"
        print(f"{metric:34s} {mid:12.6g} {spread:8.4f} {share}")
    fails = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(fails)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
