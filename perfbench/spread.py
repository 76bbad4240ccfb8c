#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload W [--seeds 1 2 ...] [--trace 0|1]
        [--seconds S] [--tag NAME]

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
The summary is also written to perfbench/runs/<workload>-trace<T>-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--tag", default="spread")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
        spread = "-" if not median else f"{(q3 - q1) / median:.4f}"
        print(f"{name:>32} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread} bound {bounds.get(name, '-')}")
    print(f"{'run wall time':>32} max {max(r['elapsed_s'] for r in runs):.1f}s")
    out = HERE / "runs" / f"{args.workload}-trace{args.trace}-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
