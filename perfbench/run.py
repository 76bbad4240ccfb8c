#!/usr/bin/env python3
"""Trial-throughput benchmark of gensumset over the four decay regimes.

Usage (from the repository root):

    python3 perfbench/run.py --workload mstd|fast_h3|critical_h3|slow_h2
        [--seed N] [--seconds S] [--trace 0|1]

One operation is one `run_experiment(config, workers=1)` call in a fresh
interpreter.  The run repeats operations until `--seconds` have passed,
then checks every report against an independent recomputation (see
check.py), outside the timed region.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
operations on the same inputs and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 120

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sampling.calls": "count",
    "sampling.busy_s": "s",
    "sampling.us_per_call": "us",
    "sampling.draws_per_s": "1/s",
    "sampling.mean_set_size": "count",
    "sumset.calls": "count",
    "sumset.busy_s": "s",
    "sumset.us_per_call": "us",
    "sumset.shift_or_bytes": "bytes",
    "sumset.shift_or_gb_per_s": "GB/s",
    "density.calls": "count",
    "density.busy_s": "s",
    "experiments.self_s": "s",
    "experiments.self_us_per_trial": "us",
    "trace.overhead_s": "s",
}


def _child(config: dict, mode: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    spec = json.dumps({"config": config, "mode": mode, "spawned_at": spawned_at})
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), spec],
        env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )


def run_operation(config: dict, mode: str) -> dict | None:
    """One fresh-interpreter `run_experiment` call; None if it raised."""
    try:
        done = _child(config, mode)
    except subprocess.TimeoutExpired:
        print(f"operation ({mode}) timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"operation ({mode}) failed:\n{done.stderr}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"operation ({mode}) printed no result:\n{done.stdout}", file=sys.stderr)
        return None


def layer_metrics(op: dict, trials: int) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    sampling = op["layers"]["sampling"]
    sumset = op["layers"]["sumset"]
    dens = op["layers"]["density"]

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = op["wall_s"] - sampling["busy_s"] - sumset["busy_s"] - dens["busy_s"]
    return {
        "sampling.calls": sampling["calls"],
        "sampling.busy_s": sampling["busy_s"],
        "sampling.us_per_call": 1e6 * ratio(sampling["busy_s"], sampling["calls"]),
        "sampling.draws_per_s": ratio(sampling.get("draws", 0), sampling["busy_s"]),
        "sampling.mean_set_size": ratio(sampling.get("set_size", 0), sampling["calls"]),
        "sumset.calls": sumset["calls"],
        "sumset.busy_s": sumset["busy_s"],
        "sumset.us_per_call": 1e6 * ratio(sumset["busy_s"], sumset["calls"]),
        "sumset.shift_or_bytes": sumset.get("shift_or_bytes", 0),
        "sumset.shift_or_gb_per_s": ratio(sumset.get("shift_or_bytes", 0), sumset["busy_s"])
        / 1e9,
        "density.calls": dens["calls"],
        "density.busy_s": dens["busy_s"],
        "experiments.self_s": self_s,
        "experiments.self_us_per_trial": 1e6 * self_s / trials,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the battery config's seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gensumset" / "__init__.py").is_file():
        print(f"no gensumset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = workloads.config_data(args.workload, args.seed)
    trials = config["trials"] * len(config["N"])

    _child(config, "setup")  # compiles bytecode once, as an installed package has it
    # A round is the same operations every time, so the failed share of
    # attempted operations does not depend on how many rounds fit.
    round_modes = ("run", "trace") if args.trace else ("run",)
    ops: list[tuple[str, dict | None]] = []
    deadline = time.perf_counter() + args.seconds
    while not ops or time.perf_counter() < deadline:
        ops.extend((mode, run_operation(config, mode)) for mode in round_modes)

    failed, messages = check.failed_operations(
        [None if op is None else op["report"] for _, op in ops], config
    )
    for message in messages:
        print(f"check: {message}", file=sys.stderr)
    good = {mode: [op for (m, op), bad in zip(ops, failed) if m == mode and not bad]
            for mode in round_modes}

    if args.trace:
        units = PER_LAYER_UNITS
        values = {}
        if good["trace"]:
            per_op = [layer_metrics(op, trials) for op in good["trace"]]
            # median_low keeps counts whole; every traced operation has the same inputs.
            values = {name: statistics.median_low(m[name] for m in per_op) for name in per_op[0]}
        if good["trace"] and good["run"]:
            values["trace.overhead_s"] = statistics.median(
                op["wall_s"] for op in good["trace"]
            ) - statistics.median(op["wall_s"] for op in good["run"])
    else:
        units = END_TO_END_UNITS
        values = {}
        if good["run"]:
            values["setup_s"] = statistics.median(op["setup_s"] for op in good["run"])
            values["trials_per_s"] = len(good["run"]) * trials / sum(
                op["wall_s"] for op in good["run"]
            )
            values["peak_rss_mb"] = statistics.median(op["peak_rss_mb"] for op in good["run"])

    n_failed = sum(failed)
    for name, unit in units.items():
        print(f"{name:>32} {values.get(name, float('nan')):>16.6g} {unit}")
    print(f"{'operations':>32} {len(ops):>16d} attempted, {n_failed} failed")
    result = {
        "correct": n_failed == 0 and set(values) == set(units),
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
