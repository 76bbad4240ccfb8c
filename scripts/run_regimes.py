#!/usr/bin/env python3
"""Run the standard experiment battery and write reports to results/.

Usage: python scripts/run_regimes.py [--quick | --check] [--workers W] [--only KIND ...]

  --quick    shrink every config (smaller N, fewer trials) for a fast sanity
             sweep; full-size runs take a few minutes each
  --check    write the reports to a temporary directory instead, compare
             their bytes with results/, name each stem that differs and
             exit 1 if any does
  --workers  parallel trial workers (output is identical for any value)
  --only     run just the named config stems, e.g. --only fast_h3 mstd

Each config gets <stem>.json and <stem>.csv in results/, plus a one-line
verdict on stdout.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from gensumset.experiments import config_from_jsonable, run_experiment

CONFIG_DIR = Path(__file__).parent / "configs"

# Smaller N means a larger finite-size gap from the limiting values, so the
# quick sweep also loosens tolerances accordingly.
QUICK_OVERRIDES = {
    "fast_h2": {"N": [100000], "trials": 40, "tolerance": 0.2},
    "fast_h3": {"N": [100000], "trials": 40, "tolerance": 0.4},
    "critical_h2": {"N": [20000], "trials": 40, "tolerance": 0.06},
    "critical_h3": {"N": [100000], "trials": 20, "tolerance": 0.15},
    "slow_h2": {"N": [200000], "trials": 15},
    "mstd": {"trials": 50000},
    "concentration_h2": {"N": [3000, 30000, 300000], "trials": 60},
    "concentration_h3": {"N": [3000, 30000, 300000], "trials": 60},
    "b_convergence_h2": {},
    "b_convergence_h4": {},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument("--results", default="results")
    args = parser.parse_args()
    if args.check and args.quick:
        parser.error("--check compares full-size reports with results/; drop --quick")

    stems = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
    if args.only:
        missing = set(args.only) - set(stems)
        if missing:
            print(f"unknown config stems: {sorted(missing)}", file=sys.stderr)
            return 2
        stems = args.only

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch if args.check else args.results)
        out_dir.mkdir(parents=True, exist_ok=True)
        failures = _run(stems, args, out_dir)
        if args.check:
            differ = [stem for stem in stems if _differs(stem, out_dir, Path(args.results))]
            for stem in differ:
                print(f"{stem}: differs from {args.results}/", file=sys.stderr)
            print(f"{len(stems) - len(differ)}/{len(stems)} reports byte-identical "
                  f"to {args.results}/")
            return 1 if differ else 0
    print(f"\n{len(stems) - failures}/{len(stems)} configs passed")
    return 1 if failures else 0


def _differs(stem: str, new_dir: Path, old_dir: Path) -> bool:
    for name in (f"{stem}.json", f"{stem}.csv"):
        old = old_dir / name
        if not old.is_file() or old.read_bytes() != (new_dir / name).read_bytes():
            return True
    return False


def _run(stems, args, out_dir: Path) -> int:
    """Run each config, write its reports to out_dir; the number that failed."""
    failures = 0
    for stem in stems:
        data = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        if args.quick:
            data.update(QUICK_OVERRIDES.get(stem, {}))
        config = config_from_jsonable(data)
        t0 = time.perf_counter()
        report = run_experiment(config, workers=args.workers)
        elapsed = time.perf_counter() - t0
        (out_dir / f"{stem}.json").write_text(report.to_json())
        (out_dir / f"{stem}.csv").write_text(report.csv_text())
        verdict = "pass" if report.all_pass else "FAIL"
        print(f"{stem:>20}: {verdict}  ({elapsed:6.1f}s)")
        for row in report.rows:
            predicted = "-" if row.predicted is None else f"{row.predicted:.6g}"
            rel = "-" if row.rel_err is None else f"{row.rel_err:.2%}"
            print(
                f"{'':>22}({row.s},{row.d}) N={row.N}: mean={row.mean:.6g} "
                f"predicted={predicted} off={rel}"
            )
        if not report.all_pass:
            failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
