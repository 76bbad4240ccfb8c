#!/usr/bin/env python3
"""Self-test of the benchmark's report check.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload at a small trial count it runs the experiment, then
requires that the untouched report passes the check, that a report with a
prediction or pass flag changed still passes (only measured fields are
compared), and that a report with one measured statistic altered comes out
as a failed operation.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from gensumset.experiments import config_from_jsonable, run_experiment  # noqa: E402

SMALL_TRIALS = {"mstd": 1024, "fast_h3": 6, "critical_h3": 3, "slow_h2": 2}


def _bump(value):
    """The smallest change a statistic can see: one count, or one part in 10^7."""
    return value + 1 if isinstance(value, int) else value * (1 + 1e-7) + 1e-9


def _altered(report: dict, path: tuple, change=_bump) -> dict:
    copied = copy.deepcopy(report)
    *parents, last = path
    target = copied
    for key in parents:
        target = target[key]
    target[last] = change(target[last])
    return copied


def _alterations(report: dict) -> dict[str, dict]:
    """Copies of the report with one measured statistic altered, by path."""
    kind = report["kind"]
    paths = [("rows", 0, "mean"), ("rows", 0, "stddev"), ("rows", -1, "excluded")]
    changes = {}
    if kind == "mstd":
        paths += [("extras", "100", "sum_dominated"), ("extras", "100", "balanced")]
        # One more missing difference in one trial moves the mean by exactly 1/T.
        trials = report["rows"][1]["trials"]
        changes[("rows", 1, "mean")] = lambda v: v + 1 / trials
    if kind == "slow-h2":
        paths.append(("checks", 0, "value"))
        changes[("extras", "missing_frequency", "1000000", 0, "freq")] = lambda v: v + 0.25
    if kind == "critical-size":
        changes[("extras", "first_combo_strictly_largest", "1000000")] = lambda v: v + 0.25
    changes.update({path: _bump for path in paths})
    return {
        ".".join(map(str, path)): _altered(report, path, change)
        for path, change in changes.items()
    }


def _unmeasured_changes(report: dict) -> dict:
    """A copy with every prediction and pass flag changed."""
    changed = copy.deepcopy(report)
    for row in changed["rows"]:
        row["predicted"] = 123.0 if row["predicted"] is None else row["predicted"] * 2
        row["rel_err"] = 0.5
        row["passed"] = not row["passed"]
    for chk in changed["checks"]:
        chk["predicted"] = 7.0
        chk["passed"] = not chk["passed"]
    changed["all_pass"] = not changed["all_pass"]
    return changed


def main() -> int:
    problems = []
    for name, trials in SMALL_TRIALS.items():
        config = workloads.config_data(name, trials=trials)
        report = json.loads(run_experiment(config_from_jsonable(config), workers=1).to_json())
        altered = _alterations(report)
        texts = [json.dumps(report), json.dumps(_unmeasured_changes(report))]
        texts += [json.dumps(r) for r in altered.values()]
        failed, messages = check.failed_operations(texts + [None], config)
        if failed[0]:
            problems.append(f"{name}: the untouched report fails: {messages}")
        if failed[1]:
            problems.append(f"{name}: changed predictions or pass flags fail the check")
        for label, bad in zip(altered, failed[2:-1]):
            if not bad:
                problems.append(f"{name}: altered {label} is not caught")
        if not failed[-1]:
            problems.append(f"{name}: an operation that raised is not counted as failed")
        print(f"{name}: {trials} trials, {len(altered)} alterations, "
              f"{sum(failed[2:-1])} caught", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
