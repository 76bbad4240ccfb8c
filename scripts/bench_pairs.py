#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs; write BENCH_<pr>.json.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --base REV [--change REV] --pr N

Each side is a clean checkout of its revision (`git archive`) in a
temporary directory, so nothing untracked or uncommitted reaches either
run.  REV is anything `git archive` takes: a commit, a branch, or a tree
such as `git write-tree` prints for the staged state.  Each REV is resolved
once, before its checkout, to the hash `git rev-parse --verify` prints, and
the file records the hashes, which keep naming the same revisions when HEAD
or a branch moves.  For every workload
in `BENCHMARK.json`, each of 10 pairs runs `perfbench/run.py --workload W
--seconds S` once on each side, S being `BENCHMARK.json`'s run length; the
base runs first in even pairs and the change in odd ones, so a drift of the
machine's speed during a pair does not always favour one side.  Only pairs
measured in the same session can be compared, which is why every change
writes its own file.  Tier-1 runs on both sides in 3 pairs, alternating
the same way, and so does the battery: each `scripts/configs` config is
one `scripts/run_regimes.py --check --workers 1 --only STEM` run, timed
from its start to its exit, which also says whether its report is
byte-identical to that side's `results/`.  Each config also runs once a
side at `--workers 2`, recorded the same way.  The file is written after
each of these three stages (workloads, tier-1, battery), so a stage that
fails leaves the results of those before it.

Every child runs in its own session (`run_child`).  A SIGTERM or Ctrl-C kills
the running child's whole process group, `perfbench/run.py`'s workers
included, and removes the temporary directory, which is also the
children's TMPDIR, so a stopped comparison leaves nothing running and no
copy behind.

The file holds the machine (nproc, CPU model, Python and numpy versions),
per workload each side's failed and attempted operations and each run's
`correct` flag, per end-to-end metric each side's runs, median and
quartiles (`statistics.quantiles`' default exclusive method, as
`perfbench/spread.py` uses) and the change's wins out of the pairs, and
per side each tier-1 run's wall time, passed and failed counts and failed
tests, and the median of each test's duration over its runs (`pytest
--durations=0`, which hides those under 5 ms, read as 0), and per side and
config each battery run's wall time and byte-identity and the median wall
time, and its `--workers 2` run under `workers_2`.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"]
PAIRS = 10
TIER1_PAIRS = 3
COUNT = re.compile(r"(\d+) (passed|failed)")
DURATION = re.compile(r"^\s*([0-9.]+)s (setup|call|teardown)\s+(\S+)\s*$")


def run_child(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run's result for cmd, its output captured, in a new session.

    On any exception, a SIGTERM turned into SystemExit or a KeyboardInterrupt
    included, the child's process group is killed and waited for before the
    exception goes on: the child and everything it started in its group.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def resolve(rev: str) -> str:
    """The hash of rev (`git rev-parse --verify`); exits if rev names nothing."""
    proc = run_child(["git", "rev-parse", "--verify", rev], cwd=ROOT, text=True)
    if proc.returncode != 0:
        sys.exit(f"{rev}: not a revision\n{proc.stderr}")
    return proc.stdout.strip()


def checkout(rev: str, into: Path) -> Path:
    """A clean copy of rev's tracked files in a new directory `into`."""
    archive = run_child(["git", "archive", "--format=tar", rev], cwd=ROOT)
    archive.check_returncode()
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)
    return into


def bench(side: Path, workload: str, seconds: int, metrics: list[str], where: str) -> dict:
    """One perfbench run on one side: its last stdout line, a JSON object.

    Exits naming `where` (workload, pair and side) if the run fails or
    reports no value for one of `metrics`, as a run with no good operation
    does.
    """
    proc = run_child([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seconds", str(seconds)], cwd=side, text=True)
    if proc.returncode != 0:
        sys.exit(f"{where}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    missing = [name for name in metrics if name not in result.get("metrics", {})]
    if missing:
        sys.exit(f"{where}: no value for {', '.join(missing)} "
                 f"({result.get('failed')} of {result.get('attempted')} operations failed)")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def alternate(i: int) -> tuple[str, str]:
    """The order in which pair i runs the sides: the base first in even pairs."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def tier1(side: Path) -> dict:
    """One run: wall time, passed and failed counts, the failed tests' ids,
    summary line and per-test durations (all phases summed)."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = run_child(TIER1, cwd=side, env=env, text=True)
    wall = time.perf_counter() - start
    durations: dict[str, float] = {}
    for line in proc.stdout.splitlines():
        if match := DURATION.match(line):
            test = match[3]
            durations[test] = round(durations.get(test, 0.0) + float(match[1]), 3)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in COUNT.findall(summary)}
    failures = [line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("FAILED ")]
    return {"wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "failures": failures,
            "summary": summary.strip("= "), "durations_s": durations}


def tier1_pairs(sides: dict[str, Path]) -> dict:
    """Each side's tier-1 runs, TIER1_PAIRS of them alternating with the other side's."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(TIER1_PAIRS):
        for side in alternate(i):
            runs[side].append(tier1(sides[side]))
            print(f"tier-1 pair {i + 1} {side}: {runs[side][-1]['summary']}", file=sys.stderr)
    out = {}
    for side, side_runs in runs.items():
        tests = set().union(*(run["durations_s"] for run in side_runs))
        medians = {test: statistics.median(run["durations_s"].get(test, 0.0)
                                           for run in side_runs) for test in tests}
        out[side] = {"median_wall_s": statistics.median(run["wall_s"] for run in side_runs),
                     "runs": [{k: v for k, v in run.items() if k != "durations_s"}
                              for run in side_runs],
                     "median_durations_s": dict(sorted(medians.items(),
                                                       key=lambda kv: -kv[1]))}
    return out


def battery_run(side: Path, stem: str, workers: int, where: str) -> dict:
    """One `run_regimes.py --check` run of one config: wall time and byte-identity."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = run_child([sys.executable, "scripts/run_regimes.py", "--check",
                "--workers", str(workers), "--only", stem], cwd=side, env=env, text=True)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: the report differs from results/
        sys.exit(f"{where}: run_regimes.py exited {proc.returncode}\n{proc.stderr}")
    run = {"wall_s": round(wall, 3), "identical": proc.returncode == 0}
    print(f"{where}: {run}", file=sys.stderr)
    return run


def battery_pairs(sides: dict[str, Path]) -> dict:
    """Per config, each side's battery runs at --workers 1, TIER1_PAIRS of them
    alternating with the other side's, then one run a side at --workers 2.

    On a 2-core machine --workers 1 draws each large trial on both cores,
    and --workers 2 runs two processes of one thread each, so the two
    settings check the multi-threaded and the one-thread sampling paths."""
    stems = sorted(path.stem for path in (sides["change"] / "scripts" / "configs").glob("*.json"))
    out: dict[str, dict] = {}
    for stem in stems:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(TIER1_PAIRS):
            for side in alternate(i):
                runs[side].append(battery_run(sides[side], stem, 1,
                                              f"battery {stem} pair {i + 1} {side}"))
        out[stem] = {side: {"median_wall_s": statistics.median(r["wall_s"] for r in side_runs),
                            "runs": side_runs} for side, side_runs in runs.items()}
        for side in alternate(0):
            out[stem][side]["workers_2"] = battery_run(sides[side], stem, 2,
                                                       f"battery {stem} workers 2 {side}")
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = run_child([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy}


def _stop(signum, frame):
    """SIGTERM as SystemExit, so that `with` blocks and `run_child` clean up."""
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the changed side")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    args = parser.parse_args(argv)
    args.base, args.change = resolve(args.base), resolve(args.change)
    signal.signal(signal.SIGTERM, _stop)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        os.environ["TMPDIR"] = workdir  # what a killed child leaves goes with it
        compare(args, {side: checkout(rev, Path(workdir) / side)
                       for side, rev in (("base", args.base), ("change", args.change))})
    return 0


def compare(args: argparse.Namespace, sides: dict[str, Path]) -> dict:
    """Run the pairs of every workload, then tier-1's and the battery's, and
    return the file's contents.

    BENCH_<pr>.json is written after each of the three stages, so a stage
    that fails leaves the stages before it in the file.
    """
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    result = {"pr": args.pr, "base": args.base, "change": args.change,
              "command": spec["command"] + ["--seconds", str(spec["run_seconds"])],
              "machine": machine()}
    out = ROOT / f"BENCH_{args.pr}.json"
    for stage, run in (("workloads", lambda: workload_pairs(sides, spec)),
                       ("tier1", lambda: tier1_pairs(sides)),
                       ("battery", lambda: battery_pairs(sides))):
        result[stage] = run()
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {stage} to {out}", file=sys.stderr)
    return result


def workload_pairs(sides: dict[str, Path], spec: dict) -> dict:
    """Per workload of spec, each side's PAIRS runs alternating with the other
    side's: failed and attempted operations, correctness, and per end-to-end
    metric each side's spread and the change's wins."""
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(PAIRS):
            for side in alternate(i):
                runs[side].append(bench(sides[side], workload, seconds, list(metrics),
                                        f"{workload} pair {i + 1} {side}"))
                print(f"{workload} pair {i + 1} {side}: "
                      f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
        entry = {"failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
                 "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
                 "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
                 "metrics": {}}
        for name, meta in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            sign = 1 if meta["better"] == "higher" else -1
            wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
            entry["metrics"][name] = {"unit": meta["unit"], "better": meta["better"],
                                      "base": spread(values["base"]),
                                      "change": spread(values["change"]),
                                      "change_wins": wins, "pairs": PAIRS}
        workloads[workload] = entry
    return workloads


if __name__ == "__main__":
    sys.exit(main())
