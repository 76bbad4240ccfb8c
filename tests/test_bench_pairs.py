import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_a_stopped_comparison_leaves_no_child_and_no_copy_behind(tmp_path):
    # A driver runs bench_pairs.main with the comparison replaced by one
    # child that writes its pid and sleeps.  SIGTERM to the driver must end
    # the child and remove the temporary directory.  Two processes start:
    # the driver and the child.
    pid_file = tmp_path / "child.pid"
    child = ("import os, time; open(os.environ['PID_FILE'], 'w').write(str(os.getpid())); "
             "time.sleep(60)")
    driver = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SCRIPTS)!r})
        import bench_pairs
        child = [sys.executable, "-c", {child!r}]
        bench_pairs.resolve = lambda rev: rev
        bench_pairs.checkout = lambda rev, into: into
        bench_pairs.compare = lambda args, sides: bench_pairs.run_child(child)
        bench_pairs.main(["--base", "HEAD", "--pr", "0"])
    """)
    env = dict(os.environ, TMPDIR=str(tmp_path), PID_FILE=str(pid_file))
    with subprocess.Popen([sys.executable, "-c", driver], env=env) as proc:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert proc.poll() is None, "the driver exited early"
            assert time.monotonic() < deadline, "the child never wrote its pid"
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        assert len(list(tmp_path.glob("bench_pairs_*"))) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError(f"the child {pid} is still running")
    assert list(tmp_path.glob("bench_pairs_*")) == []


def test_a_failing_stage_leaves_the_earlier_stages_in_the_file(tmp_path, monkeypatch):
    # The comparison runs in this process, every child stubbed out, so it
    # starts no process.  Its battery stage raises after the workload and
    # tier-1 stages, whose results must be in BENCH_0.json.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    spec = {"command": ["perfbench"], "run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}]}

    checked_out = []

    def checkout(rev, into):
        checked_out.append(rev)
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(spec))
        return into

    def bench(side, workload, seconds, metrics, where):
        value = 2.0 if side.name == "base" else 1.0
        return {"failed": 0, "attempted": 3, "correct": True, "metrics": {"m": {"value": value}}}

    def tier1(side):
        return {"wall_s": 5.0, "passed": 7, "failed": 0, "failures": [],
                "summary": "7 passed", "durations_s": {"test_x": 0.5}}

    def battery_pairs(sides):
        raise RuntimeError("battery stage failed")

    for name, stub in (("ROOT", tmp_path), ("resolve", lambda rev: f"hash of {rev}"),
                       ("checkout", checkout), ("bench", bench),
                       ("tier1", tier1), ("battery_pairs", battery_pairs),
                       ("machine", lambda: {"nproc": 1})):
        monkeypatch.setattr(bench_pairs, name, stub)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # main repoints it; restored afterwards
    with pytest.raises(RuntimeError, match="battery stage failed"):
        bench_pairs.main(["--base", "HEAD~1", "--pr", "0"])
    result = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert list(result) == ["pr", "base", "change", "command", "machine", "workloads", "tier1"]
    assert (result["base"], result["change"]) == ("hash of HEAD~1", "hash of HEAD")
    assert checked_out == ["hash of HEAD~1", "hash of HEAD"]
    metric = result["workloads"]["w"]["metrics"]["m"]
    assert metric["base"]["runs"] == [2.0] * bench_pairs.PAIRS
    assert metric["change_wins"] == bench_pairs.PAIRS
    assert result["tier1"]["change"]["median_wall_s"] == 5.0
    assert result["tier1"]["base"]["median_durations_s"] == {"test_x": 0.5}


def test_resolve_gives_the_hash_git_rev_parse_gives(monkeypatch):
    # One process at a time: `git rev-parse HEAD`, then resolve's own.  In
    # a copy that is no git work tree (`git archive`), both must fail.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_pairs.ROOT,
                          capture_output=True, text=True)
    if head.returncode != 0:
        with pytest.raises(SystemExit, match="HEAD: not a revision"):
            bench_pairs.resolve("HEAD")
    else:
        assert bench_pairs.resolve("HEAD") == head.stdout.strip()
