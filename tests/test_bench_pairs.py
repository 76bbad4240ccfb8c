import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

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
