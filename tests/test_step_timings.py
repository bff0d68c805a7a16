import os
import re
import subprocess
import sys

from reference import ROOT


def test_tiny_run_times_each_kernel_on_each_cpu_count():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_timings.py"),
                           "--src", str(ROOT / "src"), "--size", "tiny"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == ("# ms, median of 3 calls at 512 rows and of 1 epochs of 1024 "
                        "rows, 1 BLAS thread")
    assert lines[1].split() == ["backbone", "cpus", "forward", "backward", "adam_step",
                                "epoch"]
    rows = [re.fullmatch(r"(\S+) +(\d+)( +\d+\.\d{3}){4}", line) for line in lines[2:]]
    assert all(rows), lines
    cpus = [c for c in (1, 2) if c <= len(os.sched_getaffinity(0))]
    assert [(m[1], int(m[2])) for m in rows] == [("784-256-9", c) for c in cpus]

