import re
import subprocess
import sys

from reference import ROOT


def test_tiny_run_times_every_input():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "gram_timings.py"),
                           "--src", str(ROOT / "src"), "--size", "tiny"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == ("# verify_geometry: median of 3 calls, 1 BLAS thread; "
                        "traced peak of one call")
    rows = [re.fullmatch(r"(\S+) +(\d+) +(\d+) +(\d+\.\d{3}) +(\d+\.\d{2})", line)
            for line in lines[2:]]
    assert all(rows), lines
    assert [(m[1], int(m[2]), int(m[3])) for m in rows] == [
        ("simplex", 47, 46), ("simplex", 300, 299), ("orthoplex", 47, 24),
        ("orthoplex", 300, 150), ("cube", 47, 6), ("cube", 300, 9),
        ("unit-rows", 300, 32)]


def test_no_package_under_src_is_refused(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "gram_timings.py"),
                           "--src", str(tmp_path), "--size", "tiny"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: no polyhead package under {tmp_path.resolve()}\n"
