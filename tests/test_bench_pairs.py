import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_one_tiny_pair_of_the_same_tree(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tree / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    bench_files = {p: p.read_bytes() for p in (tree / "bench").rglob("*") if p.is_file()}

    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           "--parent", str(tree), "--change", str(tree),
                           "--workload", "many_class_train", "--pairs", "1",
                           "--seconds", "0.2", "--size", "tiny"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    lines = proc.stdout.splitlines()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    rows = [re.match(r"^(\S+)\s+(\S+)\s+0\s+(\S+)\s+0\s+(\S+)\s+([01])/1\s+(gain|worse|-)$",
                     line)
            for line in lines[2:-1]]
    assert all(rows), lines
    assert [row[1] for row in rows] == names
    runs = json.loads(lines[-1])
    assert [len(runs["parent"]), len(runs["change"])] == [1, 1]
    assert all(r["correct"] for side in runs.values() for r in side)
    # the benchmark's sources are left as they were; it writes only under _work
    assert {p: p.read_bytes() for p in (tree / "bench").rglob("*")
            if p.is_file() and "_work" not in p.parts} == bench_files


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("better,parent,change,won,expected", [
    # 9 of 10 pairs won and the median past the parent's IQR (4.5)
    ("higher", [100.0 + i for i in range(10)], [105.0 + i for i in range(10)], 9, "gain"),
    ("lower", [100.0 + i for i in range(10)], [95.0 + i for i in range(10)], 9, "gain"),
    # 8 of 10 pairs, or a median inside the parent's IQR, is no gain
    ("higher", [100.0 + i for i in range(10)], [105.0 + i for i in range(10)], 8, "-"),
    ("higher", [100.0 + i for i in range(10)], [104.0 + i for i in range(10)], 10, "-"),
    # worse than the parent's median by more than the bound (25%)
    ("higher", [100.0] * 4, [74.0] * 4, 0, "worse"),
    ("lower", [100.0] * 4, [126.0] * 4, 0, "worse"),
    ("higher", [100.0] * 4, [76.0] * 4, 0, "-"),
    ("lower", [100.0] * 4, [124.0] * 4, 0, "-"),
])
def test_verdict(better, parent, change, won, expected):
    metric = {"name": "m", "better": better, "bound": 0.25}
    assert load_tool().verdict(metric, parent, change, won) == expected
