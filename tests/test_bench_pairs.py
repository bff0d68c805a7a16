import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

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
    rows = [re.match(r"^(\S+)\s+(\S+)\s+0\s+(\S+)\s+0\s+(\S+)\s+([01])/1$", line)
            for line in lines[2:-1]]
    assert all(rows), lines
    assert [row[1] for row in rows] == names
    runs = json.loads(lines[-1])
    assert [len(runs["parent"]), len(runs["change"])] == [1, 1]
    assert all(r["correct"] for side in runs.values() for r in side)
    # the benchmark's sources are left as they were; it writes only under _work
    assert {p: p.read_bytes() for p in (tree / "bench").rglob("*")
            if p.is_file() and "_work" not in p.parts} == bench_files
