import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from reference import ROOT


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
    assert lines[0] == "many_class_train: 1 pairs of 0.2 s, seeds 1-1, size tiny"
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


def test_a_run_that_does_not_finish_is_killed(tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree"
    (tree / "bench").mkdir(parents=True)
    pid_file = tmp_path / "pid"
    (tree / "bench" / "run.py").write_text(
        "import os, pathlib, time\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "time.sleep(600)\n")
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    tool = load_tool()
    monkeypatch.setattr(tool, "SLACK_S", 2.0)

    assert tool.main(["--parent", str(tree), "--change", str(tree),
                      "--workload", "many_class_train", "--pairs", "1",
                      "--seconds", "0.25"]) == 2
    assert "did not finish within 2.5 s and was killed" in capsys.readouterr().err
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_a_change_without_a_benchmark_spec_is_a_usage_error(tmp_path, capsys):
    tree = tmp_path / "tree"
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text("raise SystemExit(3)\n")
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(["--parent", str(tree), "--change", str(tree),
                          "--workload", "many_class_train"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: --change {tree.resolve()} has no "
                                         "BENCHMARK.json")
    assert "Traceback" not in err


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
