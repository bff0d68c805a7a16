import json
import re
import subprocess
import sys

import pytest

from reference import ROOT


def test_grid_runs_every_config(tmp_path):
    out = tmp_path / "grid"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_grid.py"),
                           "--src", str(ROOT / "src"), "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    commands = re.findall(r"^(gen-weights|check|train|eval) (\S+): exit (\d+), "
                          r"stdout sha256 [0-9a-f]{64}$", proc.stdout, re.M)
    heads, runs = commands[:25], commands[25:]
    assert len({name for _, name, _ in heads}) == 13
    assert [(kind, code) for kind, _, code in heads] == [("gen-weights", "0"),
                                                         ("check", "0")] * 12 + [("check", "1")]
    assert heads[-1][1] == "simplex-10-nudged"
    assert len({name for _, name, _ in runs}) == 50
    assert [(kind, code) for kind, _, code in runs] == [("train", "0"),
                                                        ("eval", "0")] * 50
    for _, name, _ in runs[::2]:  # eval reads the head's phi from the checkpoint
        phis = [json.loads((out / name / report).read_text())["phi"]
                for report in ("geometry.json", "eval.json")]
        assert phis[0] == phis[1] is not None, name
    files = re.findall(r"^[0-9a-f]{64}  (\S+)$", proc.stdout, re.M)
    assert len(files) == sum(1 for p in out.rglob("*") if p.is_file())
    assert len(commands) + len(files) == len(proc.stdout.splitlines())


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_through_a_file_is_refused(tmp_path, under):
    blocker = tmp_path / "grid"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_grid.py"),
                           "--src", str(ROOT / "src"), "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {blocker} is not a directory\n"
    assert blocker.read_text() == "x"
