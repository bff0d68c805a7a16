import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    files = re.findall(r"^[0-9a-f]{64}  (\S+)$", proc.stdout, re.M)
    assert len(files) == sum(1 for p in out.rglob("*") if p.is_file())
    assert len(commands) + len(files) == len(proc.stdout.splitlines())
