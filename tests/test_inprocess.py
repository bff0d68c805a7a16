import subprocess
import sys

import pytest

from polyhead import network
from reference import ROOT


def test_the_tools_pin_every_blas_thread_var(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import inprocess
    assert inprocess.BLAS_THREAD_VARS == network.BLAS_THREAD_VARS


@pytest.mark.parametrize("tool", ["artifact_grid", "gram_timings", "step_timings"])
def test_no_package_under_src_is_refused(tmp_path, tool):
    out = tmp_path / "grid"
    extra = ["--out", str(out)] if tool == "artifact_grid" else ["--size", "tiny"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / f"{tool}.py"),
                           "--src", str(tmp_path), *extra],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: no polyhead package under {tmp_path.resolve()}\n"
    assert not out.exists()
