"""Tests of the benchmark itself, at the ``tiny`` size.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import spans
import workloads
from polyhead import cli, data, losses, metrics, network, polytope

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=120)


def result(workload: str, trace: int):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    detail, last = result(workload, 0)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert detail["not_gated"]["error_rate"]["value"] == 0.0
    assert detail["inputs"] == "synthetic" and detail["seed"] == 3
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    for value in (v["value"] for v in last["metrics"].values()):
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    detail, last = result(workload, 1)
    assert last["correct"] and last["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    passes = detail["per_layer_per_pass"]
    assert len(passes) >= 2
    for figures in passes:  # self times account for the command wall time
        assert spans.self_time_total(figures) == pytest.approx(figures["cli.wall_s"])
    for name in spans.CALL_COUNTS:
        assert len({p[name] for p in passes}) == 1, name


def test_paper_shape_call_counts_follow_the_shapes():
    detail, _ = result("paper_shape_train", 1)
    batches = math.ceil(TINY["idx_train"] / 512) * TINY["paper_epochs"]
    # train: one forward per batch, plus cli's forward and predict's forward;
    # eval: the same two again.
    for counts in detail["per_layer_per_pass"]:
        assert counts["network.forward_calls"] == batches + 2 + 2
        assert counts["losses.evaluate_calls"] == batches


def test_reference_seconds_follow_the_host_speed():
    assert calibrate.Kernel().run() > 0
    # a host running at half the nominal speed halves a time in reference seconds
    assert calibrate.Kernel.scale(2 * calibrate.NOMINAL_S) == 0.5
    detail, _ = result("many_class_train", 0)
    timed = {"setup_s", "train_samples_per_s", "eval_samples_per_s", "check_s",
             "gen_weights_s"}
    assert set(detail["wall_clock"]) == timed
    assert all(detail["wall_clock"][k]["value"] > 0 for k in timed)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = run_bench("paper_shape_train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores_it():
    modules = {"cli": cli, "data": data, "losses": losses, "metrics": metrics,
               "network": network, "polytope": polytope}
    originals = {(m, a): getattr(mod, a) for m, mod in modules.items()
                 for a in vars(mod)}
    tracer = spans.Tracer(modules)
    with tracer.installed():
        assert cli.make_weights is not originals[("polytope", "make_weights")]
        assert network.batches is not originals[("data", "batches")]
        batch = data.LabeledBatch([[0.0], [1.0], [2.0]], [0, 1, 0])
        assert len(list(network.batches(batch, 2, 0, 0))) == 2
    assert all(getattr(modules[m], a) is fn for (m, a), fn in originals.items())
    # one span per batch, plus the call that finds the generator exhausted
    assert [s[1] for s in tracer.spans] == ["data.batches"] * 3
