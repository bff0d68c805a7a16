"""Benchmark of the polyhead command-line tool.

Usage (from the repository root):

    python3 bench/run.py --workload paper_shape_train --seed 1 --seconds 20 --trace 0

Builds the seeded synthetic inputs of one workload (see ``workloads.py``),
then runs the workload's ``gen-weights`` / ``check`` / ``train`` / ``eval``
pipeline through ``polyhead.cli.main`` pass after pass for ``--seconds``,
checking every command's output.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, timed in reference seconds (wall time scaled
by the host's speed during each pass, see ``calibrate.py``); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.  The last line of standard output
is the result as one JSON object; the line before it holds every figure with
its sample count, the figures that are not gated and the environment, and
goes to ``bench/_work/results/`` as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
BLAS_THREADS = 1
SETUP_REPEATS = 5   # set up at least this often,
SETUP_MIN_S = 3.0   # and for at least this long, then report the median

def summary(values: list, higher_is_better: bool) -> dict:
    """Median, sample count, and the worst-side percentile that still has at
    least ten samples beyond it (None below eleven samples)."""
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    if n == 0:
        return {"value": math.nan, "n": 0, "tail": None}
    tail = None
    if n >= 11:
        tail = {"pct": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"value": statistics.median(ordered), "n": n, "tail": tail}


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "git_sha": git_sha(ROOT)}


def pass_figures(outcomes: list, head_rounds: int, clock: str = "ref_s") -> dict:
    """End-to-end figures of one pass of a workload, in reference seconds
    (``clock="ref_s"``, see ``calibrate.py``) or wall seconds (``"wall_s"``);
    the pass runs every head's gen-weights and check ``head_rounds`` times."""
    def total(kind, attr):
        return sum(getattr(o, attr) for o in outcomes if o.kind == kind)
    return {
        "train_samples_per_s": total("train", "samples") / total("train", clock),
        "eval_samples_per_s": total("eval", "samples") / total("eval", clock),
        # one round of every head's gen-weights and check
        "check_s": total("check", clock) / head_rounds,
        "gen_weights_s": total("gen-weights", clock) / head_rounds,
        "pass_s": sum(getattr(o, clock) for o in outcomes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    src = ROOT / "src"
    if not (src / "polyhead" / "__init__.py").is_file():
        print(f"error: no polyhead sources under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(src))
    import numpy as np
    import polyhead
    from polyhead import cli, data, losses, metrics, network, polytope
    if Path(polyhead.__file__).resolve().parent != (src / "polyhead").resolve():
        print(f"error: polyhead imported from {polyhead.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import calibrate
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    size = workloads.SIZES[args.size]
    build = workloads.WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    kernel = calibrate.Kernel()
    try:
        setup_wall, kernel_times = [], []
        kernel.sample(kernel_times, force=True)
        while len(setup_wall) < SETUP_REPEATS or sum(setup_wall) < SETUP_MIN_S:
            directory = run_dir / f"setup-{len(setup_wall)}"
            start = time.perf_counter()
            directory.mkdir(parents=True)
            commands = build(directory, args.seed, size)
            workloads.warm_up(directory / "warm-up")
            setup_wall.append(time.perf_counter() - start)
            kernel.sample(kernel_times)
        kernel.sample(kernel_times, force=True)
        setup_scale = kernel.scale(statistics.median(kernel_times))
        setup_times = [wall * setup_scale for wall in setup_wall]
        pipeline = workloads.Pipeline(commands, kernel)

        tracer = spans.Tracer({"polyhead": polyhead, "cli": cli, "data": data,
                               "losses": losses, "metrics": metrics,
                               "network": network, "polytope": polytope})
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = bool(args.trace) and len(plain) > len(traced)
            first_span = len(tracer.spans)
            outcomes = pipeline.run_pass(tracer if use_trace else None)
            if use_trace:
                traced.append((outcomes, spans.layer_metrics(tracer.spans[first_span:])))
            else:
                plain.append(outcomes)
            if time.perf_counter() >= deadline and (traced or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_outcomes = [o for p in plain for o in p] + [o for p, _ in traced for o in p]
    attempted = len(all_outcomes)
    failed = sum(not o.ok for o in all_outcomes)
    errors = sorted({o.error for o in all_outcomes if o.error})

    good = [p for p in plain if all(o.ok for o in p)]
    figures = [pass_figures(p, workloads.HEAD_ROUNDS) for p in good]
    wall_figures = [pass_figures(p, workloads.HEAD_ROUNDS, "wall_s") for p in good]
    e2e = {"setup_s": summary(setup_times, False)}
    wall_clock = {"setup_s": summary(setup_wall, False)}
    for name in ("train_samples_per_s", "eval_samples_per_s", "check_s",
                 "gen_weights_s"):
        higher = declared[name]["better"] == "higher"
        e2e[name] = summary([f[name] for f in figures], higher)
        wall_clock[name] = summary([f[name] for f in wall_figures], higher)
    e2e["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1, "tail": None}
    results = list(pipeline.train_results.values())  # worst over train commands
    e2e["final_mean_loss"] = {
        "value": max((r.mean_loss for r in results), default=math.nan),
        "n": len(results), "tail": None}
    not_gated = {
        "final_train_accuracy": {"value": min((r.train_accuracy for r in results),
                                              default=math.nan), "unit": "fraction"},
        "sep_over_phi": {"value": min((r.sep_over_phi for r in results),
                                      default=math.nan), "unit": "ratio"},
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
    }

    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "inputs": "synthetic", "trace": args.trace,
              "seconds": args.seconds, "passes": len(plain) + len(traced),
              "environment": environment(np), "not_gated": not_gated,
              "errors": errors, "pass_figures": figures,
              "reference_kernel_s": {
                  "nominal": calibrate.NOMINAL_S,
                  "setup_median": calibrate.NOMINAL_S / setup_scale,
                  "pass_medians": pipeline.kernel_medians},
              "wall_clock": wall_clock,
              "end_to_end": {k: dict(v, unit=declared[k]["unit"])
                             for k, v in e2e.items()}}

    if args.trace:
        per_pass = [m for _, m in traced]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        def pass_s(outcomes):
            return pass_figures(outcomes, workloads.HEAD_ROUNDS)["pass_s"]
        plain_s = statistics.median(pass_s(p) for p in plain)
        traced_s = statistics.median(pass_s(p) for p, _ in traced)
        layers["trace_overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        detail["per_layer"] = {k: {"value": v, "unit": declared[k]["unit"]}
                               for k, v in layers.items()}
        detail["per_layer_per_pass"] = per_pass
        detail["self_time_share_of_wall"] = (
            spans.self_time_total(layers) / layers["cli.wall_s"])
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = {k: v["value"] for k, v in e2e.items()}, spec["end_to_end"]
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in wanted}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_s{args.seed}_t{args.trace}"
    (results_dir / f"BENCH_{stem}.json").write_text(json.dumps(detail, indent=2))
    if args.trace:
        (results_dir / f"TRACE_{stem}.json").write_text(json.dumps(
            [dict(zip(("id", "name", "parent", "start", "end", "flops", "bytes"), s))
             for s in tracer.spans]))

    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
