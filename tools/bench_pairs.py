"""Alternating parent/change pairs of ``bench/run.py``, and what they show.

Runs the benchmark of two source trees, a parent and a change, one after the
other on the same seed, for ``--pairs`` seeds, and swaps which tree runs first
in every other pair so that a slow drift of the host does not favour one side.
For every end-to-end metric of the change's ``BENCHMARK.json`` it then prints
each side's median and interquartile range over the pairs, the change's median
relative to the parent's, the number of pairs that the change won, and a
verdict::

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/bench_pairs.py --parent /tmp/parent --change . \\
        --workload many_class_train --pairs 5 --seconds 50

The verdict is ``gain`` when the change won at least 9 of every 10 pairs and
its median moved by more than the parent's IQR, ``worse`` when its median is
worse than the parent's by more than the metric's ``bound`` (a share of the
parent's median), ``unresolved`` when neither holds and the parent's own IQR
is wider than the bound, unless every change run reads better than every
parent run, and ``-`` otherwise: runs spread wider than the bound cannot show
that a metric is unchanged.  The per-run results follow as one JSON line.
The exit code is 1 when a run reported a failed command, and 2 when a run
did not finish: it exited with an error, or it ran longer than
twice its ``--seconds`` plus ``SLACK_S`` and was killed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# What a run may take beyond its timed loop: start-up, set-ups of at least 3 s,
# calibration and the pass that runs past the deadline, each a few seconds
SLACK_S = 120.0


def run_bench(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result line of one ``bench/run.py`` run in ``tree``."""
    timeout = 2.0 * seconds + SLACK_S
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--size", size],
                              cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"bench/run.py in {tree} did not finish within "
                           f"{timeout:g} s and was killed") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(metric: dict, parent: list, change: list, won: int) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``-`` for one metric's runs, as
    the module says."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    before, after = statistics.median(parent), statistics.median(change)
    if 10 * won >= 9 * len(parent) and sign * (after - before) > iqr(parent):
        return "gain"
    if sign * (before - after) > metric["bound"] * abs(before):
        return "worse"
    if (iqr(parent) > metric["bound"] * abs(before)
            and min(sign * c for c in change) <= max(sign * p for p in parent)):
        return "unresolved"
    return "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="source tree of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no bench/run.py")
    if not (trees["change"] / "BENCHMARK.json").is_file():
        parser.error(f"--change {trees['change']} has no BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            try:
                result = run_bench(trees[side], args.workload, seed, args.seconds,
                                   args.size)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            runs[side].append(result)
            print(f"pair {pair + 1}/{args.pairs} seed {seed} {side}: "
                  f"{result['failed']} of {result['attempted']} commands failed",
                  file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}, size {args.size}")
    print(f"{'metric':<22}{'parent':>14}{'IQR':>12}{'change':>14}{'IQR':>12}"
          f"{'rel':>9}{'won':>7}{'verdict':>11}")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(values["parent"], values["change"]))
        medians = {side: statistics.median(values[side]) for side in SIDES}
        relative = (f"{100.0 * (medians['change'] / medians['parent'] - 1.0):+.1f}%"
                    if medians["parent"] else "n/a")
        print(f"{name:<22}{medians['parent']:>14.6g}{iqr(values['parent']):>12.3g}"
              f"{medians['change']:>14.6g}{iqr(values['change']):>12.3g}"
              f"{relative:>9}{f'{won}/{args.pairs}':>7}"
              f"{verdict(metric, values['parent'], values['change'], won):>11}")
    print(json.dumps(runs))
    return 0 if all(r["correct"] for side in SIDES for r in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
