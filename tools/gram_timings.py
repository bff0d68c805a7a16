"""Median in-process ``verify_geometry`` time of polytope heads and random unit rows.

Times ``polytope.verify_geometry`` with one BLAS thread on each family's
head at every class count of CLASS_COUNTS that its maker accepts, and on
random unit rows of every (K, d) of ROW_SETS, checked as a cube head, which
they fail after the whole angle search has run.  It prints one line per
input: its name, K, d, the median time in ms of REPEATS calls after one
warm-up call, and the traced peak of one more call in MB (``tracemalloc``,
which numpy reports its buffers to).  Run it on two source trees to compare the
angle search of a parent and a change::

    python tools/gram_timings.py --src src > new.txt
    python tools/gram_timings.py --src /tmp/parent/src > old.txt

``--size tiny`` times a few small inputs in about a second, a smoke run.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

from inprocess import import_polyhead, median_ms

CLASS_COUNTS = {"full": (47, 300, 1000, 2000, 5000), "tiny": (47, 300)}
# (K, d) of the random unit row sets
ROW_SETS = {"full": [(K, d) for K in (1000, 2000) for d in (32, 64, 128, 256)],
            "tiny": [(300, 32)]}
REPEATS = {"full": 21, "tiny": 3}


def inputs(size: str):
    """(name, weights) of every head its maker accepts and every unit row set."""
    import numpy as np
    from polyhead import polytope
    for kind in polytope.PolytopeKind:
        for classes in CLASS_COUNTS[size]:
            try:  # the simplex stops at 4096 classes (MAX_HEAD_ENTRIES)
                yield kind.value, polytope.make_weights(kind, classes)
            except polytope.ClassCountError:
                continue
    rng = np.random.default_rng(0)
    for classes, dim in ROW_SETS[size]:
        rows = rng.normal(size=(classes, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        kind = polytope.PolytopeKind.CUBE
        yield "unit-rows", polytope.ClassifierWeights(kind, rows,
                                                      polytope.expected_angle(kind, dim))


def time_check(weights, repeats: int) -> tuple:
    """The median time of ``repeats`` checks in ms, and one check's traced peak in MB."""
    from polyhead.polytope import verify_geometry
    ms = median_ms(lambda: verify_geometry(weights), repeats)
    tracemalloc.start()
    try:
        verify_geometry(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ms, peak / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the polyhead package (default: this tree's)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    src, repeats = args.src.resolve(), REPEATS[args.size]
    if not import_polyhead(src):
        return 2

    print(f"# verify_geometry: median of {repeats} calls, 1 BLAS thread; "
          "traced peak of one call")
    print(f"{'input':<10} {'K':>5} {'d':>5} {'ms':>10} {'peak_MB':>8}")
    for name, weights in inputs(args.size):
        ms, peak_mb = time_check(weights, repeats)
        print(f"{name:<10} {weights.num_classes:>5} {weights.dim:>5} "
              f"{ms:>10.3f} {peak_mb:>8.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
