"""What the in-process tools share: the polyhead package of a given source
tree, imported with one BLAS thread, and a median timer."""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

# network.BLAS_THREAD_VARS: importing network would load numpy, which reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_polyhead(src: Path) -> bool:
    """Imports the polyhead package under ``src`` with one BLAS thread, for stable
    bits.  Prints the error and returns False if there is none, or if another
    copy of it was imported instead."""
    if not (src / "polyhead" / "__init__.py").is_file():
        print(f"error: no polyhead package under {src}", file=sys.stderr)
        return False
    for var in BLAS_THREAD_VARS:  # read when numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import polyhead
    if Path(polyhead.__file__).resolve().parent != src / "polyhead":
        print(f"error: polyhead imported from {polyhead.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def median_ms(fn, repeats: int) -> float:
    """The median time of ``repeats`` calls of ``fn`` in ms, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3
