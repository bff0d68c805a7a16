"""Median in-process times of the training step's kernels and of one training epoch.

Times ``network.forward``, ``network.backward`` and ``network.adam_step`` on a
512-row batch, and one ``network.train`` epoch, with one BLAS thread, on the
784 -> 256 -> 9 simplex-10 and 784 -> 256 -> 46 simplex-47 backbones with a
fixed head, each on one CPU and on two (``os.sched_setaffinity`` of this
process's main thread; a CPU count the host lacks is left out).  It prints one
line per backbone and CPU count: the median time in ms of each kernel over
REPEATS calls after one warm-up call, and of EPOCH_REPEATS epochs of
EPOCH_ROWS random images in 512-row batches after one warm-up epoch.  Run it
on two source trees to compare the step of a parent and a change::

    python tools/step_timings.py --src src > new.txt
    python tools/step_timings.py --src /tmp/parent/src > old.txt

``--size tiny`` times a small model and epoch in about a second, a smoke run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from inprocess import import_polyhead, median_ms

# (input dim, hidden widths, classes of the simplex head)
BACKBONES = {"full": [(784, [256, 9], 10), (784, [256, 46], 47)],
             "tiny": [(784, [256, 9], 10)]}
BATCH_ROWS = 512
REPEATS = {"full": 21, "tiny": 3}
EPOCH_ROWS = {"full": 10_000, "tiny": 1024}
EPOCH_REPEATS = {"full": 5, "tiny": 1}


def time_backbone(input_dim: int, widths: list, classes: int, size: str) -> tuple:
    """forward, backward, adam_step and epoch medians in ms, on the CPUs this
    thread may run on."""
    import numpy as np
    from polyhead import losses, network
    from polyhead.data import LabeledBatch
    from polyhead.polytope import make_simplex
    head = make_simplex(classes)
    model = network.init_model(input_dim, widths, head, seed=3)
    rng = np.random.default_rng(4)
    x = rng.random((BATCH_ROWS, input_dim))
    feats, cache = network.forward(model, x)
    grad = rng.normal(size=feats.shape) / BATCH_ROWS
    grads = network.backward(model, cache, grad)
    state = network.AdamState(lr=1e-6)
    kernels = [median_ms(lambda: network.forward(model, x), REPEATS[size]),
               median_ms(lambda: network.backward(model, cache, grad), REPEATS[size]),
               median_ms(lambda: network.adam_step(model, grads, state), REPEATS[size])]
    rows = EPOCH_ROWS[size]
    data = LabeledBatch(rng.random((rows, input_dim)), rng.integers(0, classes, rows))
    config = network.TrainConfig(losses.AngularMargin(losses.KAPPA_DEFAULT, head.phi),
                                 epochs=1, seed=5, batch_size=BATCH_ROWS, lr=5e-4)
    epoch = median_ms(lambda: network.train(model, data, config), EPOCH_REPEATS[size])
    return (*kernels, epoch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the polyhead package (default: this tree's)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not import_polyhead(src):
        return 2

    usable = sorted(os.sched_getaffinity(0))
    print(f"# ms, median of {REPEATS[args.size]} calls at {BATCH_ROWS} rows and of "
          f"{EPOCH_REPEATS[args.size]} epochs of {EPOCH_ROWS[args.size]} rows, "
          "1 BLAS thread")
    print(f"{'backbone':<12} {'cpus':>4} {'forward':>9} {'backward':>9} "
          f"{'adam_step':>9} {'epoch':>9}")
    try:
        for input_dim, widths, classes in BACKBONES[args.size]:
            name = "-".join(map(str, [input_dim, *widths]))
            for cpus in (c for c in (1, 2) if c <= len(usable)):
                os.sched_setaffinity(0, usable[:cpus])
                times = time_backbone(input_dim, widths, classes, args.size)
                print(f"{name:<12} {cpus:>4}" + "".join(f" {t:>9.3f}" for t in times),
                      flush=True)
    finally:
        os.sched_setaffinity(0, usable)
    return 0


if __name__ == "__main__":
    sys.exit(main())
