"""Host-speed calibration: a fixed reference kernel timed during every pass.

On a shared virtual machine the CPU's speed drifts: the same code runs up to
about 40% faster or slower from one minute to the next, and numpy kernels and
pure-Python loops move together.  A figure timed at one moment is therefore
largely a reading of the host.  The benchmark times this fixed kernel, whose
work never changes, several times during every pass, and scales the pass's
wall times by ``NOMINAL_S`` over the kernel's median time in that pass.  The
result is time in reference seconds: seconds at the speed the host had when
``NOMINAL_S`` was measured.  A slower program still reads slower; a slower
host no longer does.

The kernel is the step that dominates training: a dense float64 product at
the paper's first-layer shape (a 512-sample batch, 784 -> 256) and a ReLU,
into arrays made once, so that it allocates nothing and its time does not
depend on what the polyhead commands left on the heap.  Of the candidates
tried (this product, a smaller one, a JSON round trip, a pure-Python loop) it
followed the time of a paper-shape ``train`` most closely from one command to
the next.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median time of ``Kernel.run`` during the passes of a run on the 2-vCPU
# virtual machine the benchmark was built on (numpy with one BLAS thread).
NOMINAL_S = 0.031
REPEATS = 6
EVERY_S = 0.25  # least time between two samples, apart from forced ones


class Kernel:
    """The reference work, with its fixed inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.inputs = rng.standard_normal((512, 784))
        self.weights = rng.standard_normal((784, 256))
        self.hidden = np.empty((512, 256))
        self._last_end = -math.inf

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(REPEATS):
            np.matmul(self.inputs, self.weights, out=self.hidden)
            np.maximum(self.hidden, 0.0, out=self.hidden)
        self._last_end = time.perf_counter()
        return self._last_end - start

    def sample(self, times: list, force: bool = False) -> None:
        """Append a kernel time to ``times`` if ``EVERY_S`` has passed since
        the kernel last ran, or if ``force``."""
        if force or time.perf_counter() - self._last_end >= EVERY_S:
            times.append(self.run())

    @staticmethod
    def scale(kernel_s: float) -> float:
        """Factor that turns a wall time, measured while the kernel took
        ``kernel_s`` seconds, into reference seconds."""
        return NOMINAL_S / kernel_s
