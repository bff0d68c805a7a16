"""In-memory span tracing of polyhead's public functions, from outside.

A ``Tracer`` wraps each function in ``TARGETS`` together with every other
binding of the same object in the package (``cli`` imports ``make_weights``,
``load_json``, ``save_json`` and ``verify_geometry`` by name; ``network``
imports ``batches``), so calls reach the wrapper whichever name they use.
``installed()`` restores every original binding on exit.

Each span records its name, start, end and parent.  A layer's self time is
its spans' durations minus the time their child spans cover, so the self
times of all spans under one ``cli.main`` root add up to the command's wall
time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from contextlib import contextmanager

TARGETS = (
    "network.forward", "network.backward", "network.adam_step",
    "network.train", "network.predict", "network.save_checkpoint",
    "network.load_checkpoint",
    "losses.evaluate",
    "data.batches", "data.load_idx", "data.make_blobs",
    "polytope.make_weights", "polytope.save_json", "polytope.load_json",
    "polytope.verify_geometry",
    "metrics.export_scatter", "metrics.geometry_report",
)
ROOT = "cli.main"
GENERATORS = {"data.batches"}
FILE_ARG = {  # functions whose ``path`` argument names a file they write or read
    "network.save_checkpoint", "network.load_checkpoint",
    "polytope.save_json", "polytope.load_json", "metrics.export_scatter",
}

# Per-layer metric -> span whose summed self time it reports.
SELF_TIMES = {
    "network.forward_s": "network.forward",
    "network.backward_s": "network.backward",
    "network.adam_step_s": "network.adam_step",
    "network.train_self_s": "network.train",
    "network.predict_self_s": "network.predict",
    "network.save_checkpoint_s": "network.save_checkpoint",
    "network.load_checkpoint_s": "network.load_checkpoint",
    "losses.evaluate_s": "losses.evaluate",
    "data.batches_s": "data.batches",
    "data.load_idx_s": "data.load_idx",
    "data.make_blobs_s": "data.make_blobs",
    "polytope.make_weights_s": "polytope.make_weights",
    "polytope.save_json_s": "polytope.save_json",
    "polytope.load_json_s": "polytope.load_json",
    "polytope.verify_geometry_s": "polytope.verify_geometry",
    "metrics.export_scatter_s": "metrics.export_scatter",
    "metrics.geometry_report_s": "metrics.geometry_report",
    "cli.self_s": ROOT,
}
CALL_COUNTS = {
    "network.forward_calls": "network.forward",
    "losses.evaluate_calls": "losses.evaluate",
}
FILE_MB = {
    "network.checkpoint_mb": ("network.save_checkpoint",
                              "network.load_checkpoint"),
    "polytope.json_mb": ("polytope.save_json", "polytope.load_json"),
    "metrics.csv_mb": ("metrics.export_scatter",),
}


def forward_flops(model, batch) -> int:
    """FLOPs of one ``network.forward`` (two per multiply-add), computed from
    the shapes: every dense layer plus the head logits."""
    n = batch.shape[0]
    dense = sum(layer.w.shape[0] * layer.w.shape[1] for layer in model.layers)
    head = model.head.rows.shape[0] * model.head.rows.shape[1]
    return 2 * n * (dense + head)


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names (``network``, ``cli``, ...) to the
        package's modules; the package itself may be included."""
        self.modules = modules
        self.spans = []  # [id, name, parent_id, start, end, flops, bytes]
        self._stack = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, parent, time.perf_counter(), None, 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            return gen_wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if name == "network.forward":
                span[5] = forward_flops(*args[:2])
            elif name in FILE_ARG:
                path = signature.bind(*args, **kwargs).arguments["path"]
                span[6] = os.path.getsize(path)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every target; restore them all on exit."""
        replaced = []
        try:
            for target in TARGETS:
                module_name, attr = target.split(".")
                fn = getattr(self.modules[module_name], attr)
                wrapper = self._wrap(fn, target)
                for module in self.modules.values():
                    for binding in [k for k, v in vars(module).items() if v is fn]:
                        replaced.append((module, binding, fn))
                        setattr(module, binding, wrapper)
            yield self
        finally:
            for module, binding, fn in reversed(replaced):
                setattr(module, binding, fn)


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of a set of whole command trees (one pass)."""
    child_time = {}
    for span in spans:
        if span[2] is not None:
            child_time[span[2]] = child_time.get(span[2], 0.0) + span[4] - span[3]
    self_time, calls, flops, nbytes = {}, {}, {}, {}
    for span in spans:
        name = span[1]
        own = span[4] - span[3] - child_time.get(span[0], 0.0)
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        flops[name] = flops.get(name, 0) + span[5]
        nbytes[name] = nbytes.get(name, 0) + span[6]

    out = {metric: self_time.get(name, 0.0) for metric, name in SELF_TIMES.items()}
    out.update({metric: calls.get(name, 0) for metric, name in CALL_COUNTS.items()})
    out.update({metric: sum(nbytes.get(n, 0) for n in names) / 1e6
                for metric, names in FILE_MB.items()})
    forward_s = self_time.get("network.forward", 0.0)
    out["network.forward_gflop_per_s"] = (
        flops.get("network.forward", 0) / forward_s / 1e9 if forward_s else 0.0)
    out["cli.wall_s"] = sum(s[4] - s[3] for s in spans if s[1] == ROOT)
    return out


def self_time_total(metrics: dict) -> float:
    """Sum of every layer's self time; equals ``cli.wall_s`` up to rounding."""
    return math.fsum(metrics[m] for m in SELF_TIMES)
