"""Angular geometry of learned feature embeddings.

Compactness is the spread of angles between each class's features and its
classifier row; separation is the smallest angle between class mean
directions.  Both are angular (not Euclidean) to match the hypersphere
reading of the normalized losses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .losses import unit_rows
from .polytope import min_pairwise_angle

# Rows of a scatter CSV turned into text per write: the text of a whole
# 10k-row file would add about 10 MB to the peak memory of a run.
CSV_CHUNK_ROWS = 1024


@dataclass
class ClassStats:
    label: int
    present: bool
    count: int
    mean_angle_to_weight: float
    angle_std: float
    mean_direction: Optional[np.ndarray]


@dataclass
class GeometryReport:
    per_class: List[ClassStats]
    phi: float
    min_pairwise_mean_angle: float
    no_pairs: bool  # fewer than two classes present; min is a pi sentinel
    accuracy: float
    degenerate: int  # zero-norm features excluded from angular stats

    def save(self, path) -> None:
        """Write the report as one line of strict JSON, a non-finite float as
        null.  ``json.dumps`` with no indent runs the C encoder."""
        Path(path).write_text(json.dumps({
            "phi": _finite(self.phi),
            "min_pairwise_mean_angle": _finite(self.min_pairwise_mean_angle),
            "no_pairs": self.no_pairs,
            "accuracy": _finite(self.accuracy),
            "degenerate": self.degenerate,
            "per_class": [{
                "label": c.label,
                "present": c.present,
                "count": c.count,
                "mean_angle_to_weight": _finite(c.mean_angle_to_weight),
                "angle_std": _finite(c.angle_std),
                # a unit mean, finite whenever it is present
                "mean_direction": (None if c.mean_direction is None
                                   else c.mean_direction.tolist()),
            } for c in self.per_class],
        }, allow_nan=False))


def _finite(value) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    return float((predictions == labels).mean())


def geometry_report(head, features: np.ndarray, labels: np.ndarray,
                    predictions: np.ndarray) -> GeometryReport:
    """Per-class angular compactness plus global mean-direction separation,
    for a fixed or trainable head."""
    rows, _ = unit_rows(head)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[1] != head.dim:
        raise ValueError(f"feature dim {features.shape[1]} != head dim {head.dim}")
    norms = np.linalg.norm(features, axis=1)
    if labels.shape != norms.shape:
        raise ValueError(f"labels of shape {labels.shape} for {len(norms)} feature rows")
    degenerate = int((norms == 0).sum())
    num_classes = head.num_classes

    # The rows with a direction and a label in [0, K), stably sorted by label,
    # so that each class's rows are one run in their original order.
    keep = (norms > 0) & (labels >= 0) & (labels < num_classes)
    order = np.flatnonzero(keep)[np.argsort(labels[keep], kind="stable")]
    bounds = np.searchsorted(labels[order], np.arange(num_classes + 1))
    counts = np.diff(bounds)

    # The classes of one sample count c are stacked as (G, c) angles and
    # (G, c, d) rows.  A reduction over axis 1 sums each class in the order
    # its own (c,) or (c, d) slice would, and a stacked matmul runs the
    # per-class gemv and dot, so every figure has the bits of a per-class loop.
    mean_angle = np.full(num_classes, math.nan)
    angle_std = np.full(num_classes, math.nan)
    directions = np.zeros((num_classes, head.dim))
    for count in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == count)
        samples = order[bounds[group, None] + np.arange(count)]
        group_unit = features[samples]
        group_unit /= norms[samples][:, :, None]
        cos = np.matmul(group_unit, rows[group][:, :, None])[:, :, 0]
        angles = np.arccos(np.clip(cos, -1.0, 1.0, out=cos), out=cos)
        mean_angle[group] = angles.mean(axis=1)
        angle_std[group] = angles.std(axis=1)
        directions[group] = group_unit.mean(axis=1)
    direction_norm = np.sqrt(np.matmul(directions[:, None, :],
                                       directions[:, :, None])[:, 0, 0])
    has_direction = direction_norm > 0
    np.divide(directions, direction_norm[:, None], out=directions,
              where=has_direction[:, None])

    per_class = [ClassStats(c, count > 0, count, mean, std,
                            directions[c] if has_dir else None)
                 for c, (count, mean, std, has_dir) in enumerate(zip(
                     counts.tolist(), mean_angle.tolist(), angle_std.tolist(),
                     has_direction.tolist()))]
    if has_direction.sum() < 2:
        min_angle, no_pairs = math.pi, True
    else:
        min_angle, no_pairs = min_pairwise_angle(directions[has_direction]), False

    return GeometryReport(per_class, head.phi, min_angle, no_pairs,
                          accuracy(predictions, labels), degenerate)


def export_scatter(features: np.ndarray, labels: np.ndarray, path) -> None:
    """CSV ``label,f0,...,f{d-1}``.  A label count other than the row count
    is a ValueError."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != features.shape[:1]:
        raise ValueError(f"labels of shape {labels.shape} for {len(features)} feature rows")
    header = ",".join(["label"] + [f"f{i}" for i in range(features.shape[1])])
    # csv.writer's bytes: its \r\n line ends, and no float repr needs quoting
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(features), CSV_CHUNK_ROWS):
            chunk = slice(start, start + CSV_CHUNK_ROWS)
            fh.write("".join(",".join([str(label), *map(repr, row)]) + "\r\n"
                             for label, row in zip(map(int, labels[chunk].tolist()),
                                                   features[chunk].tolist())))
