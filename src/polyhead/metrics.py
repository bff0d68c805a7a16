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

    def to_dict(self) -> dict:
        """Strict-JSON form: a non-finite float (an unknown phi, the angles
        of a class with no samples) becomes None."""
        return {
            "phi": _finite(self.phi),
            "min_pairwise_mean_angle": _finite(self.min_pairwise_mean_angle),
            "no_pairs": self.no_pairs,
            "accuracy": _finite(self.accuracy),
            "degenerate": self.degenerate,
            "per_class": [
                {
                    "label": c.label,
                    "present": c.present,
                    "count": c.count,
                    "mean_angle_to_weight": _finite(c.mean_angle_to_weight),
                    "angle_std": _finite(c.angle_std),
                    "mean_direction": None if c.mean_direction is None
                    else list(map(_finite, c.mean_direction)),
                }
                for c in self.per_class
            ],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, allow_nan=False))


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

    # A stable sort by label keeps each class's rows in their original order,
    # so a class's figures have the bits that a per-class mask gives; labels
    # outside [0, K) fall outside every class's bounds.
    keep = norms > 0
    features, norms, kept_labels = features[keep], norms[keep], labels[keep]
    order = np.argsort(kept_labels, kind="stable")
    sorted_labels = kept_labels[order]
    classes = np.arange(head.num_classes)
    starts = np.searchsorted(sorted_labels, classes, side="left")
    ends = np.searchsorted(sorted_labels, classes, side="right")

    per_class = []
    directions = []
    for c, start, end in zip(range(head.num_classes), starts.tolist(), ends.tolist()):
        if start == end:
            per_class.append(ClassStats(c, False, 0, math.nan, math.nan, None))
            continue
        idx = order[start:end]
        unit = features[idx] / norms[idx, None]
        cos = np.clip(unit @ rows[c], -1.0, 1.0)
        angles = np.arccos(cos)
        mean_dir = unit.mean(axis=0)
        mean_norm = np.linalg.norm(mean_dir)
        mean_dir = mean_dir / mean_norm if mean_norm > 0 else None
        per_class.append(ClassStats(c, True, end - start,
                                    float(angles.mean()), float(angles.std()),
                                    mean_dir))
        if mean_dir is not None:
            directions.append(mean_dir)

    if len(directions) < 2:
        min_angle, no_pairs = math.pi, True
    else:
        min_angle, no_pairs = min_pairwise_angle(np.vstack(directions)), False

    return GeometryReport(per_class, head.phi, min_angle, no_pairs,
                          accuracy(predictions, labels), degenerate)


def export_scatter(features: np.ndarray, labels: np.ndarray,
                   normalized: bool, path) -> None:
    """CSV ``label,f0,...,f{d-1}``; optionally unit-normalize rows first.

    Zero-norm rows are written unchanged in normalized mode.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if normalized:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        features = features / np.where(norms > 0, norms, 1.0)
    header = ",".join(["label"] + [f"f{i}" for i in range(features.shape[1])])
    # csv.writer's bytes: its \r\n line ends, and no float repr needs quoting
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(features), CSV_CHUNK_ROWS):
            chunk = slice(start, start + CSV_CHUNK_ROWS)
            fh.write("".join(",".join([str(label), *map(repr, row)]) + "\r\n"
                             for label, row in zip(map(int, labels[chunk].tolist()),
                                                   features[chunk].tolist())))
