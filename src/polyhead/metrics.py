"""Angular geometry of learned feature embeddings.

Compactness is the spread of angles between each class's features and its
classifier row; separation is the smallest angle between class mean
directions.  Both are angular (not Euclidean) to match the hypersphere
reading of the normalized losses.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .losses import unit_rows


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
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, allow_nan=False)


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
    degenerate = int((norms == 0).sum())

    per_class = []
    directions = []
    for c in range(head.num_classes):
        mask = (labels == c) & (norms > 0)
        if not mask.any():
            per_class.append(ClassStats(c, False, 0, math.nan, math.nan, None))
            continue
        unit = features[mask] / norms[mask, None]
        cos = np.clip(unit @ rows[c], -1.0, 1.0)
        angles = np.arccos(cos)
        mean_dir = unit.mean(axis=0)
        mean_norm = np.linalg.norm(mean_dir)
        mean_dir = mean_dir / mean_norm if mean_norm > 0 else None
        per_class.append(ClassStats(c, True, int(mask.sum()),
                                    float(angles.mean()), float(angles.std()),
                                    mean_dir))
        if mean_dir is not None:
            directions.append(mean_dir)

    if len(directions) < 2:
        min_angle, no_pairs = math.pi, True
    else:
        dirs = np.vstack(directions)
        gram = np.clip(dirs @ dirs.T, -1.0, 1.0)
        iu = np.triu_indices(len(directions), k=1)
        min_angle, no_pairs = float(np.arccos(gram[iu]).min()), False

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(features.shape[1])])
        for label, row in zip(labels, features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
