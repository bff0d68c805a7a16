"""Angular geometry of learned feature embeddings.

Compactness is the spread of angles between each class's features and its
classifier row; separation is the smallest angle between class mean
directions.  Both are angular (not Euclidean) to match the hypersphere
reading of the normalized losses.
"""

from __future__ import annotations

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
        """Write what ``json.dumps(..., indent=2, allow_nan=False)`` writes for
        the report's fields, a non-finite float as null.  With ``indent`` set,
        CPython 3.11's ``json`` encodes in pure Python, so the text is built here."""
        classes = [_json_object([
            ("label", str(c.label)),
            ("present", str(c.present).lower()),
            ("count", str(c.count)),
            ("mean_angle_to_weight", _json_number(c.mean_angle_to_weight)),
            ("angle_std", _json_number(c.angle_std)),
            ("mean_direction", "null" if c.mean_direction is None else
             _json_block("[]", _json_numbers(c.mean_direction.tolist()), 3)),
        ], 2) for c in self.per_class]
        Path(path).write_text(_json_object([
            ("phi", _json_number(self.phi)),
            ("min_pairwise_mean_angle", _json_number(self.min_pairwise_mean_angle)),
            ("no_pairs", str(self.no_pairs).lower()),
            ("accuracy", _json_number(self.accuracy)),
            ("degenerate", str(self.degenerate)),
            ("per_class", _json_block("[]", classes, 1)),
        ], 0))


def _json_numbers(values: List[float]) -> List[str]:
    """Each float as ``json.dumps`` writes it, a non-finite one as null
    (``v - v`` is 0.0 exactly when ``v`` is finite)."""
    return [repr(v) if v - v == 0.0 else "null" for v in values]


def _json_number(value) -> str:
    return _json_numbers([float(value)])[0]


def _json_block(brackets: str, items: List[str], depth: int) -> str:
    """Rendered ``items`` laid out as ``json.dumps(..., indent=2)`` lays out
    an array (``"[]"``) or object (``"{}"``) at nesting ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return (brackets[0] + pad + ("," + pad).join(items)
            + "\n" + "  " * depth + brackets[1])


def _json_object(pairs, depth: int) -> str:
    return _json_block("{}", [f'"{key}": {value}' for key, value in pairs], depth)


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
