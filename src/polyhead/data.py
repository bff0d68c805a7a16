"""Dataset loading and batching.

Covers the IDX binary container used by the MNIST family (big-endian
magic + dims + raw bytes), synthetic Gaussian-blob datasets with class
means on simplex directions, and deterministic per-epoch mini-batching.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .polytope import make_simplex

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Bad magic, truncated payload, or image/label count mismatch."""


class EmptyDatasetError(ValueError):
    pass


@dataclass
class LabeledBatch:
    inputs: np.ndarray  # (N, input_dim) float64
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels misaligned")
        if self.inputs.shape[0] < 1:
            raise EmptyDatasetError("dataset is empty")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _read_header(raw: bytes, path, magic_expected: int, n_dims: int) -> tuple:
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: truncated header")
    fields = struct.unpack(f">{1 + n_dims}i", raw[:header_len])
    if fields[0] != magic_expected:
        raise IdxFormatError(
            f"{path}: bad magic 0x{fields[0] & 0xffffffff:08x}, "
            f"expected 0x{magic_expected:08x}")
    return fields[1:], raw[header_len:]


def load_idx(images_path, labels_path, emnist: bool = False) -> LabeledBatch:
    """Parse an IDX image/label file pair into a flat [0,1] batch.

    EMNIST ships its images transposed relative to MNIST; pass
    ``emnist=True`` to undo that.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    (count, rows, cols), payload = _read_header(raw, images_path, IMAGE_MAGIC, 3)
    if len(payload) < count * rows * cols:
        raise IdxFormatError(f"{images_path}: truncated pixel payload")
    pixels = np.frombuffer(payload[:count * rows * cols], dtype=np.uint8)
    images = pixels.reshape(count, rows, cols)
    if emnist:
        images = images.transpose(0, 2, 1)
    inputs = images.reshape(count, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    (label_count,), payload = _read_header(raw, labels_path, LABEL_MAGIC, 1)
    if len(payload) < label_count:
        raise IdxFormatError(f"{labels_path}: truncated label payload")
    if label_count != count:
        raise IdxFormatError(
            f"image count {count} != label count {label_count}")
    labels = np.frombuffer(payload[:label_count], dtype=np.uint8).astype(np.int64)
    return LabeledBatch(inputs, labels)


def write_idx(batch: LabeledBatch, images_path, labels_path,
              rows: int, cols: int) -> None:
    """Write a batch back to an IDX pair (pixels quantized to uint8)."""
    n = len(batch)
    if batch.inputs.shape[1] != rows * cols:
        raise ValueError(f"input_dim {batch.inputs.shape[1]} != {rows}*{cols}")
    pixels = np.clip(np.rint(batch.inputs * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4i", IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2i", LABEL_MAGIC, n))
        fh.write(batch.labels.astype(np.uint8).tobytes())


def make_blobs(num_classes: int, dim: int, per_class: int, spread: float,
               separation: float, seed: int) -> LabeledBatch:
    """Gaussian clusters with means at separation * simplex directions.

    Simplex directions are padded with zeros (or truncated) to ``dim``.
    Values are unbounded reals, unlike the [0,1] pixel datasets.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if per_class < 1:
        raise EmptyDatasetError("per_class must be at least 1")
    directions = make_simplex(num_classes).rows
    means = np.zeros((num_classes, dim))
    width = min(dim, directions.shape[1])
    means[:, :width] = separation * directions[:, :width]

    rng = np.random.default_rng(seed)
    inputs = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        sl = slice(c * per_class, (c + 1) * per_class)
        inputs[sl] = means[c] + rng.normal(0.0, spread, size=(per_class, dim))
        labels[sl] = c
    return LabeledBatch(inputs, labels)


def batches(data: LabeledBatch, batch_size: int, seed: int,
            epoch: int) -> Iterator[LabeledBatch]:
    """Deterministic per-(seed, epoch) shuffle; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = perm[start:start + batch_size]
        yield LabeledBatch(data.inputs[idx], data.labels[idx])
