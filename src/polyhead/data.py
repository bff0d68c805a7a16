"""Dataset loading and batching.

Covers the IDX binary container used by the MNIST family (big-endian
magic + dims + raw bytes), synthetic Gaussian-blob datasets with class
means on simplex directions, and deterministic per-epoch mini-batching.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .polytope import simplex_rows

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# Entries of the largest input matrix make_blobs may build, K * per_class x
# dim: 512 MiB of float64, a blob set of MNIST's size (60k x 784) fits.  Like
# polytope.MAX_HEAD_ENTRIES, it is checked before any array is built.
MAX_BLOB_ENTRIES = 1 << 26


class IdxFormatError(ValueError):
    """Bad magic, a header count or size out of range, truncated payload, or
    image/label count mismatch."""


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
    """The header's counts after the magic, and the offset of the payload."""
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: truncated header")
    fields = struct.unpack(f">{1 + n_dims}i", raw[:header_len])
    if fields[0] != magic_expected:
        raise IdxFormatError(
            f"{path}: bad magic 0x{fields[0] & 0xffffffff:08x}, "
            f"expected 0x{magic_expected:08x}")
    return fields[1:], header_len


def load_idx(images_path, labels_path, emnist: bool = False) -> LabeledBatch:
    """Parse an IDX image/label file pair into a flat [0,1] batch.

    EMNIST ships its images transposed relative to MNIST; pass
    ``emnist=True`` to undo that.  A negative count, or fewer than one row
    or column per image, is an IdxFormatError; a count of 0 gives an
    EmptyDatasetError.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    (count, rows, cols), offset = _read_header(raw, images_path, IMAGE_MAGIC, 3)
    for field, value, least in (("image count", count, 0), ("rows", rows, 1),
                                ("columns", cols, 1)):
        if value < least:
            raise IdxFormatError(f"{images_path}: header {field} {value} is below {least}")
    if len(raw) - offset < count * rows * cols:
        raise IdxFormatError(f"{images_path}: truncated pixel payload")
    # frombuffer reads the bytes in place: no copy of the payload
    pixels = np.frombuffer(raw, np.uint8, count=count * rows * cols, offset=offset)
    images = pixels.reshape(count, rows, cols)
    if emnist:
        images = images.transpose(0, 2, 1)
    inputs = images.reshape(count, rows * cols) / 255.0

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    (label_count,), offset = _read_header(raw, labels_path, LABEL_MAGIC, 1)
    if label_count < 0:
        raise IdxFormatError(f"{labels_path}: header label count {label_count} is below 0")
    if len(raw) - offset < label_count:
        raise IdxFormatError(f"{labels_path}: truncated label payload")
    if label_count != count:
        raise IdxFormatError(
            f"image count {count} != label count {label_count}")
    labels = np.frombuffer(raw, np.uint8, count=label_count, offset=offset).astype(np.int64)
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

    Simplex directions are padded with zeros (or truncated) to ``dim``; only
    the first ``min(dim, K-1)`` columns of the K-class simplex are built.
    ``spread`` is a finite standard deviation >= 0, ``separation`` any finite
    number and ``seed`` at least 0, and spread and separation must give finite
    inputs together (a spread of 1e308 overflows).  Values are unbounded
    reals, unlike the [0,1] pixel datasets.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if per_class < 1:
        raise EmptyDatasetError("per_class must be at least 1")
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be finite and at least 0, got {spread}")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if num_classes * per_class * dim > MAX_BLOB_ENTRIES:
        raise ValueError(f"{num_classes} classes x {per_class} per class x {dim} dims "
                         f"exceed MAX_BLOB_ENTRIES ({MAX_BLOB_ENTRIES}) entries")
    directions = simplex_rows(num_classes, columns=min(dim, num_classes - 1))
    means = np.zeros((num_classes, dim))
    means[:, :directions.shape[1]] = separation * directions

    # one draw in the order a per-class loop would take it: class by class
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, spread, size=(num_classes, per_class, dim))
    with np.errstate(over="ignore"):  # checked right after
        inputs += means[:, None, :]
    if not np.isfinite(inputs).all():
        raise ValueError(f"spread {spread!r} and separation {separation!r} give "
                         f"non-finite inputs")
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledBatch(inputs.reshape(num_classes * per_class, dim), labels)


def batches(data: LabeledBatch, batch_size: int, seed: int,
            epoch: int) -> Iterator[LabeledBatch]:
    """Deterministic per-(seed, epoch) shuffle; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = perm[start:start + batch_size]
        yield LabeledBatch(data.inputs[idx], data.labels[idx])
