"""Regular-polytope classifier weight matrices.

In dimension d >= 5 exactly three regular polytopes exist: the d-simplex
(d+1 vertices), the d-orthoplex (2d vertices) and the d-cube (2^d
vertices).  Their vertex sets, unit-normalized, serve as fixed (frozen)
classifier weight rows.  Each family has a constant nearest-neighbour
angle `phi` with a closed form, which downstream code uses as the maximal
additive angular margin.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-10
# Entries of the largest matrix a maker may compute, (d+1) x d for the simplex
# and K x d otherwise: 128 MiB of float64, enough for the simplex of 4096 classes.
MAX_HEAD_ENTRIES = 1 << 24
# Simplex vertices simplex_rows builds at a time
SIMPLEX_BLOCK_ROWS = 128
# Entries of each Gram matrix block of _extreme_angles, at most: a bound on its
# memory for any K, and one block up to K = 2048 for long rows (K <= 16 d)
GRAM_BLOCK_ENTRIES = 1 << 22
# Rows of each Gram matrix block of _extreme_angles per entry of a row, at most:
# the block of short rows (a cube head's) holds at most 16 times the entries of
# the rows, and so stays in cache while it is written
GRAM_ROWS_PER_DIM = 16
# json_field's word for each JSON kind, keyed by the type json.load gives it
_JSON_KINDS = {int: "integer", float: "number in float range", bool: "true/false",
               str: "string", dict: "object", list: "list"}


class PolytopeKind(Enum):
    SIMPLEX = "simplex"
    ORTHOPLEX = "orthoplex"
    CUBE = "cube"


class ClassCountError(ValueError):
    """Raised when the requested number of classes is below 2, or needs a
    matrix of more than MAX_HEAD_ENTRIES entries."""


class StructuralError(ValueError):
    """Raised when a weight matrix (shape, finiteness) or a JSON value is malformed."""


@dataclass(frozen=True)
class ClassifierWeights:
    """K classifier rows in d dimensions, the shape of ``rows``: a fixed
    polytope head or the trainable baseline.

    A fixed head's rows are the polytope's unit vertices, made read-only
    when the head is built.  A trainable head's rows are raw parameters that Adam
    updates in place, and every angular use of them goes through
    ``losses.unit_rows``.  ``kind`` and ``phi`` name the polytope the head is
    or stands in for, and its vertex angle (nan when unknown).
    """

    kind: Optional[PolytopeKind]
    rows: np.ndarray  # shape (K, d)
    phi: float
    trainable: bool = False

    def __post_init__(self):
        if not self.trainable:
            self.rows.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class GeometryCheck:
    passed: bool
    worst_deviation: float
    min_angle: float
    message: str = ""


def embedding_dim(kind: PolytopeKind, num_classes: int) -> int:
    """Smallest feature dimension whose polytope has >= K vertices.

    Simplex: K-1.  Orthoplex: ceil(K/2).  Cube: ceil(log2 K).
    """
    if num_classes < 2:
        raise ClassCountError(f"need at least 2 classes, got {num_classes}")
    if kind is PolytopeKind.SIMPLEX:
        return num_classes - 1
    if kind is PolytopeKind.ORTHOPLEX:
        return -(-num_classes // 2)
    return (num_classes - 1).bit_length()


def expected_angle(kind: PolytopeKind, dim: int) -> float:
    """Closed-form nearest-neighbour vertex angle for each family."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if kind is PolytopeKind.SIMPLEX:
        return math.acos(-1.0 / dim)
    if kind is PolytopeKind.ORTHOPLEX:
        return math.pi / 2.0
    return math.acos((dim - 2.0) / dim)


def _resolve_dim(kind: PolytopeKind, num_classes: int, dim) -> int:
    """``dim``, or the family's smallest for K when None; checked before any
    array is built."""
    minimum = embedding_dim(kind, num_classes)
    if dim is None:
        dim = minimum
    elif dim < minimum:
        raise ValueError(
            f"{kind.value} needs at least {minimum} dims for {num_classes} "
            f"classes, got {dim}")
    rows = dim + 1 if kind is PolytopeKind.SIMPLEX else num_classes
    if rows * dim > MAX_HEAD_ENTRIES:
        raise ClassCountError(
            f"{kind.value} with {num_classes} classes needs a {rows}x{dim} matrix, "
            f"more than the {MAX_HEAD_ENTRIES} entries allowed")
    return int(dim)


def simplex_rows(num_classes: int, dim: int | None = None,
                 columns: int | None = None) -> np.ndarray:
    """The first K unit vertices of the regular simplex in ``dim`` dims (K-1
    when None), cut to their first ``columns`` coordinates (at most ``dim``).

    The vertices e_i and alpha * sum(e_i), alpha = (1 - sqrt(d+1)) / d, are
    shifted by their centroid, c = (1 + alpha) / (d+1) in every coordinate,
    and unit-normalized.  Whole rows are built SIMPLEX_BLOCK_ROWS at a time,
    so each norm is the same pairwise sum as in the full (d+1) x d matrix."""
    dim = _resolve_dim(PolytopeKind.SIMPLEX, num_classes, dim)
    columns = dim if columns is None else columns
    alpha = (1.0 - math.sqrt(dim + 1.0)) / dim
    c = (1.0 + alpha) / (dim + 1)
    rows = np.empty((num_classes, columns))
    for start in range(0, num_classes, SIMPLEX_BLOCK_ROWS):
        stop = min(start + SIMPLEX_BLOCK_ROWS, num_classes)
        block = np.full((stop - start, dim), -c)
        i = np.arange(start, min(stop, dim))
        block[i - start, i] = 1.0 - c
        if stop > dim:  # vertex d, the last of the K = d+1
            block[dim - start] = alpha - c
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block[:, :columns], norms, out=rows[start:stop])
    return rows


def make_simplex(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Regular simplex: K unit vertices in d = K-1 dims, pairwise cosine -1/d.

    A larger ``dim`` takes the first K vertices of the bigger simplex; see
    ``simplex_rows``.
    """
    rows = simplex_rows(num_classes, dim)
    kind = PolytopeKind.SIMPLEX
    return ClassifierWeights(kind, rows, expected_angle(kind, rows.shape[1]))


def make_orthoplex(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Orthoplex: first K of (+e1, -e1, +e2, -e2, ...) in d = ceil(K/2) dims."""
    kind = PolytopeKind.ORTHOPLEX
    dim = _resolve_dim(kind, num_classes, dim)
    i = np.arange(num_classes)
    verts = np.zeros((num_classes, dim))
    verts[i, i // 2] = np.where(i % 2 == 0, 1.0, -1.0)
    return ClassifierWeights(kind, verts, expected_angle(kind, dim))


def make_cube(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Hypercube: first K sign patterns of (+-1/sqrt(d))^d, d = ceil(log2 K).

    Sign vectors are enumerated lexicographically with -1 before +1 in
    every coordinate, making the K < 2^d subset deterministic.
    """
    kind = PolytopeKind.CUBE
    dim = _resolve_dim(kind, num_classes, dim)
    scale = 1.0 / math.sqrt(dim)
    bits = (np.arange(num_classes)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    verts = np.where(bits == 1, scale, -scale)
    return ClassifierWeights(kind, verts, expected_angle(kind, dim))


_MAKERS = {
    PolytopeKind.SIMPLEX: make_simplex,
    PolytopeKind.ORTHOPLEX: make_orthoplex,
    PolytopeKind.CUBE: make_cube,
}


def make_weights(kind: PolytopeKind, num_classes: int) -> ClassifierWeights:
    return _MAKERS[kind](num_classes)


def _extreme_angles(rows: np.ndarray, largest: bool = False) -> np.ndarray:
    """The smallest angle between distinct rows (at least two), after the
    largest when ``largest``: the arccos of the extreme off-diagonal cosines of
    the K x K Gram matrix of K rows of d entries, built in blocks of
    ``min(GRAM_BLOCK_ENTRIES // K, GRAM_ROWS_PER_DIM * d)`` rows (at least one).
    Writing the matrix, not the K^2 d products, bounds the time of short rows,
    so their blocks stay in cache; long rows (16 d >= K: the simplex's and the
    orthoplex's) keep one block up to the entry cap.  numpy computes ``A[0:K] @ A.T`` of a C-contiguous ``A`` as
    one syrk product, so a one-block matrix is symmetric bit for bit and its
    masked reductions are those of its upper triangle; a strided view's, or a
    block's, need not be."""
    rows = np.ascontiguousarray(rows)
    step = max(1, min(GRAM_BLOCK_ENTRIES // len(rows), GRAM_ROWS_PER_DIM * rows.shape[1]))
    low, high = np.inf, -np.inf
    for start in range(0, len(rows), step):
        gram = rows[start:start + step] @ rows.T
        if largest:  # the block's diagonal starts at its column ``start``
            np.fill_diagonal(gram[:, start:], np.inf)
            low = np.minimum(low, gram.min())
        np.fill_diagonal(gram[:, start:], -np.inf)
        high = np.maximum(high, gram.max())
        del gram  # freed before the next block is built
    return np.arccos(np.clip([low, high] if largest else [high], -1.0, 1.0))


def min_pairwise_angle(rows: np.ndarray) -> float:
    """The smallest angle between distinct rows (at least two)."""
    return _extreme_angles(rows)[-1].item()


def verify_geometry(weights: ClassifierWeights, tol: float = DEFAULT_TOL) -> GeometryCheck:
    """Check the class count, phi, unit norms and the nearest-neighbour angle.

    K must fit the family's vertex count in d dimensions, and the stored
    phi must equal the closed form ``expected_angle(kind, d)`` within tol.
    The minimum pairwise angle must equal phi within tol; for the simplex
    every pairwise angle must, and as fl(a - phi) is monotone in a, the
    smallest and largest angles give the worst deviation.  A 2-class
    orthoplex has only the antipodal pair, whose angle is pi rather than
    phi = pi/2; that single configuration is accepted as-is.  Every test
    fails on NaN, so a non-finite row, like a zero one, fails the check.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    norm_dev = float(np.max(np.abs(np.linalg.norm(weights.rows, axis=1) - 1.0)))
    with np.errstate(invalid="ignore"):  # inf * 0 in the Gram matrix of an inf row
        angles = _extreme_angles(weights.rows, largest=weights.kind is PolytopeKind.SIMPLEX)
    min_angle = angles[-1].item()
    needed = embedding_dim(weights.kind, weights.num_classes)
    if needed > weights.dim:
        return GeometryCheck(False, math.inf, min_angle,
                             f"{weights.num_classes} classes exceed the vertices "
                             f"of a {weights.dim}-d {weights.kind.value}, which "
                             f"needs d >= {needed}")
    phi = expected_angle(weights.kind, weights.dim)
    phi_dev = abs(weights.phi - phi)

    if weights.kind is PolytopeKind.ORTHOPLEX and weights.num_classes == 2:
        angle_dev = float(abs(min_angle - math.pi))
    else:  # the extreme angles: the simplex's two, or the smallest
        angle_dev = float(np.max(np.abs(angles - phi)))

    worst = max(norm_dev, angle_dev, phi_dev)
    if not phi_dev <= tol:
        return GeometryCheck(False, worst, min_angle,
                             f"stored phi {weights.phi!r} != closed form {phi!r}")
    if not norm_dev <= tol:
        return GeometryCheck(False, worst, min_angle,
                             f"row norm deviates by {norm_dev:.3e}")
    if not angle_dev <= tol:
        return GeometryCheck(False, worst, min_angle,
                             f"pairwise angle deviates by {angle_dev:.3e}")
    return GeometryCheck(True, worst, min_angle)


def json_field(payload, key, kind: type = int, name: str = "", items: type = int):
    """``payload[key]`` (``payload`` when ``key`` is None) if it is a JSON integer
    (``kind`` int), number (float, returned as a float: NaN and Infinity are one,
    an integer beyond float range is not), true/false, string, object (dict) or
    list of ``items``.  Otherwise raises StructuralError naming ``name`` or ``key``."""
    value = payload if key is None else payload[key]
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or kind is list and any(type(v) is not items for v in value):
        noun = f"list of {_JSON_KINDS[items]}s" if kind is list else _JSON_KINDS[kind]
        raise StructuralError(f"{name or key} must be a JSON {noun}, got {value!r:.40}")
    return value


def encode_array(array: np.ndarray) -> dict:
    """The stored entry of a float64 array: its shape and the padded base64
    of its values, little-endian, in C order."""
    raw = np.asarray(array, dtype="<f8").tobytes()
    return {"shape": list(array.shape), "base64": base64.b64encode(raw).decode("ascii")}


def decode_array(entry, ndim: int, max_entries: int, what: str) -> np.ndarray:
    """The writable float64 array of an ``encode_array`` entry.  Raises
    StructuralError naming ``what`` unless the entry is an object with a
    ``shape`` of ``ndim`` positive integers holding at most ``max_entries``
    entries (checked before decoding) and a ``base64`` string of exactly
    that many finite values."""
    json_field(entry, None, dict, what)
    shape = json_field(entry.get("shape"), None, list, f"{what} shape")
    text = json_field(entry.get("base64"), None, str, f"{what} base64")
    if len(shape) != ndim or min(shape) < 1:  # no stored array is empty
        raise StructuralError(f"{what} shape must be {ndim} positive integers, "
                              f"got {shape!r:.40}")
    count = math.prod(shape)
    if count > max_entries:
        raise StructuralError(f"{what} shape {shape!r:.40} holds more than "
                              f"{max_entries} entries")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raise StructuralError(f"{what} base64 must be padded base64 text, "
                              f"got {text!r:.40}") from None
    if len(raw) != 8 * count:
        raise StructuralError(f"{what} holds {len(raw)} bytes, shape {shape} "
                              f"needs {8 * count}")
    array = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise StructuralError(f"non-finite value in {what}")
    return array


def to_dict(weights: ClassifierWeights) -> dict:
    """A head file's payload: the header and the rows through ``encode_array``."""
    return {"kind": weights.kind.value, "K": weights.num_classes, "d": weights.dim,
            "phi": weights.phi, "rows": encode_array(weights.rows)}


def from_dict(payload: dict, trainable: bool = False) -> ClassifierWeights:
    """The head a JSON payload describes, its rows of the header's shape (K, d),
    K >= 2; read-only unless ``trainable``."""
    kind = PolytopeKind(json_field(payload, "kind", str))
    rows = decode_array(payload.get("rows"), 2, MAX_HEAD_ENTRIES, "rows")
    shape = (json_field(payload, "K"), json_field(payload, "d"))
    if rows.shape != shape or shape[0] < 2:
        raise StructuralError(f"head rows must be finite, at least 2 and of shape "
                              f"{shape}; got shape {rows.shape}")
    return ClassifierWeights(kind, rows, json_field(payload, "phi", float), trainable)


def save_json(weights: ClassifierWeights, path) -> None:
    # json.dumps, unlike json.dump, runs the C encoder
    Path(path).write_text(json.dumps(to_dict(weights)))


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``: the one reader of a JSON input file."""
    with open(path) as fh:
        return json_field(json.load(fh), None, dict, what)


def load_json(path) -> ClassifierWeights:
    return from_dict(read_json(path, "head file"))
