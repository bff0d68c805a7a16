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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-10
# Entries of the largest matrix a maker may build, (d+1) x d for the simplex
# and K x d otherwise: 128 MiB of float64, enough for the simplex of 4096 classes.
MAX_HEAD_ENTRIES = 1 << 24


class PolytopeKind(Enum):
    SIMPLEX = "simplex"
    ORTHOPLEX = "orthoplex"
    CUBE = "cube"


class ClassCountError(ValueError):
    """Raised when the requested number of classes is below 2, or needs a
    matrix of more than MAX_HEAD_ENTRIES entries."""


class StructuralError(ValueError):
    """Raised when a weight matrix is malformed (shape, finiteness)."""


@dataclass(frozen=True)
class ClassifierWeights:
    """K classifier rows in d dimensions: a fixed polytope head or the
    trainable baseline.

    A fixed head's rows are the polytope's unit vertices, read-only, and
    never move.  A trainable head's rows are raw parameters that Adam
    updates in place; its ``kind`` is None, and every angular use of its
    rows goes through ``losses.unit_rows``.  ``phi`` is the vertex angle
    of the polytope the head is or stands in for (nan when unknown).
    """

    kind: Optional[PolytopeKind]
    num_classes: int
    dim: int
    rows: np.ndarray  # shape (K, d)
    phi: float
    trainable: bool = False


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


def _finalize(kind: PolytopeKind, num_classes: int, rows: np.ndarray) -> ClassifierWeights:
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    rows.setflags(write=False)
    dim = rows.shape[1]
    return ClassifierWeights(
        kind=kind,
        num_classes=num_classes,
        dim=dim,
        rows=rows,
        phi=expected_angle(kind, dim),
    )


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


def make_simplex(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Regular simplex: K unit vertices in d = K-1 dims, pairwise cosine -1/d.

    Built from the d standard basis vectors plus alpha * sum(e_i) with
    alpha = (1 - sqrt(d+1)) / d, then centroid-shifted and unit-normalized
    (in that order).  A larger ``dim`` takes the first K vertices of the
    bigger simplex.
    """
    dim = _resolve_dim(PolytopeKind.SIMPLEX, num_classes, dim)
    alpha = (1.0 - math.sqrt(dim + 1.0)) / dim
    verts = np.vstack([np.eye(dim), alpha * np.ones((1, dim))])
    verts -= verts.mean(axis=0)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return _finalize(PolytopeKind.SIMPLEX, num_classes, verts[:num_classes])


def make_orthoplex(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Orthoplex: first K of (+e1, -e1, +e2, -e2, ...) in d = ceil(K/2) dims."""
    dim = _resolve_dim(PolytopeKind.ORTHOPLEX, num_classes, dim)
    i = np.arange(num_classes)
    verts = np.zeros((num_classes, dim))
    verts[i, i // 2] = np.where(i % 2 == 0, 1.0, -1.0)
    return _finalize(PolytopeKind.ORTHOPLEX, num_classes, verts)


def make_cube(num_classes: int, dim: int | None = None) -> ClassifierWeights:
    """Hypercube: first K sign patterns of (+-1/sqrt(d))^d, d = ceil(log2 K).

    Sign vectors are enumerated lexicographically with -1 before +1 in
    every coordinate, making the K < 2^d subset deterministic.
    """
    dim = _resolve_dim(PolytopeKind.CUBE, num_classes, dim)
    scale = 1.0 / math.sqrt(dim)
    bits = (np.arange(num_classes)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    verts = np.where(bits == 1, scale, -scale)
    return _finalize(PolytopeKind.CUBE, num_classes, verts)


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
    rows = np.asarray(values, dtype=np.float64)
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
    rows = check_rows(weights.rows, (weights.num_classes, weights.dim))
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
    elif weights.kind is PolytopeKind.SIMPLEX:
        angle_dev = float(np.max(np.abs(angles - phi)))
    else:
        angle_dev = float(abs(min_angle - phi))

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


def to_dict(weights: ClassifierWeights) -> dict:
    return {
        "kind": weights.kind.value,
        "K": weights.num_classes,
        "d": weights.dim,
        "phi": weights.phi,
        "rows": weights.rows.tolist(),
    }


def from_dict(payload: dict) -> ClassifierWeights:
    """The head a JSON payload describes, its rows checked against the header."""
    kind = PolytopeKind(payload["kind"])
    rows = check_rows(payload["rows"], (payload["K"], payload["d"]))
    rows.setflags(write=False)
    return ClassifierWeights(
        kind=kind,
        num_classes=int(payload["K"]),
        dim=int(payload["d"]),
        rows=rows,
        phi=float(payload["phi"]),
    )


def save_json(weights: ClassifierWeights, path) -> None:
    # json.dumps, unlike json.dump, runs the C encoder
    Path(path).write_text(json.dumps(to_dict(weights)))


def load_json(path) -> ClassifierWeights:
    with open(path) as fh:
        return from_dict(json.load(fh))
