"""Softmax loss family over polytope classifier heads.

One cross-entropy over the logits ``s * g(f) . h(w_j)``, returning the
batch-mean loss and the analytic gradient with respect to the raw
feature batch (and, for a trainable head, the raw head rows).  ``g``
unit-normalizes the features and ``h`` the head rows; a fixed head's rows
are unit already.  With a margin ``m > 0`` the target logit becomes
``s * cos(theta_y + m)``.  The four loss kinds set these switches: each
kind class declares its ``(g, h)`` pair in ``normalizes``, a class attribute
and not a field, and ``s``, ``m`` are its ``kappa``, ``m`` (else 1 and 0):

  kind            g    h    s      m
  PlainCE         no   no   1      0
  FixedSoftmax    no   yes  1      0
  NormScaled      yes  yes  kappa  0
  AngularMargin   yes  yes  kappa  m

AngularMargin is a NormScaled with a margin, so at m = 0 it runs NormScaled's
loss.  The scaled variants read as von Mises-Fisher class-conditionals with
concentration kappa; kappa defaults to 30 and is never trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .polytope import ClassifierWeights

KAPPA_DEFAULT = 30.0
NORM_FLOOR = 1e-12
SIN_FLOOR = 1e-7


class DimensionError(ValueError):
    """Shape mismatch between features, weights or labels."""


class LabelError(ValueError):
    """Label outside [0, K)."""


class DegenerateFeatureError(ValueError):
    """Feature norm at or below the normalization floor."""


class MarginError(ValueError):
    """Margin outside [0, pi)."""


@dataclass(frozen=True)
class PlainCE:
    normalizes = (False, False)


@dataclass(frozen=True)
class FixedSoftmax:
    normalizes = (False, True)


@dataclass(frozen=True)
class NormScaled:
    normalizes = (True, True)
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")


@dataclass(frozen=True)
class AngularMargin(NormScaled):
    m: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.m < math.pi):
            raise MarginError(f"margin must lie in [0, pi), got {self.m}")


LossKind = Union[PlainCE, FixedSoftmax, NormScaled, AngularMargin]
KINDS = {"plain_ce": PlainCE, "fixed_softmax": FixedSoftmax,
         "norm_scaled": NormScaled, "angular_margin": AngularMargin}


@dataclass
class LossResult:
    value: float
    grad_features: np.ndarray  # dL/df, same shape as the input batch
    per_sample: np.ndarray
    grad_weights: Optional[np.ndarray] = None  # dL/d(raw head rows), trainable heads only


def _normalize(v: np.ndarray, what: str):
    """Rows of ``v`` scaled to unit length, and their norms."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    if np.any(norms <= NORM_FLOOR):
        raise DegenerateFeatureError(
            f"{what} norm at or below {NORM_FLOOR}; cannot normalize")
    return v / norms, norms


def _chain_normalization(grad_unit: np.ndarray, unit: np.ndarray,
                         norms: np.ndarray) -> np.ndarray:
    # Jacobian of v -> v/|v| applied to grad_unit: (I - u u^T)/|v|
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms


def unit_rows(head: ClassifierWeights):
    """Unit rows of a head and their norms; the norms are None for a fixed
    head, whose rows are unit already."""
    if not head.trainable:
        return head.rows, None
    return _normalize(head.rows, "trainable head row")


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """``labels`` as int64; a LabelError unless each lies in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise LabelError(f"labels must lie in [0, {num_classes})")
    return labels.astype(np.int64)


def _cross_entropy(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy of the logits ``z``, which it overwrites with
    the gradient of the batch mean.  Besides ``z``, only the exponentials
    summed for the log-partition are a batch x K array."""
    n = z.shape[0]
    idx = np.arange(n)
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))  # log-probabilities
    per_sample = -z[idx, labels]
    np.exp(z, out=z)
    z[idx, labels] -= 1.0
    z /= n
    return per_sample


def evaluate(kind: LossKind, weights: ClassifierWeights, features: np.ndarray,
             labels: np.ndarray) -> LossResult:
    """Cross-entropy over ``s * g(f) . h(w_j)`` for a fixed or trainable head.

    With ``m > 0`` the target logit is ``s * cos(theta_y + m)``, computed
    with the angle-addition identity on the clipped cosine.  Past
    theta_y + m = pi that logit is held at -s with zero slope, and the
    d cos(theta+m)/d cos(theta) factor uses a sin(theta) floor.
    """
    if type(kind) not in KINDS.values():
        raise TypeError(f"unknown loss kind {kind!r}")
    normalize_features, normalize_rows = kind.normalizes
    scale, m = getattr(kind, "kappa", 1.0), getattr(kind, "m", 0.0)
    rows, row_norms = (unit_rows(weights) if normalize_rows
                       else (weights.rows, None))
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != weights.dim:
        raise DimensionError(f"feature dim {f.shape} != head dim {weights.dim}")
    if normalize_features:
        f, norms = _normalize(f, "feature")
    labels = check_labels(labels, weights.num_classes)

    # z holds the logits, then their gradient: cosines when both g and h
    # normalize, scaled in place, through _cross_entropy, and back to dL/dz
    z = f @ rows.T
    if m > 0.0:
        idx = np.arange(z.shape[0])
        cos_m, sin_m = math.cos(m), math.sin(m)
        c_y = np.clip(z[idx, labels], -1.0, 1.0)
        sin_y = np.sqrt(np.maximum(0.0, 1.0 - c_y * c_y))
        past_pi = c_y < -cos_m  # theta_y + m > pi
        slope = np.where(past_pi, 0.0,
                         cos_m + sin_m * c_y / np.maximum(sin_y, SIN_FLOOR))
        z[idx, labels] = np.where(past_pi, -1.0, c_y * cos_m - sin_y * sin_m)
    z *= scale
    per_sample = _cross_entropy(z, labels)
    z *= scale
    if m > 0.0:
        z[idx, labels] *= slope
    res = LossResult(float(per_sample.mean()), z @ rows, per_sample)
    if normalize_features:
        res.grad_features = _chain_normalization(res.grad_features, f, norms)
    if weights.trainable:
        res.grad_weights = z.T @ f
        if row_norms is not None:
            res.grad_weights = _chain_normalization(res.grad_weights, rows,
                                                    row_norms)
    return res
