"""Fully-connected backbone with a frozen or trainable classifier head.

Plain numpy forward/backward: affine layers with per-unit PReLU, He
initialization, Adam updates.  A fixed head keeps its polytope rows
bit-identical through training; the trainable head is the baseline whose
rows are updated like any other parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import losses
from .data import LabeledBatch, batches
from .polytope import (ClassifierWeights, StructuralError, from_dict as weights_from_dict,
                       to_dict as weights_to_dict)

PRELU_SLOPE_INIT = 0.25
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CacheError(ValueError):
    """Backward called with a cache from a different forward pass."""


class DivergenceError(ValueError):
    """Training reached a non-finite loss or parameter."""


@dataclass
class Layer:
    w: np.ndarray       # (out, in)
    b: np.ndarray       # (out,)
    slope: np.ndarray   # (out,) PReLU negative-side slopes


@dataclass
class MlpModel:
    input_dim: int
    layers: List[Layer]
    head: ClassifierWeights


@dataclass
class ModelGrads:
    layers: List[Layer]  # same shapes, holding gradients
    head_rows: Optional[np.ndarray] = None


@dataclass
class TrainConfig:
    loss: losses.LossKind
    epochs: int
    seed: int
    batch_size: int
    lr: float


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_accuracy: float


def init_model(input_dim: int, hidden_widths: List[int],
               head: Optional[ClassifierWeights], seed: int,
               trainable_classes: Optional[int] = None) -> MlpModel:
    """He-initialized MLP.  ``head`` is a ClassifierWeights for a fixed
    head; pass ``trainable_classes`` (with head=None) for the baseline."""
    if not hidden_widths or any(w < 1 for w in hidden_widths):
        raise ValueError(f"hidden widths must be positive, got {hidden_widths}")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for width in hidden_widths:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
        layers.append(Layer(w, np.zeros(width), np.full(width, PRELU_SLOPE_INIT)))
        fan_in = width

    if head is not None:
        if head.dim != hidden_widths[-1]:
            raise ValueError(
                f"last hidden width {hidden_widths[-1]} != head dim {head.dim}")
    else:
        if trainable_classes is None:
            raise ValueError("need ClassifierWeights or trainable_classes")
        d = hidden_widths[-1]
        rows = rng.normal(0.0, np.sqrt(2.0 / d), size=(trainable_classes, d))
        head = ClassifierWeights(None, trainable_classes, d, rows, math.nan, True)
    return MlpModel(input_dim, layers, head)


def forward(model: MlpModel, batch: np.ndarray):
    """Returns (features, logits, cache).  Logits are raw inner products
    against the head rows; loss kinds apply their own normalization."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape}, expected (N, {model.input_dim})")
    cache = []
    act = x
    for layer in model.layers:
        pre = act @ layer.w.T + layer.b
        cache.append((act, pre))
        act = np.where(pre > 0, pre, layer.slope * pre)
    z = act @ model.head.rows.T
    return act, z, cache


def backward(model: MlpModel, cache, grad_features: np.ndarray) -> ModelGrads:
    """Backbone parameter gradients from dL/d(features).

    The head contributes through grad_features only; trainable-head row
    gradients come from the loss (see ``train``).
    """
    if len(cache) != len(model.layers):
        raise CacheError(f"cache holds {len(cache)} layers, model has "
                         f"{len(model.layers)}")
    grads = [None] * len(model.layers)
    grad_act = np.asarray(grad_features, dtype=np.float64)
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        x_in, pre = cache[i]
        if pre.shape[1] != layer.w.shape[0] or x_in.shape[1] != layer.w.shape[1]:
            raise CacheError(f"cache shapes stale at layer {i}")
        neg = pre < 0
        grad_pre = grad_act * np.where(neg, layer.slope, 1.0)
        grad_slope = (grad_act * pre * neg).sum(axis=0)
        grads[i] = Layer(grad_pre.T @ x_in, grad_pre.sum(axis=0), grad_slope)
        grad_act = grad_pre @ layer.w
    return ModelGrads(grads)


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def _trainable_params(model: MlpModel):
    params = []
    for layer in model.layers:
        params.extend([layer.w, layer.b, layer.slope])
    if model.head.trainable:
        params.append(model.head.rows)
    return params


def _grad_arrays(model: MlpModel, grads: ModelGrads):
    arrays = []
    for g in grads.layers:
        arrays.extend([g.w, g.b, g.slope])
    if model.head.trainable:
        if grads.head_rows is None:
            raise ValueError("trainable head requires head_rows gradient")
        arrays.append(grads.head_rows)
    return arrays


def adam_step(model: MlpModel, grads: ModelGrads, state: AdamState):
    """In-place Adam update with bias correction; fixed heads untouched."""
    params = _trainable_params(model)
    garr = _grad_arrays(model, grads)
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(garr) != len(params):
        raise ValueError("gradient/parameter count mismatch")
    state.t += 1
    for p, g, m, v in zip(params, garr, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** state.t)
        v_hat = v / (1.0 - ADAM_BETA2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model, state


def predict(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Argmax cosine similarity to head rows; ties break to the lowest index."""
    feats, _, _ = forward(model, batch)
    unit, _ = losses.unit_rows(model.head)
    return np.argmax(feats @ unit.T, axis=1)


def train(model: MlpModel, data: LabeledBatch, config: TrainConfig):
    """Shuffled mini-batch training; deterministic for a fixed seed."""
    if data.labels.max() >= model.head.num_classes:
        raise losses.LabelError(
            f"label {data.labels.max()} >= K={model.head.num_classes}")
    state = AdamState(lr=config.lr)
    log = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        correct = 0
        for i, batch in enumerate(batches(data, config.batch_size, config.seed, epoch)):
            feats, _, cache = forward(model, batch.inputs)
            res = losses.evaluate(config.loss, model.head, feats, batch.labels)
            if not math.isfinite(res.value):
                raise DivergenceError(f"loss {res.value} at epoch {epoch} batch {i}")
            loss_sum += res.value * len(batch)
            unit, _ = losses.unit_rows(model.head)  # before the step moves them
            correct += int((np.argmax(feats @ unit.T, axis=1) == batch.labels).sum())
            grads = backward(model, cache, res.grad_features)
            grads.head_rows = res.grad_weights
            adam_step(model, grads, state)
        log.append(EpochStats(epoch, loss_sum / len(data), correct / len(data)))
    if not all(np.isfinite(p).all() for p in _trainable_params(model)):
        raise DivergenceError(f"non-finite parameter after the step of epoch {epoch} "
                              f"batch {i}")
    return model, log


def model_to_dict(model: MlpModel) -> dict:
    h = model.head
    if h.trainable:
        head = {"type": "trainable", "rows": [list(map(float, r)) for r in h.rows]}
    else:
        head = {"type": "fixed", "weights": weights_to_dict(h)}
    return {
        "input_dim": model.input_dim,
        "layers": [
            {"w": [list(map(float, r)) for r in layer.w],
             "b": list(map(float, layer.b)),
             "slope": list(map(float, layer.slope))}
            for layer in model.layers
        ],
        "head": head,
    }


def _finite_array(values, ndim: int, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != ndim or not np.all(np.isfinite(array)):
        raise StructuralError(f"{what} must be a finite {ndim}-D array, "
                              f"got shape {array.shape}")
    return array


def model_from_dict(payload: dict) -> MlpModel:
    """The model a checkpoint describes.  Raises StructuralError unless
    every parameter is finite and the widths chain from ``input_dim``
    through each layer's ``w``, ``b`` and ``slope`` to the head's d."""
    input_dim = width = int(payload["input_dim"])
    layers = []
    for i, entry in enumerate(payload["layers"]):
        w, b, slope = (_finite_array(entry[key], ndim, f"layer {i} {key}")
                       for key, ndim in (("w", 2), ("b", 1), ("slope", 1)))
        if w.shape[1] != width or not b.shape == slope.shape == (w.shape[0],):
            raise StructuralError(f"layer {i} takes {width} inputs but has w "
                                  f"{w.shape}, b {b.shape} and slope {slope.shape}")
        layers.append(Layer(w, b, slope))
        width = w.shape[0]
    head_payload = payload["head"]
    if head_payload["type"] == "fixed":
        head = weights_from_dict(head_payload["weights"])
        _finite_array(head.rows, 2, "head rows")
    else:
        rows = _finite_array(head_payload["rows"], 2, "head rows")
        head = ClassifierWeights(None, *rows.shape, rows, math.nan, True)
        losses.unit_rows(head)  # a zero row has no direction to score against
    if head.dim != width:
        raise StructuralError(f"head d={head.dim} != last layer width {width}")
    return MlpModel(input_dim, layers, head)


def save_checkpoint(model: MlpModel, path, extra: Optional[dict] = None) -> None:
    payload = model_to_dict(model)
    if extra:
        payload["config"] = extra
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> MlpModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
