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
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import losses
from .data import LabeledBatch, batches
from .polytope import (ClassifierWeights, StructuralError, check_rows,
                       from_dict as weights_from_dict, to_dict as weights_to_dict)

PRELU_SLOPE_INIT = 0.25
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The most rows that classify scores in one product.  Its blocks start every
# half of this and the rows left over join the last block, because a short
# product rounds differently: OpenBLAS sends one row to gemv, and K x rows
# <= 1200 (with d >= 32) to a small-matrix kernel.  Blocks that start at
# multiples of 768 rows keep the whole product's bits with one BLAS thread;
# 1024-row blocks do not (K=300, d=299).
SCORE_BLOCK_ROWS = 1536


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


def init_model(input_dim: int, hidden_widths: List[int], head: ClassifierWeights,
               seed: int, trainable: bool = False) -> MlpModel:
    """He-initialized MLP on ``head``.  With ``trainable`` the baseline's
    rows, of the head's shape, are drawn after the layers and the head
    keeps only its ``phi``, the vertex angle of the polytope it stands in for."""
    if not hidden_widths or any(w < 1 for w in hidden_widths):
        raise ValueError(f"hidden widths must be positive, got {hidden_widths}")
    if head.dim != hidden_widths[-1]:
        raise ValueError(f"last hidden width {hidden_widths[-1]} != head dim {head.dim}")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for width in hidden_widths:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
        layers.append(Layer(w, np.zeros(width), np.full(width, PRELU_SLOPE_INIT)))
        fan_in = width

    if trainable:
        rows = rng.normal(0.0, np.sqrt(2.0 / head.dim), size=head.rows.shape)
        head = ClassifierWeights(None, *rows.shape, rows, head.phi, True)
    return MlpModel(input_dim, layers, head)


def forward(model: MlpModel, batch: np.ndarray):
    """Returns (features, cache); the loss kinds score the features
    against the head."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape}, expected (N, {model.input_dim})")
    cache = []
    act = x
    for layer in model.layers:
        pre = act @ layer.w.T + layer.b
        cache.append((act, pre))
        act = np.where(pre > 0, pre, layer.slope * pre)
    return act, cache


def parameters(model: MlpModel) -> List[np.ndarray]:
    """What Adam moves: each layer's w, b and slope, then the head rows if
    the head is trainable."""
    params = [p for layer in model.layers for p in (layer.w, layer.b, layer.slope)]
    if model.head.trainable:
        params.append(model.head.rows)
    return params


def backward(model: MlpModel, cache, grad_features: np.ndarray,
             grad_rows: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Gradients in the order of ``parameters(model)``, from dL/d(features)
    and, for a trainable head, dL/d(head rows) as the loss gives them."""
    if len(cache) != len(model.layers):
        raise CacheError(f"cache holds {len(cache)} layers, model has "
                         f"{len(model.layers)}")
    if model.head.trainable and grad_rows is None:
        raise ValueError("a trainable head requires its grad_rows")
    grads = []
    grad_act = np.asarray(grad_features, dtype=np.float64)
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        x_in, pre = cache[i]
        if pre.shape[1] != layer.w.shape[0] or x_in.shape[1] != layer.w.shape[1]:
            raise CacheError(f"cache shapes stale at layer {i}")
        neg = pre < 0
        grad_pre = grad_act * np.where(neg, layer.slope, 1.0)
        grad_slope = (grad_act * pre * neg).sum(axis=0)
        grads[:0] = [grad_pre.T @ x_in, grad_pre.sum(axis=0), grad_slope]
        if i:  # the gradient of the inputs is not needed
            grad_act = grad_pre @ layer.w
    return grads + [grad_rows] if model.head.trainable else grads


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(model: MlpModel, grads: List[np.ndarray], state: AdamState):
    """In-place Adam update with bias correction of ``parameters(model)``;
    fixed heads untouched."""
    params = parameters(model)
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(grads) != len(params):
        raise ValueError("gradient/parameter count mismatch")
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** state.t)
        v_hat = v / (1.0 - ADAM_BETA2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model, state


def score_blocks(n: int) -> List[tuple]:
    """The row ranges ``[start, stop)`` that ``classify`` scores one product
    at a time: one every ``SCORE_BLOCK_ROWS // 2`` rows, the last running to
    ``n``, so a block holds fewer than SCORE_BLOCK_ROWS rows, and fewer than
    half of them only when it is all ``n`` rows (one empty block at n = 0)."""
    step = SCORE_BLOCK_ROWS // 2
    bounds = list(range(0, n - step + 1, step)) or [0]
    return list(zip(bounds, bounds[1:] + [n]))


def classify(head: ClassifierWeights, features: np.ndarray) -> np.ndarray:
    """Argmax cosine to the head's unit rows; ties go to the lowest index.
    Only one block's scores (see ``score_blocks``) exist at a time, never
    the N x K matrix."""
    unit, _ = losses.unit_rows(head)
    preds = np.empty(len(features), dtype=np.intp)
    for start, stop in score_blocks(len(features)):
        np.argmax(features[start:stop] @ unit.T, axis=1, out=preds[start:stop])
    return preds


def predict(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """The classes ``classify`` gives the features of ``batch``."""
    return classify(model.head, forward(model, batch)[0])


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
            # a diverging step overflows silently: the loss check here and
            # the parameter check after the last step report it
            with np.errstate(over="ignore", invalid="ignore"):
                feats, cache = forward(model, batch.inputs)
                res = losses.evaluate(config.loss, model.head, feats, batch.labels)
                if not math.isfinite(res.value):
                    raise DivergenceError(f"loss {res.value} at epoch {epoch} batch {i}")
                loss_sum += res.value * len(batch)
                # scored before the step moves a trainable head's rows
                correct += int((classify(model.head, feats) == batch.labels).sum())
                grads = backward(model, cache, res.grad_features, res.grad_weights)
                adam_step(model, grads, state)
        log.append(EpochStats(epoch, loss_sum / len(data), correct / len(data)))
    if not all(np.isfinite(p).all() for p in parameters(model)):
        raise DivergenceError(f"non-finite parameter after the step of epoch {epoch} "
                              f"batch {i}")
    return model, log


def model_to_dict(model: MlpModel) -> dict:
    h = model.head
    if h.trainable:
        head = {"type": "trainable", "rows": h.rows.tolist()}
    else:
        head = {"type": "fixed", "weights": weights_to_dict(h)}
    return {
        "input_dim": model.input_dim,
        "layers": [
            {"w": layer.w.tolist(), "b": layer.b.tolist(),
             "slope": layer.slope.tolist()}
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
    else:
        rows = check_rows(head_payload["rows"])
        head = ClassifierWeights(None, *rows.shape, rows, math.nan, True)
        losses.unit_rows(head)  # a zero row has no direction to score against
    if head.dim != width:
        raise StructuralError(f"head d={head.dim} != last layer width {width}")
    return MlpModel(input_dim, layers, head)


def save_checkpoint(model: MlpModel, path, extra: Optional[dict] = None) -> None:
    payload = model_to_dict(model)
    if extra:
        payload["config"] = extra
    # json.dumps, unlike json.dump, runs the C encoder
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> MlpModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
