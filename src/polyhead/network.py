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
from .polytope import (ClassifierWeights, StructuralError, decode_array, encode_array,
                       json_field, from_dict as weights_from_dict, to_dict as weights_to_dict)

PRELU_SLOPE_INIT = 0.25
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Entries of the layers' weight matrices that init_model may draw, checked
# before any draw: 128 MiB of float64, and as much again for each of the
# gradients and Adam's two moments.  A 784 -> 256 -> 9 MLP holds 203k.
MAX_MODEL_ENTRIES = 1 << 24
# The most optimizer steps, epochs x batches per epoch, that a train config
# may ask for; every test, tool and benchmark config takes a few hundred.
MAX_TRAIN_STEPS = 10 ** 7
# The most rows that classify scores, or embed runs through forward, at once.
# Blocks start every half of this and the rows left over join the last one, as
# a short product rounds differently: OpenBLAS sends one row to gemv, and K x
# rows <= 1200 (with d >= 32) to a small-matrix kernel.  With one BLAS thread,
# starts every 768 rows keep the whole product's bits; 1024 do not (K=300, d=299).
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
    """He-initialized MLP on ``head``.  With ``trainable`` the baseline's rows, of
    the head's shape, are drawn after the layers and replace only the head's rows:
    its ``kind`` and ``phi`` still name the polytope it stands in for."""
    if not hidden_widths or any(w < 1 for w in hidden_widths):
        raise ValueError(f"hidden widths must be positive, got {hidden_widths}")
    if head.dim != hidden_widths[-1]:
        raise ValueError(f"last hidden width {hidden_widths[-1]} != head dim {head.dim}")
    fan_ins = [input_dim, *hidden_widths[:-1]]
    if sum(w * f for w, f in zip(hidden_widths, fan_ins)) > MAX_MODEL_ENTRIES:
        raise ValueError(f"hidden widths {hidden_widths} on {input_dim} inputs need "
                         f"more than MAX_MODEL_ENTRIES ({MAX_MODEL_ENTRIES}) weights")
    rng = np.random.default_rng(seed)
    layers = []
    for width, fan_in in zip(hidden_widths, fan_ins):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
        layers.append(Layer(w, np.zeros(width), np.full(width, PRELU_SLOPE_INIT)))

    if trainable:
        rows = rng.normal(0.0, np.sqrt(2.0 / head.dim), size=head.rows.shape)
        head = ClassifierWeights(head.kind, rows, head.phi, True)
    return MlpModel(input_dim, layers, head)


def _inputs(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape}, expected (N, {model.input_dim})")
    return x


def forward(model: MlpModel, batch: np.ndarray):
    """Returns (features, cache); the loss kinds score the features against
    the head.  The cache holds each layer's input and ``pre`` and is read
    only by ``backward``; a caller that only scores calls ``embed``.  Each
    layer's product is ``w @ act.T``, which gives BLAS the row count as its
    M dimension, where OpenBLAS runs a full-set product faster than ``act @
    w.T`` (see README); ``np.add`` writes it back in C order with the bias,
    so every cached array stays C-contiguous.
    PReLU is ``slope * min(pre, 0) + max(pre, 0)`` (He et al., arXiv
    1502.01852): no per-entry branch, the same value as ``pre if pre > 0
    else slope * pre``, and a zero output may differ only in its sign."""
    cache = []
    act = _inputs(model, batch)
    for layer in model.layers:
        pre = np.add((layer.w @ act.T).T, layer.b, out=np.empty((len(act), len(layer.b))))
        cache.append((act, pre))
        act = np.minimum(pre, 0.0)
        act *= layer.slope
        act += np.maximum(pre, 0.0)
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
        grad_pre = neg * layer.slope
        grad_pre += ~neg
        grad_pre *= grad_act
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
    fixed heads untouched.  Nothing moves unless every gradient fits."""
    params = parameters(model)
    if len(grads) != len(params):
        raise ValueError("gradient/parameter count mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** state.t)
        v_hat = v / (1.0 - ADAM_BETA2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def score_blocks(n: int) -> List[tuple]:
    """The row ranges ``[start, stop)`` that ``classify`` and ``embed`` take one
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


def embed(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """``forward(model, batch)[0]`` with no cache, one ``score_blocks`` block of
    rows at a time into one N x d array; with one BLAS thread, the same bits."""
    x = _inputs(model, batch)
    feats = np.empty((len(x), model.head.dim))
    for start, stop in score_blocks(len(x)):
        feats[start:stop] = forward(model, x[start:stop])[0]
    return feats


def predict(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """The classes ``classify`` gives the features of ``batch``."""
    return classify(model.head, embed(model, batch))


def train(model: MlpModel, data: LabeledBatch, config: TrainConfig):
    """Shuffled mini-batch training; deterministic for a fixed seed."""
    losses.check_labels(data.labels, model.head.num_classes)
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
    """A checkpoint's payload: each parameter array through ``encode_array``;
    the head, fixed or trainable, as its head file's dict."""
    return {
        "input_dim": model.input_dim,
        "layers": [{"w": encode_array(layer.w), "b": encode_array(layer.b),
                    "slope": encode_array(layer.slope)} for layer in model.layers],
        "head": {"type": "trainable" if model.head.trainable else "fixed",
                 "weights": weights_to_dict(model.head)},
    }


def model_from_dict(payload: dict) -> MlpModel:
    """The model a checkpoint describes.  Raises StructuralError unless its keys
    are of their JSON kinds, every parameter array passes ``decode_array``, the
    head type is "fixed" or "trainable" (writable rows), its ``weights`` pass
    ``from_dict`` and the widths chain from ``input_dim`` through each layer's
    ``w``, ``b`` and ``slope`` to the head's d."""
    input_dim = width = json_field(payload, "input_dim")
    layers = []
    for i, entry in enumerate(json_field(payload, "layers", list, items=dict)):
        w, b, slope = (decode_array(entry.get(key), ndim, MAX_MODEL_ENTRIES,
                                    f"layer {i} {key}")
                       for key, ndim in (("w", 2), ("b", 1), ("slope", 1)))
        if w.shape[1] != width or not b.shape == slope.shape == (w.shape[0],):
            raise StructuralError(f"layer {i} takes {width} inputs but has w "
                                  f"{w.shape}, b {b.shape} and slope {slope.shape}")
        layers.append(Layer(w, b, slope))
        width = w.shape[0]
    head_payload = json_field(payload, "head", dict)
    head_type = json_field(head_payload, "type", str, "head type")
    if head_type not in ("fixed", "trainable"):
        raise StructuralError(f"unknown head type {head_type!r}")
    head = weights_from_dict(json_field(head_payload, "weights", dict),
                             trainable=head_type == "trainable")
    losses.unit_rows(head)  # a zero trainable row has no direction to score against
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
        return model_from_dict(json_field(json.load(fh), None, dict, "checkpoint"))
