"""The float64 spec that the tests compare ``polyhead`` against.

Each function here is a plain numpy reference of one step: the polytope
makers as loops, the MLP forward as loops, PReLU and its backward factor
as the per-entry choice ``np.where``, Adam as Kingma & Ba's Algorithm 1,
the loss kernel with its margin rule and normalization Jacobians written
out, finite differences, the geometry report's per-class mask loop, and
the writers as ``csv.writer`` and ``json.dump`` ran them.  They are
written to be read, not to be fast, and the tests hold ``src`` to their
bits or to a stated tolerance.  A helper lives here when a test compares
``src`` against it, or when two or more test modules use it.
"""

import contextlib
import csv
import itertools
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from polyhead import losses, metrics, network
from polyhead.data import batches
from polyhead.losses import AngularMargin, FixedSoftmax, NormScaled, PlainCE
from polyhead.polytope import ClassifierWeights

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def bits(values):
    """The shape and float64 bytes of ``values``: equal exactly when two
    arrays or scalars match bit for bit, signed zeros and nan payloads too."""
    array = np.asarray(values, dtype=np.float64)
    return array.shape, array.tobytes()


def traced_peak(fn, *args):
    """The peak of traced memory, in bytes, while ``fn(*args)`` runs.  numpy
    reports its buffers to tracemalloc, so a bound on this peak is exact."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def usable_cpus(count, blas_threads="1"):
    """A context in which, as far as ``network`` asks before it uses a second
    thread, the process may run on ``count`` CPUs and each of
    ``network.BLAS_THREAD_VARS`` reads ``blas_threads``, or none is set when it
    is None.  The BLAS itself keeps the thread count it read when numpy was
    first imported."""
    values = {var: blas_threads for var in network.BLAS_THREAD_VARS if blas_threads}
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count)),
                           create=True), mock.patch.dict(os.environ, values):
        for var in set(network.BLAS_THREAD_VARS) - set(values):
            os.environ.pop(var, None)
        yield


# -- polytope makers ---------------------------------------------------------

def simplex_reference(K, dim=None):
    """The simplex maker's earlier construction, the reference for
    ``simplex_rows``: the whole (d+1) x d matrix of the d basis vectors and
    alpha * sum(e_i), centroid-shifted and unit-normalized at once."""
    dim = K - 1 if dim is None else dim
    alpha = (1.0 - math.sqrt(dim + 1.0)) / dim
    verts = np.vstack([np.eye(dim), alpha * np.ones((1, dim))])
    verts -= verts.mean(axis=0)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts[:K]


def loop_orthoplex(K, d):
    """Per-vertex loop reference for make_orthoplex."""
    verts = np.zeros((K, d))
    for i in range(K):
        verts[i, i // 2] = 1.0 if i % 2 == 0 else -1.0
    return verts


def loop_cube(K, d):
    """Per-coordinate loop reference for make_cube."""
    scale = 1.0 / math.sqrt(d)
    verts = np.empty((K, d))
    for i in range(K):
        for j in range(d):
            verts[i, j] = scale if (i >> (d - 1 - j)) & 1 else -scale
    return verts


def all_pair_angles(rows):
    """Brute force: the angle of every distinct row pair, as a flat array."""
    rows = np.ascontiguousarray(rows)
    gram = np.clip(rows @ rows.T, -1.0, 1.0)
    return np.arccos(gram[np.triu_indices(rows.shape[0], k=1)])


def whole_gram_angles(rows, largest=False):
    """The smallest angle between distinct unit rows, after the largest when
    ``largest``, from one reduction of the whole K x K Gram matrix."""
    rows = np.ascontiguousarray(rows)
    gram = rows @ rows.T
    cosines = []
    if largest:
        np.fill_diagonal(gram, np.inf)
        cosines.append(gram.min())
    np.fill_diagonal(gram, -np.inf)
    cosines.append(gram.max())
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def eye_head(K):
    """A fixed head with identity rows: PlainCE over it scores the features
    themselves as logits."""
    return ClassifierWeights(None, np.eye(K), math.nan)


# -- data --------------------------------------------------------------------

def loop_blobs(num_classes, dim, per_class, spread, separation, seed):
    """The per-class loop make_blobs used to run, one draw per class."""
    directions = simplex_reference(num_classes)
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
    return inputs, labels


# -- the loss kernel ---------------------------------------------------------
# The kernel as it ran before evaluate worked inside its own logits buffer,
# with a fresh array for every step.  The current kernel must give the same
# bits on every loss kind, head type and batch shape.

def switches_reference(kind):
    """The (g, h, s, m) switches of the losses module's docstring table."""
    if isinstance(kind, PlainCE):
        return False, False, 1.0, 0.0
    if isinstance(kind, FixedSoftmax):
        return False, True, 1.0, 0.0
    if isinstance(kind, AngularMargin):
        return True, True, kind.kappa, kind.m
    if isinstance(kind, NormScaled):
        return True, True, kind.kappa, 0.0
    raise TypeError(f"unknown loss kind {kind!r}")


def log_softmax_reference(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def plain_ce_reference(z, labels):
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    n = z.shape[0]
    logp = log_softmax_reference(z)
    per_sample = -logp[np.arange(n), labels]
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return losses.LossResult(float(per_sample.mean()), grad, per_sample)


def chain_normalization_reference(grad_unit, unit, norms):
    """The Jacobian of v -> v / |v|, (I - u u^T) / |v|, applied to each row
    of ``grad_unit``."""
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms


def evaluate_reference(kind, weights, features, labels):
    """Cross-entropy over ``s * g(f) . h(w_j)``, with the target logit
    ``s * cos(theta_y + m)`` held at -s with zero slope past theta_y + m = pi."""
    normalize_features, normalize_rows, scale, m = switches_reference(kind)
    rows, row_norms = (losses.unit_rows(weights) if normalize_rows
                       else (weights.rows, None))
    f = np.asarray(features, dtype=np.float64)
    if normalize_features:
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        f = f / norms
    labels = np.asarray(labels).astype(np.int64)
    inner = f @ rows.T
    z = scale * inner
    if m > 0.0:
        idx = np.arange(inner.shape[0])
        cos_m, sin_m = math.cos(m), math.sin(m)
        c_y = np.clip(inner[idx, labels], -1.0, 1.0)
        sin_y = np.sqrt(np.maximum(0.0, 1.0 - c_y * c_y))
        past_pi = c_y < -cos_m
        z[idx, labels] = scale * np.where(past_pi, -1.0,
                                          c_y * cos_m - sin_y * sin_m)
        slope = np.where(past_pi, 0.0,
                         cos_m + sin_m * c_y / np.maximum(sin_y, losses.SIN_FLOOR))
    res = plain_ce_reference(z, labels)
    grad_inner = scale * res.grad_features
    if m > 0.0:
        grad_inner[idx, labels] *= slope
    res.grad_features = grad_inner @ rows
    if normalize_features:
        res.grad_features = chain_normalization_reference(res.grad_features, f, norms)
    if weights.trainable:
        res.grad_weights = grad_inner.T @ f
        if row_norms is not None:
            res.grad_weights = chain_normalization_reference(res.grad_weights, rows,
                                                             row_norms)
    return res


# -- finite differences ------------------------------------------------------

def numeric_grad(fn, x, step=1e-6):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        bumped = x.copy()
        bumped[idx] += step
        hi = fn(bumped)
        bumped[idx] -= 2 * step
        lo = fn(bumped)
        g[idx] = (hi - lo) / (2 * step)
    return g


def max_relative_error(analytic, numeric):
    """The largest |a - n| / max(1e-8, |a| + |n|) over all entries."""
    return float((np.abs(analytic - numeric)
                  / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))).max())


def grad_check(kind, weights, features, labels):
    """Max relative error of the analytic feature gradient vs central differences."""
    features = np.asarray(features, dtype=np.float64)
    analytic = losses.evaluate(kind, weights, features, labels).grad_features
    numeric = numeric_grad(lambda q: losses.evaluate(kind, weights, q, labels).value,
                           features)
    return max_relative_error(analytic, numeric)


def random_features(rng, n, d, lo=0.5, hi=2.0):
    f = rng.normal(size=(n, d))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return f * rng.uniform(lo, hi, size=(n, 1))


def well_conditioned(kind, w, f, y):
    """Reject configurations where central differences cannot resolve the
    gradient: angles within 0.05 rad of the singular set, or softmax so
    saturated that per-sample losses (hence gradients) vanish."""
    margin = kind.m if isinstance(kind, AngularMargin) else 0.0
    unit = f / np.linalg.norm(f, axis=1, keepdims=True)
    rows, _ = losses.unit_rows(w)
    theta = np.arccos(np.clip((unit * rows[y]).sum(axis=1), -1.0, 1.0))
    if theta.min() < 0.05 or theta.max() > math.pi - margin - 0.05:
        return False
    res = losses.evaluate(kind, w, f, y)
    # near-zero coordinates sit below what step-1e-6 differences resolve
    return res.per_sample.min() > 1e-3 and np.abs(res.grad_features).min() > 1e-4


def well_conditioned_batches(kind, head, n, seed):
    """Endless (features, labels) batches of ``n`` rows from one generator
    seeded with ``seed``, keeping those that pass ``well_conditioned``."""
    rng = np.random.default_rng(seed)
    while True:
        f = random_features(rng, n, head.dim)
        y = rng.integers(0, head.num_classes, n)
        if well_conditioned(kind, head, f, y):
            yield f, y


# -- the whole model ---------------------------------------------------------

def prelu_reference(pre, slope):
    """PReLU as a per-entry choice: ``pre`` where it is positive, else
    ``slope * pre``."""
    return np.where(pre > 0, pre, slope * pre)


def backward_reference(model, cache, grad_features):
    """``network.backward`` with the PReLU factor as the per-entry choice
    ``np.where(neg, slope, 1.0)``, every other expression as it stands there."""
    grads = []
    grad_act = np.asarray(grad_features, dtype=np.float64)
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        x_in, pre = cache[i]
        neg = pre < 0
        grad_pre = grad_act * np.where(neg, layer.slope, 1.0)
        grad_slope = (grad_act * pre * neg).sum(axis=0)
        grads[:0] = [grad_pre.T @ x_in, grad_pre.sum(axis=0), grad_slope]
        if i:
            grad_act = grad_pre @ layer.w
    return grads


def adam_reference(params, steps, lr, beta1=network.ADAM_BETA1,
                   beta2=network.ADAM_BETA2, eps=network.ADAM_EPS):
    """Kingma & Ba (arXiv 1412.6980), Algorithm 1, from ``params`` through
    each list of gradients in ``steps``: the parameters, the first and second
    moments m and v, and the step count t that result."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    for grads in steps:
        t += 1
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v, t


def train_reference(model, data, config):
    """``network.train``'s loop with nothing split: each step's ``forward`` and
    ``adam_step`` on one CPU (``usable_cpus(1)``), its gradients from
    ``backward_reference``.  Returns the epoch log, the Adam state and every
    step's gradients, which ``adam_reference`` replays."""
    state, log, steps = network.AdamState(lr=config.lr), [], []
    with usable_cpus(1), np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss_sum, correct = 0.0, 0
            for batch in batches(data, config.batch_size, config.seed, epoch):
                feats, cache = network.forward(model, batch.inputs)
                res = losses.evaluate(config.loss, model.head, feats, batch.labels)
                loss_sum += res.value * len(batch)
                correct += int((network.classify(model.head, feats) == batch.labels).sum())
                grads = backward_reference(model, cache, res.grad_features)
                steps.append(grads + [res.grad_weights] if model.head.trainable else grads)
                network.adam_step(model, steps[-1], state)
            log.append(network.EpochStats(epoch, loss_sum / len(data), correct / len(data)))
    return log, state, steps


def naive_forward(model, x):
    """Explicit-loop re-implementation of the MLP forward pass."""
    acts = []
    for n in range(x.shape[0]):
        a = x[n]
        for layer in model.layers:
            out = np.empty(layer.w.shape[0])
            for i in range(layer.w.shape[0]):
                s = layer.b[i]
                for j in range(layer.w.shape[1]):
                    s += layer.w[i, j] * a[j]
                out[i] = s if s > 0 else layer.slope[i] * s
            a = out
        acts.append(a)
    return np.array(acts)


def grad_resolvable(kind, w, feats, y):
    """True when no per-sample loss is so small that its gradient drowns in
    finite-difference round-off, and angles avoid the margin singular set.

    Kept apart from ``well_conditioned``, which also bounds the smallest
    gradient entry: merged, it would change the seeds that NormScaled checks
    at seed offset 100, where seed 11 passes here with a smallest gradient
    entry of 6.4e-5."""
    margin = kind.m if isinstance(kind, AngularMargin) else 0.0
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    if norms.min() < 1e-3:
        return False
    unit = feats / norms
    theta = np.arccos(np.clip((unit * w.rows[y]).sum(axis=1), -1.0, 1.0))
    if theta.min() < 0.05 or theta.max() > math.pi - margin - 0.05:
        return False
    res = losses.evaluate(kind, w, feats, y)
    return res.per_sample.min() > 1e-3


def resolvable_models(kind, head, seed_offset):
    """Endless (model, x, y) triples of a 5 -> 4 -> 3 model on ``head``: for
    seeds 1, 2, ..., inputs and labels drawn from the seed and the model
    built at ``seed + seed_offset``, kept when ``grad_resolvable``."""
    for seed in itertools.count(1):
        rng = np.random.default_rng(seed)
        model = network.init_model(5, [4, 3], head, seed=seed + seed_offset)
        x = rng.normal(size=(3, 5))
        y = rng.integers(0, head.num_classes, 3)
        feats, _ = network.forward(model, x)
        if grad_resolvable(kind, head, feats, y):
            yield model, x, y


def full_model_grad_check(model, x, y, loss_kind, step=1e-6):
    """Max relative error of backward's gradients against central differences
    over every trainable parameter.

    Each entry moves in place to ``orig + step`` and ``orig - step``.  This
    is kept apart from ``numeric_grad``, whose ``(orig + step) - 2 step``
    rounds differently from ``orig - step``: routed through it, the check
    would report another worst error."""

    def loss_value():
        feats, _ = network.forward(model, x)
        return losses.evaluate(loss_kind, model.head, feats, y).value

    feats, cache = network.forward(model, x)
    res = losses.evaluate(loss_kind, model.head, feats, y)
    analytic = network.backward(model, cache, res.grad_features, res.grad_weights)
    numeric = []
    for param in network.parameters(model):
        flat_p = param.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            hi = loss_value()
            flat_p[i] = orig - step
            lo = loss_value()
            flat_p[i] = orig
            numeric.append((hi - lo) / (2 * step))
    return max_relative_error(np.concatenate([g.reshape(-1) for g in analytic]),
                              np.array(numeric))


# -- the geometry report and the writers -------------------------------------

def mask_loop_reference(head, features, labels, predictions):
    """The per-class mask loop geometry_report used to run."""
    rows, _ = metrics.unit_rows(head)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    norms = np.linalg.norm(features, axis=1)
    degenerate = int((norms == 0).sum())
    per_class, directions = [], []
    for c in range(head.num_classes):
        mask = (labels == c) & (norms > 0)
        if not mask.any():
            per_class.append(metrics.ClassStats(c, False, 0, math.nan, math.nan, None))
            continue
        unit = features[mask] / norms[mask, None]
        angles = np.arccos(np.clip(unit @ rows[c], -1.0, 1.0))
        mean_dir = unit.mean(axis=0)
        mean_norm = np.linalg.norm(mean_dir)
        mean_dir = mean_dir / mean_norm if mean_norm > 0 else None
        per_class.append(metrics.ClassStats(c, True, int(mask.sum()),
                                            float(angles.mean()), float(angles.std()),
                                            mean_dir))
        if mean_dir is not None:
            directions.append(mean_dir)
    if len(directions) < 2:
        min_angle, no_pairs = math.pi, True
    else:
        dirs = np.vstack(directions)
        gram = np.clip(dirs @ dirs.T, -1.0, 1.0)
        iu = np.triu_indices(len(directions), k=1)
        min_angle, no_pairs = float(np.arccos(gram[iu]).min()), False
    return metrics.GeometryReport(per_class, head.phi, min_angle, no_pairs,
                                  metrics.accuracy(predictions, labels), degenerate)


def finite(value):
    value = float(value)
    return value if math.isfinite(value) else None


def report_to_dict(report):
    """The strict-JSON dict GeometryReport.to_dict used to build: a
    non-finite float (an unknown phi, the angles of a class with no
    samples) becomes None."""
    return {
        "phi": finite(report.phi),
        "min_pairwise_mean_angle": finite(report.min_pairwise_mean_angle),
        "no_pairs": report.no_pairs,
        "accuracy": finite(report.accuracy),
        "degenerate": report.degenerate,
        "per_class": [
            {
                "label": c.label,
                "present": c.present,
                "count": c.count,
                "mean_angle_to_weight": finite(c.mean_angle_to_weight),
                "angle_std": finite(c.angle_std),
                "mean_direction": None if c.mean_direction is None
                else list(map(finite, c.mean_direction)),
            }
            for c in report.per_class
        ],
    }


def json_dump_reference(payload, path, **kwargs):
    with open(path, "w") as fh:
        json.dump(payload, fh, **kwargs)


def csv_writer_reference(features, labels, normalized, path):
    """The csv.writer loop export_scatter used to run, with the normalized
    mode that wrote ``features_norm.csv``."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if normalized:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        features = features / np.where(norms > 0, norms, 1.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(features.shape[1])])
        for label, row in zip(labels, features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def readme_unit_view(path) -> np.ndarray:
    """The unit-normalized rows of the scatter CSV at ``path``, by the numpy
    snippet the README gives for ``run/features.csv``."""
    blocks = [block.split("```")[0] for block in README.read_text().split("```python\n")[1:]]
    snippet, = [block for block in blocks if "run/features.csv" in block]
    scope = {}
    exec(snippet.replace("run/features.csv", str(path)), scope)
    return scope["unit"]
