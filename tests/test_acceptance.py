"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The MNIST and EMNIST checks need the IDX files on disk (see README);
they are skipped, not failed, when the files are absent and the IDX
criterion falls back to a synthetic round-trip.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from polyhead import cli, data, losses, metrics, network, polytope
from polyhead.polytope import (PolytopeKind, make_cube, make_orthoplex, make_simplex,
                               make_weights, verify_geometry)
from reference import (eye_head, full_model_grad_check, grad_check, random_features,
                       resolvable_models, well_conditioned_batches)


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def mnist_paths():
    root = Path(os.environ.get("POLYHEAD_MNIST_DIR", "data/mnist"))
    files = {
        "train_images": root / "train-images-idx3-ubyte",
        "train_labels": root / "train-labels-idx1-ubyte",
        "test_images": root / "t10k-images-idx3-ubyte",
        "test_labels": root / "t10k-labels-idx1-ubyte",
    }
    if all(p.exists() for p in files.values()):
        return files
    return None


def emnist_paths():
    root = Path(os.environ.get("POLYHEAD_EMNIST_DIR", "data/emnist"))
    img = root / "emnist-balanced-train-images-idx3-ubyte"
    lab = root / "emnist-balanced-train-labels-idx1-ubyte"
    if img.exists() and lab.exists():
        return img, lab
    return None


def test_criterion_1_geometry_exactness():
    t0 = time.time()
    worst = 0.0
    for kind, maker in polytope._MAKERS.items():
        for K in range(2, 101):
            w = maker(K)
            check = verify_geometry(w, tol=1e-10)
            assert check.passed, f"{kind.value} K={K}: {check.message}"
            worst = max(worst, check.worst_deviation)
            if kind is PolytopeKind.SIMPLEX:
                d = K - 1
                gram = w.rows @ w.rows.T
                target = (1.0 + 1.0 / d) * np.eye(K) - (1.0 / d) * np.ones((K, K))
                assert np.abs(gram - target).max() <= 1e-10
    elapsed = time.time() - t0
    report(1, elapsed < 5.0,
           f"(worst deviation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_closed_form_angles():
    checks = [
        (make_simplex(10).phi, math.acos(-1.0 / 9.0)),
        (make_orthoplex(10).phi, math.pi / 2.0),
        (make_cube(47).phi, math.acos(2.0 / 3.0)),
    ]
    worst = max(abs(a - b) for a, b in checks)
    report(2, worst <= 1e-12, f"(worst deviation {worst:.2e})")


def test_criterion_3_loss_identities():
    rng = np.random.default_rng(33)
    w = make_simplex(8)
    worst = 0.0
    for _ in range(50):
        f = random_features(rng, 6, w.dim)
        y = rng.integers(0, 8, 6)
        a = losses.evaluate(losses.AngularMargin(30.0, 0.0), w, f, y)
        b = losses.evaluate(losses.NormScaled(30.0), w, f, y)
        worst = max(worst, abs(a.value - b.value))
    # plain cross-entropy of zero logits: PlainCE over a head of identity rows
    exact = all(
        losses.evaluate(losses.PlainCE(), eye_head(K), np.zeros((1, K)),
                        np.zeros(1, dtype=int)).value
        == math.log(K)
        for K in (2, 10, 47))
    report(3, worst <= 1e-12 and exact,
           f"(margin/norm-scaled worst gap {worst:.2e}, ln K exact: {exact})")


def test_criterion_4_gradient_suite():
    t0 = time.time()
    w = make_simplex(10)
    kinds = [losses.PlainCE(), losses.FixedSoftmax(), losses.NormScaled(30.0),
             losses.AngularMargin(30.0, w.phi)]
    worst_loss = 0.0
    for kind in kinds:
        for f, y in itertools.islice(well_conditioned_batches(kind, w, 4, 44), 20):
            worst_loss = max(worst_loss, grad_check(kind, w, f, y))
            assert worst_loss < 1e-5, f"{kind} grad check {worst_loss:.2e}"

    worst_model = 0.0
    for kind in [losses.PlainCE(), losses.FixedSoftmax(),
                 losses.NormScaled(30.0), losses.AngularMargin(30.0, 0.5)]:
        models = resolvable_models(kind, make_simplex(4), seed_offset=500)
        for model, x, y in itertools.islice(models, 20):
            worst_model = max(worst_model,
                              full_model_grad_check(model, x, y, kind))
            assert worst_model < 1e-5
    elapsed = time.time() - t0
    report(4, elapsed < 30.0,
           f"(loss grads {worst_loss:.2e}, full model {worst_model:.2e}, "
           f"{elapsed:.1f}s)")


def test_criterion_5_desk_scale_geometry():
    t0 = time.time()
    w = make_simplex(10)
    blobs = data.make_blobs(10, 9, 200, 1.0, 6.0, seed=7)
    hidden = [64, 9]
    model = network.init_model(9, hidden, w, seed=8)
    cfg = network.TrainConfig(loss=losses.AngularMargin(30.0, w.phi),
                              epochs=50, seed=9,
                              batch_size=64, lr=0.005)
    model, _ = network.train(model, blobs, cfg)
    feats, _ = network.forward(model, blobs.inputs)
    preds = network.predict(model, blobs.inputs)
    rep = metrics.geometry_report(w, feats, blobs.labels, preds)
    max_angle = max(c.mean_angle_to_weight for c in rep.per_class)
    elapsed = time.time() - t0
    ok = (max_angle < w.phi / 4.0
          and rep.min_pairwise_mean_angle > 0.9 * w.phi
          and elapsed < 120.0)
    report(5, ok,
           f"(max class angle {max_angle:.3f} < {w.phi / 4:.3f}, separation "
           f"{rep.min_pairwise_mean_angle:.3f} > {0.9 * w.phi:.3f}, "
           f"{elapsed:.1f}s)")


def test_criterion_6_mnist_desk_scale():
    paths = mnist_paths()
    if paths is None:
        pytest.skip("MNIST IDX files not present (set POLYHEAD_MNIST_DIR)")
    t0 = time.time()
    train_set = data.load_idx(paths["train_images"], paths["train_labels"])
    train_set = data.LabeledBatch(train_set.inputs[:10_000],
                                  train_set.labels[:10_000])
    test_set = data.load_idx(paths["test_images"], paths["test_labels"])
    accs = {}
    for kind in PolytopeKind:
        w = make_weights(kind, 10)
        hidden = [256, w.dim]
        model = network.init_model(784, hidden, w, seed=11)
        cfg = network.TrainConfig(loss=losses.AngularMargin(30.0, w.phi),
                                  epochs=10, seed=12,
                                  batch_size=512, lr=0.0005)
        model, _ = network.train(model, train_set, cfg)
        preds = network.predict(model, test_set.inputs)
        accs[kind.value] = metrics.accuracy(preds, test_set.labels)
    elapsed = time.time() - t0
    ok = all(a >= 0.95 for a in accs.values()) and elapsed < 600.0
    report(6, ok, f"(test accuracies {accs}, {elapsed:.0f}s)")


def test_criterion_7_frozen_head_invariant():
    w = make_orthoplex(2, dim=2)
    blobs = data.make_blobs(2, 2, 60, 1.0, 6.0, seed=1)
    cfg = network.TrainConfig(loss=losses.AngularMargin(30.0, w.phi),
                              epochs=10, seed=201,
                              batch_size=32, lr=0.005)
    fixed = network.init_model(2, [8, 2], w, seed=101)
    fixed, _ = network.train(fixed, blobs, cfg)
    frozen_ok = np.array_equal(fixed.head.rows, w.rows)

    trainable = network.init_model(2, [8, 2], w, seed=101, trainable=True)
    before = trainable.head.rows.copy()
    trainable, _ = network.train(trainable, blobs, cfg)
    moved = not np.array_equal(trainable.head.rows, before)
    report(7, frozen_ok and moved,
           f"(fixed rows bit-identical: {frozen_ok}, trainable rows moved: "
           f"{moved})")


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "seed": 5, "epochs": 5, "batch_size": 64, "lr": 0.005,
        "hidden_widths": [16],
        "loss": {"kind": "angular_margin", "kappa": 30.0, "m": "max"},
        "classifier": {"kind": "simplex", "classes": 4},
        "dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 50,
                    "spread": 1.0, "separation": 6.0, "seed": 6},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for run in ("a", "b"):
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / run)])
        assert code == 0
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("checkpoint.json", "epochs.csv", "geometry.json", "features.csv"))
    report(8, identical, "(checkpoints and logs byte-identical)")


def test_criterion_9_idx_loader(tmp_path):
    paths = emnist_paths()
    if paths is not None:
        batch = data.load_idx(*paths, emnist=True)
        ok = len(batch) == 112_800 and batch.labels.max() == 46
        report(9, ok, f"(EMNIST balanced N={len(batch)}, "
                      f"K={batch.labels.max() + 1})")
        return
    # synthetic fallback: bit-exact header round trip
    rng = np.random.default_rng(99)
    original = data.LabeledBatch(
        rng.integers(0, 256, size=(30, 28 * 28)).astype(float) / 255.0,
        rng.integers(0, 10, 30))
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx(original, img, lab, rows=28, cols=28)
    again = data.load_idx(img, lab)
    ok = (np.abs(again.inputs - original.inputs).max() <= 1.0 / 255.0
          and np.array_equal(again.labels, original.labels)
          and again.inputs.shape == (30, 784))
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00" * 16)
    try:
        data.load_idx(bad, lab)
        ok = False
    except data.IdxFormatError:
        pass
    report(9, ok, "(synthetic IDX round trip; EMNIST files not present)")
