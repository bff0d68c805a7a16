import copy
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polyhead import losses, network, polytope
from polyhead.data import LabeledBatch, batches, make_blobs
from polyhead.network import (AdamState, CacheError, TrainConfig, adam_step,
                              backward, classify, embed, forward, init_model,
                              parameters, predict, score_blocks, train)
from polyhead.polytope import ClassifierWeights, make_cube, make_orthoplex, make_simplex
from reference import (adam_reference, backward_reference, bits, eye_head,
                       full_model_grad_check, naive_forward, prelu_reference,
                       resolvable_models, traced_peak, train_reference, usable_cpus)

# PReLU slopes in [-2, 2], with 0, -0 and 1 as draws of their own, and the
# pre-activations planted through a zero weight row's bias: zeros and subnormals
PRELU_SLOPES = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0))
PLANTED_PRE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])


@st.composite
def prelu_cases(draw):
    """(model, x, grad_features): one to three layers whose units have drawn
    slopes and mixed-sign biases.  A drawn subset of each layer's units has
    a zero weight row and a planted bias, so that unit's pre-activation is
    the planted value on every row.  A fifth of grad_features is zero."""
    rows = draw(st.sampled_from([1, 513]) | st.integers(1, 40))
    input_dim = draw(st.integers(1, 8))
    widths = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    model = init_model(input_dim, widths, eye_head(widths[-1]), seed=seed)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        width = len(layer.b)
        layer.slope = np.array(draw(st.lists(PRELU_SLOPES, min_size=width,
                                             max_size=width)))
        layer.b = rng.normal(size=width)
        planted = rng.random(width) < 0.3
        count = int(planted.sum())
        layer.w[planted] = 0.0
        layer.b[planted] = draw(st.lists(PLANTED_PRE, min_size=count, max_size=count))
    x = rng.normal(size=(rows, input_dim))
    grad = rng.normal(size=(rows, widths[-1]))
    grad[rng.random(grad.shape) < 0.2] = 0.0
    return model, x, grad


def equal_but_for_zero_signs(actual, expected):
    """Equal in value, and bit for bit wherever the value is not zero."""
    nonzero = actual != 0
    return (np.array_equal(actual, expected)
            and bits(actual[nonzero]) == bits(expected[nonzero]))


def layer_outputs(feats, cache):
    """Each layer's PReLU output: the next layer's input, the features last."""
    return [act for act, _ in cache[1:]] + [feats]


class TestInit:
    def test_same_seed_identical(self):
        w = make_simplex(4)
        a = init_model(6, [5, 3], w, seed=11)
        b = init_model(6, [5, 3], w, seed=11)
        for pa, pb in zip(parameters(a), parameters(b)):
            assert np.array_equal(pa, pb)

    def test_he_variance(self):
        w = make_simplex(11)
        model = init_model(784, [256, 10], w, seed=0)
        var = model.layers[0].w.var()
        assert abs(var - 2.0 / 784) < 0.2 * (2.0 / 784)

    def test_fixed_head_copied_exactly(self):
        w = make_simplex(10)
        model = init_model(4, [4, 9], w, seed=1)
        assert np.array_equal(model.head.rows, w.rows)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            init_model(4, [4, 7], make_simplex(10), seed=0)

    @pytest.mark.parametrize("widths", [[10 ** 9, 2], [2, 10 ** 9, 2], [10 ** 400, 2]],
                             ids=["first", "inner", "beyond_float"])
    def test_huge_width_raises_before_any_draw(self, widths):
        with pytest.raises(ValueError, match=re.escape(f"hidden widths {widths} on 3 "
                                                       "inputs need more than "
                                                       "MAX_MODEL_ENTRIES")):
            init_model(3, widths, make_orthoplex(4), seed=0)

    def test_weight_bound_is_inclusive(self, monkeypatch):
        # 3 x 5 + 5 x 2 = 25 weight entries; biases and slopes do not count
        monkeypatch.setattr(network, "MAX_MODEL_ENTRIES", 25)
        init_model(3, [5, 2], make_orthoplex(4), seed=3)
        monkeypatch.setattr(network, "MAX_MODEL_ENTRIES", 24)
        with pytest.raises(ValueError, match="MAX_MODEL_ENTRIES"):
            init_model(3, [5, 2], make_orthoplex(4), seed=3)

    def test_biases_zero_slopes_quarter(self):
        model = init_model(3, [5, 2], make_simplex(3), seed=2)
        for layer in model.layers:
            assert np.all(layer.b == 0.0)
            assert np.all(layer.slope == 0.25)


class TestForward:
    def test_zero_input_zero_features(self):
        model = init_model(4, [6, 2], make_simplex(3), seed=3)
        feats, _ = forward(model, np.zeros((2, 4)))
        assert np.all(feats == 0.0)

    def test_identity_layer_positive_inputs(self):
        model = init_model(3, [3], make_simplex(4), seed=4)
        model.layers[0].w = np.eye(3)
        x = np.abs(np.random.default_rng(5).normal(size=(4, 3))) + 0.1
        feats, _ = forward(model, x)
        assert np.allclose(feats, x, atol=0)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(6)
        model = init_model(5, [4, 3], make_simplex(4), seed=7)
        x = rng.normal(size=(6, 5))
        feats, _ = forward(model, x)
        assert np.abs(feats - naive_forward(model, x)).max() < 1e-12

    def test_shape_mismatch(self):
        model = init_model(5, [4, 3], make_simplex(4), seed=8)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 6)))

    @pytest.mark.parametrize("rows", [1, 2, 513, 1537])
    def test_every_array_is_c_contiguous(self, rows):
        # norms over axis 1 and backward's sums over axis 0 add up in an order
        # that follows the layout: a transposed view would change their bits
        model = init_model(12, [16, 3], make_simplex(4), seed=9)
        x = np.random.default_rng(rows).normal(size=(rows, 12))
        feats, cache = forward(model, x)
        arrays = [feats] + [a for entry in cache for a in entry]
        assert all(a.flags.c_contiguous for a in arrays)

    @pytest.mark.parametrize("rows", [1, 513, 1537])
    def test_paper_shape_matches_vectorized_reference(self, rows):
        # to a tolerance, not to the bit: the product's two layouts round
        # alike at most shapes, not at all of them
        model = init_model(784, [256, 9], make_simplex(10), seed=10)
        for layer in model.layers:
            layer.b = np.random.default_rng(11).normal(size=layer.b.shape)
        x = np.random.default_rng(rows).random((rows, 784))
        ref = x
        for layer in model.layers:
            ref = prelu_reference(ref @ layer.w.T + layer.b, layer.slope)
        assert np.abs(forward(model, x)[0] - ref).max() < 1e-12

    @settings(max_examples=60)
    @given(case=prelu_cases())
    def test_prelu_matches_the_per_entry_choice(self, case):
        # a zero output may differ in sign: where slope * pre is -0 (a slope
        # of 0, or a product that underflows), forward adds max(pre, 0) = +0
        model, x, _ = case
        feats, cache = forward(model, x)
        for layer, (_, pre), act in zip(model.layers, cache, layer_outputs(feats, cache)):
            planted = ~layer.w.any(axis=1)
            assert (pre[:, planted] == layer.b[planted]).all()
            assert equal_but_for_zero_signs(act, prelu_reference(pre, layer.slope))

    @settings(max_examples=30)
    @given(case=prelu_cases())
    def test_prelu_leaves_the_cached_pre_activations(self, case):
        # backward reads each pre: a PReLU written into it would hand backward
        # the outputs instead
        model, x, _ = case
        feats, cache = forward(model, x)
        for layer, (act, pre), out in zip(model.layers, cache, layer_outputs(feats, cache)):
            assert not np.shares_memory(pre, out) and not np.shares_memory(pre, feats)
            assert bits(pre) == bits(np.add((layer.w @ act.T).T, layer.b))


class TestBackward:
    def test_full_model_finite_difference_margin(self):
        rng = np.random.default_rng(9)
        w = make_simplex(4)
        model = init_model(6, [4, 3], w, seed=10)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 4, 5)
        kind = losses.AngularMargin(30.0, w.phi)
        assert full_model_grad_check(model, x, y, kind) < 1e-5

    @pytest.mark.parametrize("kind", [losses.PlainCE(), losses.FixedSoftmax(),
                                      losses.NormScaled(30.0),
                                      losses.AngularMargin(30.0, 0.5)])
    def test_all_loss_kinds_multi_seed(self, kind):
        # seeds with a saturated softmax, whose gradient sits below what
        # finite differences resolve, are skipped
        models = resolvable_models(kind, make_simplex(4), seed_offset=100)
        for model, x, y in itertools.islice(models, 20):
            assert full_model_grad_check(model, x, y, kind) < 1e-5

    # seed 11 for each kind but NormScaled, whose per-sample loss there is
    # 1.7e-9: gradients of a saturated softmax sit below what central
    # differences resolve, so it runs on seed 13, its first unsaturated one
    @pytest.mark.parametrize("kind,seed", [
        (losses.PlainCE(), 11), (losses.FixedSoftmax(), 11),
        (losses.NormScaled(30.0), 13), (losses.AngularMargin(30.0, 0.5), 11)],
        ids=["plain_ce", "fixed_softmax", "norm_scaled", "angular_margin"])
    def test_trainable_head_gradients(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = init_model(5, [4, 3], make_simplex(4), seed=seed + 1, trainable=True)
        x = rng.normal(size=(3, 5))
        y = rng.integers(0, 4, 3)
        feats, _ = forward(model, x)
        assert losses.evaluate(kind, model.head, feats, y).per_sample.min() > 1e-6
        assert full_model_grad_check(model, x, y, kind) < 1e-5

    @settings(max_examples=60)
    @given(case=prelu_cases())
    def test_prelu_factor_matches_the_per_entry_choice(self, case):
        # neg * slope + ~neg is np.where(neg, slope, 1.0) except on a negative
        # entry whose slope is -0, where -0 + 0 gives +0.  So grad_pre can
        # differ only in the sign of a zero, and so can every later result: a
        # zero of either sign times a finite number is a zero, and added to a
        # nonzero partial sum leaves that sum's bits as they were
        model, x, grad = case
        _, cache = forward(model, x)
        for got, want in zip(backward(model, cache, grad),
                             backward_reference(model, cache, grad), strict=True):
            assert equal_but_for_zero_signs(got, want)

    def test_dead_unit_zero_slope_kills_gradient(self):
        model = init_model(2, [2, 1], make_simplex(2), seed=13)
        # first-layer unit 0 always negative pre-activation, slope 0
        model.layers[0].w = np.array([[-1.0, -1.0], [1.0, 1.0]])
        model.layers[0].b = np.array([-5.0, 0.0])
        model.layers[0].slope = np.array([0.0, 0.25])
        x = np.abs(np.random.default_rng(14).normal(size=(4, 2)))
        feats, cache = forward(model, x)
        grads = backward(model, cache, np.ones_like(feats))
        # second-layer weight feeding from the dead unit gets zero gradient
        assert np.all(grads[3][:, 0] == 0.0)

    def test_duplicated_batch_equals_single_sample(self):
        rng = np.random.default_rng(15)
        w = make_simplex(3)
        model = init_model(4, [3, 2], w, seed=16)
        x1 = rng.normal(size=(1, 4))
        y1 = np.array([1])
        xN = np.repeat(x1, 6, axis=0)
        yN = np.repeat(y1, 6)

        def grads_for(x, y):
            feats, cache = forward(model, x)
            res = losses.evaluate(losses.FixedSoftmax(), w, feats, y)
            return backward(model, cache, res.grad_features)

        g1, gN = grads_for(x1, y1), grads_for(xN, yN)
        for a, b in zip(g1[::3], gN[::3]):  # each layer's w
            assert np.allclose(a, b, atol=1e-12)

    def test_stale_cache(self):
        model = init_model(4, [3, 2], make_simplex(3), seed=17)
        _, cache = forward(model, np.zeros((2, 4)))
        with pytest.raises(CacheError):
            backward(model, cache[:1], np.zeros((2, 2)))


class TestAdam:
    def test_zero_gradient_no_change(self):
        model = init_model(3, [3, 2], make_simplex(3), seed=18)
        before = [p.copy() for p in parameters(model)]
        _, cache = forward(model, np.zeros((1, 3)))
        zero = backward(model, cache, np.zeros((1, 2)))
        for g in zero:
            g[:] = 0.0
        state = AdamState(lr=0.1)
        adam_step(model, zero, state)
        assert state.t == 1
        for p, q in zip(parameters(model), before):
            assert np.array_equal(p, q)

    def test_first_step_hand_computed(self):
        # at t=1, update = -lr * g / (|g| + eps) per coordinate
        model = init_model(2, [2], make_orthoplex(4), seed=19)
        w_before = model.layers[0].w.copy()
        g = np.array([[0.5, -2.0], [1e-3, 0.0]])
        grads = [g, np.zeros(2), np.zeros(2)]
        state = AdamState(lr=0.01)
        adam_step(model, grads, state)
        m_hat = g  # (1-b1)g / (1-b1)
        v_hat = g * g
        expected = w_before - 0.01 * m_hat / (np.sqrt(v_hat) + network.ADAM_EPS)
        assert np.allclose(model.layers[0].w, expected, atol=1e-15)
        # at t=2, Kingma & Ba (arXiv 1412.6980) Algorithm 1: both moments decay
        # at their own rate and are divided by 1 - beta^2
        b1, b2 = network.ADAM_BETA1, network.ADAM_BETA2
        w_first = model.layers[0].w.copy()
        g2 = np.array([[-1.0, 3.0], [2e-3, 0.5]])
        adam_step(model, [g2, np.zeros(2), np.zeros(2)], state)
        m = b1 * (1 - b1) * g + (1 - b1) * g2
        v = b2 * (1 - b2) * g * g + (1 - b2) * g2 * g2
        m_hat, v_hat = m / (1 - b1 ** 2), v / (1 - b2 ** 2)
        expected = w_first - 0.01 * m_hat / (np.sqrt(v_hat) + network.ADAM_EPS)
        assert state.t == 2
        assert np.allclose(model.layers[0].w, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("grads_of, message", [
        (lambda model, cache, res: backward(model, cache, res.grad_features,
                                            res.grad_weights)[:-1],
         "gradient/parameter count mismatch"),
        (lambda model, cache, res: backward(model, cache, res.grad_features,
                                            res.grad_weights)[:-1] + [np.zeros(7)],
         re.escape("gradient shape (7,) != parameter (4, 2)")),
        (lambda model, cache, res: backward(model, cache, res.grad_features),
         "a trainable head requires its grad_rows"),
    ], ids=["count", "shape", "grad_rows"])
    def test_a_refused_step_moves_nothing(self, grads_of, message):
        # the last gradient, the trainable head's, is the one that is wrong
        model = init_model(3, [4, 2], make_orthoplex(4), seed=24, trainable=True)
        rng = np.random.default_rng(25)
        feats, cache = forward(model, rng.normal(size=(5, 3)))
        res = losses.evaluate(losses.PlainCE(), model.head, feats, rng.integers(0, 4, 5))
        before = [bits(p) for p in parameters(model)]
        state = AdamState(lr=0.1)
        with pytest.raises(ValueError, match=message):
            adam_step(model, grads_of(model, cache, res), state)
        assert [bits(p) for p in parameters(model)] == before
        assert (state.t, state.m, state.v) == (0, [], [])

    @pytest.mark.parametrize("trainable", [False, True], ids=["fixed", "trainable"])
    def test_six_steps_follow_the_reference(self, trainable):
        model = init_model(3, [5, 3], make_orthoplex(6), seed=26, trainable=trainable)
        start = [p.copy() for p in parameters(model)]
        rng = np.random.default_rng(27)
        # gradients of mixed sign and of scales from 1e-3 to 10, new at each step
        steps = [[rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 2, p.shape)
                  for p in start] for _ in range(6)]
        state = AdamState(lr=0.01)
        for grads in steps:
            adam_step(model, grads, state)
        params, m, v, t = adam_reference(start, steps, 0.01)
        assert state.t == t == 6
        for actual, expected in ((parameters(model), params), (state.m, m), (state.v, v)):
            assert len(actual) == len(expected) == len(start)
            for a, e in zip(actual, expected):
                np.testing.assert_allclose(a, e, rtol=1e-12, atol=0)

    def test_fixed_head_untouched(self):
        w = make_simplex(3)
        model = init_model(3, [3, 2], w, seed=20)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, 4)
        feats, cache = forward(model, x)
        res = losses.evaluate(losses.FixedSoftmax(), w, feats, y)
        grads = backward(model, cache, res.grad_features)
        before = model.head.rows.copy()
        adam_step(model, grads, AdamState(lr=0.1))
        assert np.array_equal(model.head.rows, before)
        assert np.array_equal(model.head.rows, w.rows)


class TestPredict:
    def test_exact_weight_match(self):
        w = make_simplex(5)
        model = init_model(4, [4], w, seed=22)
        model.layers[0].w = np.eye(4)
        model.layers[0].slope = np.ones(4)  # identity backbone
        x = w.rows[3][None, :]
        assert predict(model, x)[0] == 3
        assert classify(w, forward(model, x)[0])[0] == 3

    def test_tie_break_lowest_index(self):
        w = make_orthoplex(4)
        model = init_model(2, [2], w, seed=23)
        model.layers[0].w = np.eye(2)
        model.layers[0].b = np.zeros(2)
        # feature equidistant between w_0=+e1 and w_2=+e2
        x = np.array([[1.0, 1.0]])
        assert predict(model, x)[0] == 0
        assert classify(w, forward(model, x)[0])[0] == 0

    def test_zero_trainable_row_is_an_error(self):
        model = init_model(2, [2], make_simplex(3), seed=26, trainable=True)
        model.head.rows[1] = 0.0  # has no direction to compare against
        with pytest.raises(losses.DegenerateFeatureError):
            predict(model, np.ones((1, 2)))
        with pytest.raises(losses.DegenerateFeatureError):
            classify(model.head, np.ones((1, 2)))

    def test_matches_brute_force_cosine(self):
        rng = np.random.default_rng(24)
        w = make_cube(6)
        model = init_model(5, [4, 3], w, seed=25)
        x = rng.normal(size=(8, 5))
        preds = predict(model, x)
        feats, _ = forward(model, x)
        assert np.array_equal(classify(w, feats), preds)
        for n in range(8):
            best, best_cos = 0, -2.0
            fn = feats[n] / max(np.linalg.norm(feats[n]), 1e-300)
            for j in range(w.num_classes):
                c = float(fn @ w.rows[j])
                if c > best_cos + 1e-15:
                    best, best_cos = j, c
            assert preds[n] == best


# Row counts that embed's checks run, around one, two and three blocks
EMBED_ROWS = (1, 767, 768, 769, 1535, 1536, 1537, 2304, 10000)
# Those of them that make two blocks or more, where embed may start a thread
SHARED_ROWS = tuple(n for n in EMBED_ROWS if len(score_blocks(n)) > 1)


def block_models(rng):
    """The paper-shape and many-class backbones, fixed and trainable, with
    nonzero biases."""
    for input_dim, widths, head in ((784, [256, 9], make_simplex(10)),
                                    (32, [64, 10], make_cube(1000))):
        for trainable in (False, True):
            model = init_model(input_dim, widths, head, seed=29, trainable=trainable)
            for layer in model.layers:
                layer.b = rng.normal(size=layer.b.shape)
            yield model


def check_block_bits():
    """Asserts that each block of ``score_blocks`` has the bits of the same
    rows of the whole product, that ``classify`` is the whole product's
    argmax, and that ``embed`` on one CPU, and on two for ``SHARED_ROWS``,
    has the bits of one full-set ``forward`` on each of ``block_models``.
    The (300, 299) head fails it with SCORE_BLOCK_ROWS = 1024, and the
    (47, 46) and (300, 299) heads fail it at N = 1538 if the last two rows
    are a block of their own."""
    rng = np.random.default_rng(27)
    for head in (make_simplex(10), make_simplex(47), make_cube(1000), make_simplex(300)):
        for n in (1, 2, 1536, 1537, 1538, 3073, 10001):
            f = rng.normal(size=(n, head.dim))
            whole = f @ head.rows.T
            for start, stop in score_blocks(n):
                assert np.array_equal(f[start:stop] @ head.rows.T, whole[start:stop]), \
                    (head.num_classes, head.dim, n, start, stop)
            assert np.array_equal(classify(head, f), np.argmax(whole, axis=1))
    for model in block_models(rng):
        for n in EMBED_ROWS:
            x = rng.normal(size=(n, model.input_dim))
            whole = forward(model, x)[0]
            for cpus in (1, 2) if n in SHARED_ROWS else (1,):
                with usable_cpus(cpus):
                    assert np.array_equal(embed(model, x), whole), \
                        (model.input_dim, model.head.trainable, n, cpus)


def check_concurrent_bits(repeats=3):
    """Asserts that ``embed`` of ``SHARED_ROWS`` rows on two and on eight CPUs,
    run ``repeats`` times, has the bits of ``embed`` on one, on each of
    ``block_models``, while the interpreter switches threads every microsecond."""
    rng = np.random.default_rng(31)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for model in block_models(rng):
            for n in SHARED_ROWS:
                x = rng.normal(size=(n, model.input_dim))
                with usable_cpus(1):
                    serial = bits(embed(model, x))
                for cpus, _ in itertools.product((2, 8), range(repeats)):
                    with usable_cpus(cpus):
                        assert bits(embed(model, x)) == serial, \
                            (model.input_dim, model.head.trainable, n, cpus)
    finally:
        sys.setswitchinterval(interval)


# Batch sizes of the step checks: the first four split the 784 -> 256 layer's
# forward on two CPUs, the last three (not a multiple of 8, or too few rows) do not
SPLIT_BATCHES = (512, 272, 264, 136)
WHOLE_BATCHES = (500, 129, 3)


def step_models(seed):
    """784 -> 256 -> 9 on simplex-10 and 784 -> 256 -> 46 on simplex-47, fixed and
    trainable, each with its config's loss."""
    for classes in (10, 47):
        head = make_simplex(classes)
        for trainable in (False, True):
            yield (init_model(784, [256, classes - 1], head, seed=seed, trainable=trainable),
                   losses.AngularMargin(30.0, head.phi))


def images(rows, classes, seed):
    """``rows`` synthetic images of 784 pixels in [0, 1] with labels in [0, classes)."""
    rng = np.random.default_rng(seed)
    return LabeledBatch(rng.integers(0, 256, (rows, 784)) / 255.0,
                        rng.integers(0, classes, rows))


def split_parts(run):
    """The count of ``_in_turn``'s calls with two parts while ``run()`` runs, and
    what it returned."""
    calls = []
    in_turn = network._in_turn

    def recorded(work, parts):
        calls.append(len(parts))
        in_turn(work, parts)

    with mock.patch.object(network, "_in_turn", recorded):
        result = run()
    return calls.count(2), result


def check_step_bits():
    """Asserts that ``train`` on one, two and 64 CPUs gives the same parameters,
    epoch log, Adam moments and ``embed`` features, bit for bit, and the bits of
    ``train_reference``'s unsplit loop, whose Adam steps ``adam_reference``
    replays to 1e-12 of each array's largest entry.  Each config trains for two
    epochs: every one of ``step_models`` at batch 512, and the fixed simplex-10 and
    trainable simplex-47 ones at every batch size of SPLIT_BATCHES and
    WHOLE_BATCHES (a head's rows are too few to split).  The first model at batch
    512 trains on 3,000 synthetic images; the rest, to keep the check within
    seconds, on the first b + 8 of them, one full batch and an 8-row one an epoch.
    On two CPUs or more each step splits its 784 -> 256 layer's weight gradient
    and Adam update, and its forward when the batch's row count is a multiple of 8
    from 128.
    The splits that ``_halves`` leaves whole are those that changed bits in
    sweeps with one BLAS thread (OpenBLAS 0.3.31, 2-vCPU Xeon): the 784 -> 256
    product split at n // 2 rows broke them at 801 of the row counts 2 to 1,099;
    with the split point the multiple of 8 at or below half, at 161 counts from
    193 to 375 rows, none a multiple of 8; the 256 -> 9 product, split so, at
    every multiple of 8 from 136 to 264 rows (halves of 64 to 136 rows); and the
    weight gradient split by units, on 795 input widths from 193 to 1,100, none
    a multiple of 8.  Aligned splits of multiples of 8 from 128 to 2,048 rows
    kept the bits of nine layers of 2^16 entries or more (256 x 784 among them),
    and of five narrow ones as large (9 x 8,192 to 46 x 1,500)."""
    for index, (start, loss) in enumerate(step_models(43)):
        head = start.head
        data = images(3000, head.num_classes, 44)
        for batch_size in SPLIT_BATCHES + WHOLE_BATCHES if index in (0, 3) else (512,):
            rows = 3000 if index == 0 and batch_size == 512 else batch_size + 8
            subset = LabeledBatch(data.inputs[:rows], data.labels[:rows])
            config = TrainConfig(loss, epochs=2, seed=45, batch_size=batch_size, lr=5e-4)
            where = (head.num_classes, head.trainable, batch_size)
            models = [copy.deepcopy(start) for _ in range(4)]
            first = [p.copy() for p in parameters(start)]
            log, state, steps = train_reference(models[0], subset, config)
            params, m, v, _ = adam_reference(first, steps, config.lr)
            for a, e in zip(parameters(models[0]) + state.m + state.v, params + m + v,
                            strict=True):  # m crosses zero
                assert (abs(a - e) <= 1e-12 * (abs(e) + abs(e).max())).all(), where
            with usable_cpus(1):
                expected = ([bits(p) for p in parameters(models[0])], log,
                            [bits(a) for a in state.m + state.v],
                            bits(embed(models[0], subset.inputs)))
            # a step splits its weight gradient, Adam's first weights and the
            # forward of a batch of a multiple of 8 rows, with 64 in each half
            sizes = [len(b) for e in range(2) for b in batches(subset, batch_size, 45, e)]
            parts = sum(3 if n % 8 == 0 and n >= 128 else 2 for n in sizes)
            for cpus, model in zip((1, 2, 64), models[1:]):
                states = []

                def step(model, grads, state):
                    states.append(state)
                    adam_step(model, grads, state)

                with usable_cpus(cpus), mock.patch.object(network, "adam_step", step):
                    split, (_, got_log) = split_parts(lambda: train(model, subset, config))
                    got = ([bits(p) for p in parameters(model)], got_log,
                           [bits(a) for a in states[0].m + states[0].v],
                           bits(embed(model, subset.inputs)))
                assert got == expected, (*where, cpus)
                assert split == (parts if cpus > 1 else 0), (*where, cpus, split)


def check_concurrent_train():
    """Asserts that two Python threads, each training its own paper-shape model at
    once on two CPUs, get the bits of training it on one, while the interpreter
    switches threads every microsecond: the one that finds the worker busy runs
    its step on its own thread."""
    start, loss = next(step_models(46))
    data = images(512, start.head.num_classes, 47)
    config = TrainConfig(loss, epochs=2, seed=48, batch_size=256, lr=5e-4)
    serial = copy.deepcopy(start)
    with usable_cpus(1):
        log = train(serial, data, config)[1]
    models = [copy.deepcopy(start) for _ in range(2)]
    logs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with usable_cpus(2):
            threads = [threading.Thread(target=lambda i=i: logs.update({i: train(
                models[i], data, config)[1]})) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert logs == {0: log, 1: log}
    for model in models:
        assert [bits(p) for p in parameters(model)] == [bits(p) for p in parameters(serial)]


def check_training_bits():
    check_step_bits()
    check_concurrent_train()


def run_check(check: str, blas_threads: int) -> None:
    """Runs ``check`` of this module in a fresh interpreter whose BLAS has
    ``blas_threads`` threads, read when numpy is first imported."""
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(Path(network.__file__).parents[1]),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", f"import test_network; test_network.{check}()"],
                          cwd=Path(__file__).parent, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestScoreBlocks:
    def test_blocks_keep_the_whole_products_bits(self):
        # a BLAS with several threads splits a product among them by its
        # shape, so the bits are pinned with one thread, as the benchmark runs
        run_check("check_block_bits", 1)

    def test_concurrent_embed_keeps_the_serial_bits(self):
        # at two BLAS threads, where a product's bits are the BLAS's split of it
        run_check("check_concurrent_bits", 2)

    @pytest.mark.parametrize("rows,cpus,blas_threads", [
        (767, 2, "1"), (767, 8, "1"), (10000, 1, "1"), (10000, 2, "2"), (10000, 2, None)])
    def test_one_share_starts_no_thread(self, monkeypatch, rows, cpus, blas_threads):
        # a one-share embed stays on the caller's thread, as the bench's
        # traced tiny runs need; over a threaded BLAS, or one whose thread count
        # is not set, two callers would oversubscribe the CPUs
        model = init_model(32, [64, 10], make_cube(1000), seed=29)
        seen = []

        def recorded(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return forward(*args)

        monkeypatch.setattr(network, "forward", recorded)
        before = threading.active_count()
        with usable_cpus(cpus, blas_threads):
            embed(model, np.ones((rows, 32)))
        assert seen == [(threading.get_ident(), before)] * len(score_blocks(rows))

    def test_training_keeps_the_unsplit_bits(self):
        # serial and concurrent training in one interpreter, which takes half a
        # second to start
        run_check("check_training_bits", 1)

    @pytest.mark.parametrize("cpus,blas_threads", [(1, "1"), (2, "2"), (2, None)])
    def test_one_share_runs_every_step_part_on_the_caller(self, monkeypatch, cpus,
                                                          blas_threads):
        # one paper-shape train step, whose first layer splits on two CPUs over
        # a one-thread BLAS
        start, loss = next(step_models(49))
        data = images(512, 10, 50)
        seen = []
        in_turn = network._in_turn

        def recorded(work, parts):
            def part_on_its_thread(part):
                seen.append((len(parts), threading.get_ident(), threading.active_count()))
                work(part)
            in_turn(part_on_its_thread, parts)

        monkeypatch.setattr(network, "_in_turn", recorded)
        before = threading.active_count()
        with usable_cpus(cpus, blas_threads):
            train(start, data, TrainConfig(loss, epochs=1, seed=51, batch_size=512, lr=5e-4))
        # two layers' forward and backward, and six parameters' Adam updates
        assert seen == [(1, threading.get_ident(), before)] * 10

    def test_embed_on_two_cpus_does_not_wait_for_itself(self):
        # each 768-row block's forward would split its 784 -> 256 layer, but the
        # blocks hold the worker, so each block runs whole on its own thread
        start, _ = next(step_models(52))
        x = images(3072, 10, 53).inputs
        with usable_cpus(1):
            serial = bits(embed(start, x))
        result = []
        with usable_cpus(2):
            thread = threading.Thread(
                target=lambda: result.append(split_parts(lambda: embed(start, x))),
                daemon=True)
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        split, feats = result[0]
        assert split == 0 and bits(feats) == serial

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_part_raises_after_both_shares_ended(self, failing):
        events = []

        def part(index):
            events.append(("start", index, threading.get_ident()))
            try:
                if index == failing:
                    raise RuntimeError(f"part {index}")
                time.sleep(0.05)
            finally:
                events.append(("end", index, threading.get_ident()))

        with usable_cpus(2):
            with pytest.raises(RuntimeError, match=f"^part {failing}$"):
                network._in_turn(part, [0, 1])
            assert sorted(event[:2] for event in events) == [
                ("end", 0), ("end", 1), ("start", 0), ("start", 1)]
            worker = {index: ident for _, index, ident in events}[1]
            assert worker != threading.get_ident()
            events.clear()
            network._in_turn(part, [2, 3])  # the next call still uses the worker
        assert {index: ident for _, index, ident in events} == {
            2: threading.get_ident(), 3: worker}

    @pytest.mark.parametrize("cpus", [2, 64])
    def test_shares_take_the_blocks_in_turn(self, monkeypatch, cpus):
        # two shares on any host: each holds one block's layer arrays, so the
        # memory does not grow with the CPU count
        model = init_model(5, [4, 3], make_simplex(4), seed=8)
        x = np.repeat(np.arange(3072.0)[:, None], 5, axis=1)  # blocks at 0, 768, 1536, 2304
        seen = []

        def recorded(model, rows):
            seen.append((int(rows[0, 0]), threading.get_ident()))
            return forward(model, rows)

        monkeypatch.setattr(network, "forward", recorded)
        with usable_cpus(cpus):
            feats = embed(model, x)
        threads = dict(seen)
        assert sorted(threads) == [0, 768, 1536, 2304]
        assert threads[0] == threads[1536] == threading.get_ident() != threads[768]
        assert threads[768] == threads[2304]
        assert np.array_equal(feats, forward(model, x)[0])

    @pytest.mark.parametrize("failing", range(4))
    def test_a_failing_block_raises_after_every_share_finished(self, monkeypatch,
                                                                failing):
        model = init_model(5, [4, 3], make_simplex(4), seed=8)
        x = np.repeat(np.arange(3072.0)[:, None], 5, axis=1)  # blocks at 0, 768, 1536, 2304
        events = []

        def slow_or_failing(model, rows):
            block = int(rows[0, 0]) // 768
            events.append(("start", block))
            try:
                if block == failing:
                    raise RuntimeError(f"block {block}")
                time.sleep(0.05)
                return forward(model, rows)
            finally:
                events.append(("end", block))

        with usable_cpus(2):
            embed(model, x)  # starts the worker, which the process keeps
        monkeypatch.setattr(network, "forward", slow_or_failing)
        before = threading.active_count()
        with usable_cpus(2), pytest.raises(RuntimeError, match=f"^block {failing}$"):
            embed(model, x)
        started = sorted(block for event, block in events if event == "start")
        assert sorted(block for event, block in events if event == "end") == started
        # the other share, the one without the failing block, ran all of its blocks
        assert {b for b in range(4) if b % 2 != failing % 2} <= set(started)
        assert threading.active_count() == before

    def test_blocks_cover_the_rows_in_order(self):
        for n in (0, 1, 767, 768, 1535, 1536, 2303, 2304, 10001):
            blocks = score_blocks(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(stop - start < network.SCORE_BLOCK_ROWS for start, stop in blocks)
            assert all(stop - start >= network.SCORE_BLOCK_ROWS // 2
                       for start, stop in blocks) or blocks == [(0, n)]

    def test_no_features(self):
        head = make_cube(8)
        preds = classify(head, np.empty((0, head.dim)))
        assert preds.dtype == np.intp and preds.shape == (0,)
        with pytest.raises(ValueError):  # the empty product still checks the width
            classify(head, np.empty((0, head.dim + 1)))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 6), (2000, 6), (2000, 4)])
    def test_embed_refuses_what_forward_refuses(self, shape):
        model = init_model(5, [4, 3], make_simplex(4), seed=8)
        with pytest.raises(ValueError) as refused:
            forward(model, np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            embed(model, np.zeros(shape))

    def test_embed_of_no_rows(self):
        model = init_model(5, [4, 3], make_simplex(4), seed=8)
        feats = embed(model, np.empty((0, 5)))
        assert feats.shape == (0, 3) and feats.flags.c_contiguous

    def test_peak_memory_is_one_block_of_scores(self):
        # the whole 10k x 1000 score matrix would be 80 MB
        head = make_cube(1000)
        f = np.random.default_rng(28).normal(size=(10000, head.dim))
        assert traced_peak(classify, head, f) < 1.1 * 1536 * 1000 * 8


class TestTrain:
    def _blob_setup(self, seed=1):
        # 2-D embedding: a 1-D one has an identically-zero normalization
        # Jacobian, so normalized losses cannot train there
        w = make_orthoplex(2, dim=2)
        blobs = make_blobs(2, 2, 60, 1.0, 6.0, seed=seed)
        model = init_model(2, [8, 2], w, seed=seed + 100)
        cfg = TrainConfig(loss=losses.AngularMargin(30.0, w.phi), epochs=20,
                          seed=seed + 200, batch_size=32,
                          lr=0.005)
        return w, blobs, model, cfg

    def test_separable_blobs_high_accuracy(self):
        w, blobs, model, cfg = self._blob_setup()
        model, log = train(model, blobs, cfg)
        assert log[-1].train_accuracy >= 0.99

    def test_same_seed_identical_logs(self):
        _, blobs, model_a, cfg = self._blob_setup()
        _, _, model_b, _ = self._blob_setup()
        _, log_a = train(model_a, blobs, cfg)
        _, log_b = train(model_b, blobs, cfg)
        for a, b in zip(log_a, log_b):
            assert a.mean_loss == b.mean_loss
            assert a.train_accuracy == b.train_accuracy

    def test_zero_lr_constant_loss(self):
        w, blobs, model, cfg = self._blob_setup()
        cfg.lr = 0.0
        cfg.epochs = 5
        _, log = train(model, blobs, cfg)
        base = log[0].mean_loss
        for row in log:
            assert abs(row.mean_loss - base) < 1e-12

    def test_loss_decreases_on_blobs(self):
        w, blobs, model, cfg = self._blob_setup(seed=5)
        cfg.epochs = 10
        cfg.lr = 0.0005  # slow enough that epoch 0 is far from converged
        _, log = train(model, blobs, cfg)
        assert log[9].mean_loss < log[0].mean_loss

    def test_frozen_head_bit_identical(self):
        w, blobs, model, cfg = self._blob_setup(seed=50)
        before = model.head.rows.copy()
        model, _ = train(model, blobs, cfg)
        assert np.array_equal(model.head.rows, before)

    def test_trainable_head_changes(self):
        blobs = make_blobs(2, 2, 40, 1.0, 6.0, seed=60)
        model = init_model(2, [4, 2], make_orthoplex(2, dim=2), seed=61,
                           trainable=True)
        before = model.head.rows.copy()
        cfg = TrainConfig(loss=losses.AngularMargin(30.0, 0.5), epochs=5,
                          seed=62, batch_size=32, lr=0.01)
        model, _ = train(model, blobs, cfg)
        assert not np.array_equal(model.head.rows, before)

    def test_accuracy_counted_before_the_step(self):
        # one batch per epoch: epoch 0 scores the initial model
        blobs = make_blobs(4, 3, 10, 1.0, 6.0, seed=63)
        model = init_model(3, [8, 3], make_simplex(4), seed=64, trainable=True)
        expected = float((predict(model, blobs.inputs) == blobs.labels).mean())
        cfg = TrainConfig(loss=losses.PlainCE(), epochs=1, seed=65,
                          batch_size=len(blobs), lr=0.5)
        _, log = train(model, blobs, cfg)
        assert log[0].train_accuracy == expected

    @pytest.mark.parametrize("batch_size, where", [
        (16, "loss nan at epoch 0 batch 1"),
        (40, "non-finite parameter after the step of epoch 0 batch 0"),
    ], ids=["loss", "last_step"])
    def test_divergence_names_epoch_and_batch(self, batch_size, where):
        # an infinite step size makes the parameters nan after one step;
        # with one batch only the check after the last step can see it
        blobs = make_blobs(4, 3, 10, 1.0, 6.0, seed=63)
        model = init_model(3, [8, 3], make_simplex(4), seed=64, trainable=True)
        cfg = TrainConfig(loss=losses.PlainCE(), epochs=1, seed=65,
                          batch_size=batch_size, lr=math.inf)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(network.DivergenceError, match=where):
            train(model, blobs, cfg)

    @pytest.mark.parametrize("trainable", [False, True])
    def test_two_epochs_equal_a_hand_loop_over_each_epochs_batches(self, trainable):
        blobs = make_blobs(3, 3, 20, 1.0, 6.0, seed=66)
        cfg = TrainConfig(loss=losses.AngularMargin(30.0, 0.4), epochs=2, seed=67,
                          batch_size=16, lr=0.01)
        model, hand = (init_model(3, [5, 2], make_simplex(3), seed=68,
                                  trainable=trainable) for _ in range(2))
        state, log = AdamState(lr=cfg.lr), []
        for epoch in range(cfg.epochs):
            loss_sum, correct = 0.0, 0
            for batch in batches(blobs, cfg.batch_size, cfg.seed, epoch):
                feats, cache = forward(hand, batch.inputs)
                res = losses.evaluate(cfg.loss, hand.head, feats, batch.labels)
                loss_sum += res.value * len(batch)
                correct += int((classify(hand.head, feats) == batch.labels).sum())
                adam_step(hand, backward(hand, cache, res.grad_features,
                                         res.grad_weights), state)
            log.append(network.EpochStats(epoch, loss_sum / len(blobs),
                                          correct / len(blobs)))
        _, trained_log = train(model, blobs, cfg)
        assert trained_log == log
        assert [bits(p) for p in parameters(model)] == [bits(p) for p in parameters(hand)]

    def test_label_overflow(self):
        w, blobs, model, cfg = self._blob_setup()
        blobs.labels[0] = 9
        with pytest.raises(losses.LabelError):
            train(model, blobs, cfg)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_a_label_out_of_range_is_refused_before_any_step(self, label):
        _, blobs, model, cfg = self._blob_setup()
        # the sample that the last batch of the first epoch draws
        last = np.random.default_rng([cfg.seed, 0]).permutation(len(blobs))[-1]
        blobs.labels[last] = label
        before = [bits(p) for p in parameters(model)]
        with pytest.raises(losses.LabelError, match=re.escape("labels must lie in [0, 2)")):
            train(model, blobs, cfg)
        assert [bits(p) for p in parameters(model)] == before


def same_header(a, b):
    return (a.kind, a.num_classes, a.dim, a.phi) == (b.kind, b.num_classes, b.dim, b.phi)


class TestCheckpoint:
    def test_round_trip_predictions_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        w = make_simplex(4)
        model = init_model(5, [6, 3], w, seed=71)
        x = rng.normal(size=(20, 5))
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path, extra={"note": 1})
        again = network.load_checkpoint(path)
        fa, _ = forward(model, x)
        fb, _ = forward(again, x)
        assert np.array_equal(fa, fb)
        assert np.array_equal(model.head.rows, again.head.rows)
        assert np.array_equal(predict(model, x), predict(again, x))

    def test_unknown_head_type_named(self):
        payload = network.model_to_dict(init_model(3, [4, 2], make_orthoplex(4), seed=73,
                                                   trainable=True))
        payload["head"]["type"] = "banana"
        with pytest.raises(polytope.StructuralError, match="unknown head type 'banana'"):
            network.model_from_dict(payload)

    def test_trainable_head_round_trip(self, tmp_path):
        head = ClassifierWeights(polytope.PolytopeKind.SIMPLEX, np.zeros((5, 2)),
                                 polytope.expected_angle(polytope.PolytopeKind.SIMPLEX, 2))
        model = init_model(3, [4, 2], head, seed=72, trainable=True)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        again = network.load_checkpoint(path)
        assert again.head.trainable
        assert np.array_equal(again.head.rows, model.head.rows)
        assert (again.head.kind, again.head.phi) == (head.kind, head.phi)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(list(polytope.PolytopeKind)), K=st.integers(2, 60),
           trainable=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_every_bit(self, tmp_path, kind, K, trainable, seed):
        weights = polytope.make_weights(kind, K)
        if not trainable:
            again = polytope.from_dict(polytope.to_dict(weights))
            assert same_header(again, weights)
            assert again.rows.tobytes() == weights.rows.tobytes()
            assert not again.rows.flags.writeable
        model = init_model(3, [4, weights.dim], weights, seed, trainable)
        # layer parameters drawn over most of the float64 exponent range; head
        # rows whose norms stay clear of the floor losses.unit_rows rejects
        rng = np.random.default_rng(seed)
        for layer in model.layers:
            for p in (layer.w, layer.b, layer.slope):
                p[...] = rng.normal(size=p.shape) * 10.0 ** rng.integers(-300, 300, p.shape)
        if trainable:
            model.head.rows[...] *= 10.0 ** rng.integers(-6, 6, model.head.rows.shape)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        again = network.load_checkpoint(path)
        assert again.input_dim == model.input_dim
        assert again.head.trainable is trainable
        assert again.head.rows.tobytes() == model.head.rows.tobytes()
        assert len(parameters(again)) == len(parameters(model))
        for got, want in zip(parameters(again), parameters(model)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.writeable
        if not trainable:
            assert same_header(again.head, weights)
            assert not again.head.rows.flags.writeable

    def test_paper_shape_checkpoint_size(self, tmp_path):
        # 784 -> 256 -> 9 on the simplex-10 head: 4.46 MB as float text
        model = init_model(784, [256, 9], make_simplex(10), seed=1)
        network.save_checkpoint(model, tmp_path / "ckpt.json")
        assert (tmp_path / "ckpt.json").stat().st_size <= 2.3e6

    @pytest.mark.parametrize("array,shape,bound", [
        ("w", [2 ** 12, 2 ** 12 + 1], network.MAX_MODEL_ENTRIES),
        ("w", [10 ** 400, 1], network.MAX_MODEL_ENTRIES),
        ("rows", [10 ** 9, 10 ** 9], polytope.MAX_HEAD_ENTRIES)],
        ids=["layer_just_over", "layer_beyond_float", "trainable_rows"])
    def test_too_many_entries_refused_before_decoding(self, monkeypatch, array, shape,
                                                      bound):
        payload = network.model_to_dict(init_model(2, [2], make_orthoplex(4), seed=74,
                                                   trainable=True))
        if array == "rows":  # no layer to decode first
            payload.update(input_dim=2, layers=[])
        entry = (payload["layers"][0]["w"] if array == "w"
                 else payload["head"]["weights"]["rows"])
        entry["shape"] = shape

        def no_decoding(*args, **kwargs):
            raise AssertionError("base64 was decoded")
        monkeypatch.setattr(polytope.base64, "b64decode", no_decoding)
        with pytest.raises(polytope.StructuralError, match=f"more than {bound} entries$"):
            network.model_from_dict(payload)


class TestHeadRows:
    """A fixed head's rows are read-only however the head is made; a
    trainable head's rows are writable and are the array Adam moves."""

    def test_fixed_rows_are_read_only(self, tmp_path):
        cube = make_cube(8)
        polytope.save_json(cube, tmp_path / "w.json")
        network.save_checkpoint(init_model(3, [4, 3], cube, seed=80), tmp_path / "ckpt.json")
        given_rows = np.eye(3)
        heads = [cube, make_simplex(5), make_orthoplex(5),
                 polytope.load_json(tmp_path / "w.json"),
                 network.load_checkpoint(tmp_path / "ckpt.json").head,
                 ClassifierWeights(None, given_rows, math.nan)]
        for head in heads:
            assert not head.trainable and not head.rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                head.rows[0, 0] = 0.5
        assert heads[-1].rows is given_rows

    def test_trainable_rows_are_what_adam_moves(self, tmp_path):
        model = init_model(3, [4, 3], make_cube(8), seed=81, trainable=True)
        network.save_checkpoint(model, tmp_path / "ckpt.json")
        loaded = network.load_checkpoint(tmp_path / "ckpt.json")
        given_rows = np.random.default_rng(82).normal(size=(8, 3))
        built = init_model(3, [4, 3], make_cube(8), seed=81)
        built.head = ClassifierWeights(None, given_rows, math.nan, True)
        rng = np.random.default_rng(83)
        x, y = rng.normal(size=(6, 3)), rng.integers(0, 8, 6)
        for m in (model, loaded, built):
            rows = m.head.rows
            assert rows.flags.writeable and parameters(m)[-1] is rows
            before = rows.copy()
            feats, cache = forward(m, x)
            res = losses.evaluate(losses.FixedSoftmax(), m.head, feats, y)
            adam_step(m, backward(m, cache, res.grad_features, res.grad_weights),
                      AdamState(lr=0.1))
            assert m.head.rows is rows and not np.array_equal(rows, before)
        assert built.head.rows is given_rows
