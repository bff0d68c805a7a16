import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from polyhead import losses
from polyhead.losses import (AngularMargin, DegenerateFeatureError,
                             DimensionError, FixedSoftmax, LabelError,
                             MarginError, NormScaled, PlainCE, grad_check)
from polyhead.polytope import ClassifierWeights, make_cube, make_orthoplex, make_simplex


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


def random_features(rng, n, d, lo=0.5, hi=2.0):
    f = rng.normal(size=(n, d))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return f * rng.uniform(lo, hi, size=(n, 1))


def well_conditioned(kind, w, f, y, margin=0.0):
    """Reject configurations where central differences cannot resolve the
    gradient: angles within 0.05 rad of the singular set, or softmax so
    saturated that per-sample losses (hence gradients) vanish."""
    if isinstance(kind, AngularMargin):
        margin = kind.m
    unit = f / np.linalg.norm(f, axis=1, keepdims=True)
    rows, _ = losses.unit_rows(w)
    theta = np.arccos(np.clip((unit * rows[y]).sum(axis=1), -1.0, 1.0))
    if theta.min() < 0.05 or theta.max() > math.pi - margin - 0.05:
        return False
    res = losses.evaluate(kind, w, f, y)
    # near-zero coordinates sit below what step-1e-6 differences resolve
    return res.per_sample.min() > 1e-3 and np.abs(res.grad_features).min() > 1e-4


def eye_head(K):
    """A fixed head with identity rows: PlainCE over it scores the features
    themselves as logits."""
    return ClassifierWeights(None, K, K, np.eye(K), math.nan)


class TestLogits:
    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            losses.evaluate(PlainCE(), make_simplex(4), np.zeros((2, 5)),
                            np.zeros(2, dtype=int))


class TestPlainCE:
    @pytest.mark.parametrize("K", [2, 10, 47])
    def test_zero_logits_log_k(self, K):
        res = losses.evaluate(PlainCE(), eye_head(K), np.zeros((3, K)),
                              np.zeros(3, dtype=int))
        assert res.value == pytest.approx(math.log(K), abs=1e-15)

    def test_equal_logits_two_class(self):
        for kappa in (0.1, 1.0, 30.0):
            res = losses.evaluate(PlainCE(), eye_head(2), np.array([[kappa, kappa]]),
                                  np.array([0]))
            assert res.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 5))
        y = rng.integers(0, 5, 4)
        head = eye_head(5)
        res = losses.evaluate(PlainCE(), head, z, y)
        num = numeric_grad(lambda q: losses.evaluate(PlainCE(), head, q, y).value, z)
        assert np.abs(res.grad_features - num).max() < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 6))
        y = rng.integers(0, 6, 3)
        shifted = z + rng.normal(size=(3, 1))
        head = eye_head(6)
        assert losses.evaluate(PlainCE(), head, z, y).value == pytest.approx(
            losses.evaluate(PlainCE(), head, shifted, y).value, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            losses.evaluate(PlainCE(), eye_head(3), np.zeros((2, 3)), np.array([0, 3]))

    def test_value_is_mean_of_per_sample(self):
        rng = np.random.default_rng(3)
        res = losses.evaluate(PlainCE(), eye_head(4), rng.normal(size=(7, 4)),
                              rng.integers(0, 4, 7))
        assert res.value == pytest.approx(res.per_sample.mean(), abs=1e-12)
        assert (res.per_sample >= 0).all()


class TestFixedSoftmax:
    def test_zero_features(self):
        w = make_simplex(6)
        res = losses.evaluate(FixedSoftmax(), w, np.zeros((2, w.dim)),
                              np.array([0, 4]))
        assert res.value == pytest.approx(math.log(6), abs=1e-15)

    def test_loss_shrinks_with_feature_norm(self):
        w = make_orthoplex(4)
        vals = []
        for s in (0.5, 1.0, 2.0, 5.0, 20.0):
            res = losses.evaluate(FixedSoftmax(), w, s * w.rows[1][None, :],
                                  np.array([1]))
            vals.append(res.value)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(4)
        w = make_simplex(5)
        f = rng.normal(size=(3, w.dim))
        y = rng.integers(0, 5, 3)
        res = losses.evaluate(FixedSoftmax(), w, f, y)
        num = numeric_grad(lambda q: losses.evaluate(FixedSoftmax(), w, q, y).value, f)
        assert np.abs(res.grad_features - num).max() < 1e-6


class TestNormScaled:
    def test_two_class_closed_form(self):
        # f on w_y with the other weight antipodal: logits (kappa, -kappa)
        w = make_orthoplex(2)
        res = losses.evaluate(NormScaled(30.0), w, 2.5 * w.rows[0][None, :],
                              np.array([0]))
        assert res.per_sample[0] == pytest.approx(math.log1p(math.exp(-60.0)),
                                                  rel=1e-9)

    def test_gradient_orthogonal_to_feature(self):
        rng = np.random.default_rng(5)
        w = make_simplex(7)
        f = random_features(rng, 4, w.dim)
        res = losses.evaluate(NormScaled(), w, f, rng.integers(0, 7, 4))
        radial = np.abs((res.grad_features * f).sum(axis=1))
        assert radial.max() < 1e-10

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(6)
        w = make_cube(8)
        f = random_features(rng, 4, w.dim)
        y = rng.integers(0, 8, 4)
        res = losses.evaluate(NormScaled(30.0), w, f, y)
        num = numeric_grad(
            lambda q: losses.evaluate(NormScaled(30.0), w, q, y).value, f)
        assert np.abs(res.grad_features - num).max() < 1e-5

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        w = make_simplex(5)
        f = random_features(rng, 3, w.dim)
        y = rng.integers(0, 5, 3)
        a = losses.evaluate(NormScaled(), w, f, y)
        b = losses.evaluate(NormScaled(), w, 7.3 * f, y)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_degenerate_feature(self):
        w = make_simplex(4)
        f = np.zeros((1, w.dim))
        with pytest.raises(DegenerateFeatureError):
            losses.evaluate(NormScaled(), w, f, np.array([0]))


class TestMarginLoss:
    def test_reduces_to_norm_scaled_at_zero_margin(self):
        rng = np.random.default_rng(8)
        w = make_simplex(6)
        for _ in range(50):
            f = random_features(rng, 5, w.dim)
            y = rng.integers(0, 6, 5)
            a = losses.evaluate(AngularMargin(30.0, 0.0), w, f, y)
            b = losses.evaluate(NormScaled(30.0), w, f, y)
            assert abs(a.value - b.value) <= 1e-12
            assert np.abs(a.grad_features - b.grad_features).max() <= 1e-12

    def test_two_class_closed_form(self):
        w = make_orthoplex(2)
        res = losses.evaluate(AngularMargin(30.0, math.pi / 2), w,
                              w.rows[0][None, :], np.array([0]))
        # target logit 30*cos(pi/2)=0, other logit 30*cos(pi)=-30
        assert res.per_sample[0] == pytest.approx(math.log1p(math.exp(-30.0)),
                                                  rel=1e-9)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        w = make_simplex(10)
        y = rng.integers(0, 10, 4)
        # keep theta_y away from 0 and pi-m
        f = w.rows[y] + 0.3 * rng.normal(size=(4, w.dim))
        res = losses.evaluate(AngularMargin(30.0, w.phi), w, f, y)
        num = numeric_grad(
            lambda q: losses.evaluate(AngularMargin(30.0, w.phi), w, q,
                                      y).value, f)
        denom = np.maximum(1e-8, np.abs(res.grad_features) + np.abs(num))
        assert (np.abs(res.grad_features - num) / denom).max() < 1e-5

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        w = make_cube(8)
        f = random_features(rng, 3, w.dim)
        y = rng.integers(0, 8, 3)
        a = losses.evaluate(AngularMargin(m=0.7), w, f, y)
        b = losses.evaluate(AngularMargin(m=0.7), w, 0.01 * f, y)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_monotone_in_target_angle(self):
        # rotate a single feature toward w_y; loss must strictly decrease
        w = make_orthoplex(4)
        target = w.rows[0]
        other = w.rows[2]  # orthogonal direction
        m = 0.8
        vals = []
        for theta in np.linspace(1.2, 0.1, 8):  # theta + m stays below pi
            f = (math.cos(theta) * target + math.sin(theta) * other)[None, :]
            vals.append(losses.evaluate(AngularMargin(m=m), w, f,
                                        np.array([0])).value)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_margin_out_of_range(self):
        w = make_simplex(4)
        f = w.rows[:1]
        for m in (-0.1, math.pi, 4.0):
            with pytest.raises(MarginError):
                losses.evaluate(AngularMargin(m=m), w, f, np.array([0]))

    def test_past_pi_clamp_no_nan(self):
        # feature antipodal to its weight with a large margin
        w = make_orthoplex(2)
        f = -w.rows[0][None, :]
        res = losses.evaluate(AngularMargin(30.0, 3.0), w, f, np.array([0]))
        assert np.isfinite(res.value)
        assert np.isfinite(res.grad_features).all()


class TestMaximalMargin:
    def test_values(self):
        assert make_simplex(10).phi == pytest.approx(math.acos(-1.0 / 9.0), abs=0)
        assert make_orthoplex(10).phi == math.pi / 2
        assert make_cube(47).phi == pytest.approx(math.acos(4.0 / 6.0), abs=0)


class TestGradCheck:
    def test_plain_ce_small(self):
        rng = np.random.default_rng(11)
        w = make_simplex(4)
        f = rng.normal(size=(2, 3))
        assert grad_check(PlainCE(), w, f, rng.integers(0, 4, 2)) < 1e-6

    def test_margin_simplex_jittered(self):
        rng = np.random.default_rng(12)
        w = make_simplex(10)
        y = rng.integers(0, 10, 4)
        f = w.rows[y] + 0.2 * rng.normal(size=(4, w.dim))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        kind = AngularMargin(30.0, w.phi)
        assert grad_check(kind, w, f, y) < 1e-5

    def test_degenerate_feature_is_error_not_nan(self):
        w = make_simplex(4)
        f = np.zeros((1, w.dim))
        with pytest.raises(DegenerateFeatureError):
            grad_check(NormScaled(30.0), w, f, np.array([0]))

    @pytest.mark.parametrize("kind", [PlainCE(), FixedSoftmax(),
                                      NormScaled(30.0),
                                      AngularMargin(30.0, 0.5)])
    def test_many_seeds(self, kind):
        w = make_simplex(6)
        checked = 0
        rng = np.random.default_rng(2024)
        while checked < 100:
            f = random_features(rng, 3, w.dim)
            y = rng.integers(0, 6, 3)
            if not well_conditioned(kind, w, f, y):
                continue
            assert grad_check(kind, w, f, y) < 1e-5
            checked += 1


class TestSwitches:
    def test_kinds_declare_the_docstring_table(self):
        # kind, g, h, s, m: the table of the losses module docstring
        table = re.findall(r"^  (\w+) +(yes|no) +(yes|no) +(1|kappa) +(0|m)$",
                           losses.__doc__, re.M)
        assert [row[0] for row in table] == [c.__name__ for c in losses.KINDS.values()]
        for name, g, h, s, m in table:
            kind = getattr(losses, name)()
            assert kind.normalizes == (g == "yes", h == "yes")
            assert getattr(kind, "kappa", 1.0) == (losses.KAPPA_DEFAULT if s == "kappa"
                                                   else 1.0)
            assert getattr(kind, "m", 0.0) == 0.0

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        for kind in (NormScaled, AngularMargin):
            with pytest.raises(ValueError, match="kappa"):
                kind(kappa)

    def test_fields_are_the_config_keys(self):
        # a switch that gained an annotation would become a config key
        assert [tuple(f.name for f in dataclasses.fields(c))
                for c in (PlainCE, FixedSoftmax, NormScaled, AngularMargin)] == [
            (), (), ("kappa",), ("kappa", "m")]

    def test_unknown_kind_is_type_error(self):
        class Lookalike:
            normalizes = (False, False)

        for kind in (object(), Lookalike()):
            with pytest.raises(TypeError):
                losses.evaluate(kind, make_simplex(3), np.ones((1, 2)), np.array([0]))


# The kernel as it ran before evaluate worked inside its own logits buffer,
# with a fresh array for every step.  The current kernel must give the same
# bits on every loss kind, head type and batch shape.

def switches_reference(kind):
    if isinstance(kind, PlainCE):
        return False, False, 1.0, 0.0
    if isinstance(kind, FixedSoftmax):
        return False, True, 1.0, 0.0
    if isinstance(kind, NormScaled):
        return True, True, kind.kappa, 0.0
    if isinstance(kind, AngularMargin):
        return True, True, kind.kappa, kind.m
    raise TypeError(f"unknown loss kind {kind!r}")


def log_softmax_reference(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def plain_ce_reference(z, labels):
    z = np.asarray(z, dtype=np.float64)
    labels = losses._check_labels(labels, z.shape[1])
    n = z.shape[0]
    logp = log_softmax_reference(z)
    per_sample = -logp[np.arange(n), labels]
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return losses.LossResult(float(per_sample.mean()), grad, per_sample)


def evaluate_reference(kind, weights, features, labels):
    normalize_features, normalize_rows, scale, m = switches_reference(kind)
    rows, row_norms = (losses.unit_rows(weights) if normalize_rows
                       else (weights.rows, None))
    f = np.asarray(features, dtype=np.float64)
    if normalize_features:
        f, norms = losses._normalize(f, "feature")
    labels = losses._check_labels(labels, weights.num_classes)
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
        res.grad_features = losses._chain_normalization(res.grad_features, f, norms)
    if weights.trainable:
        res.grad_weights = grad_inner.T @ f
        if row_norms is not None:
            res.grad_weights = losses._chain_normalization(res.grad_weights, rows,
                                                           row_norms)
    return res


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(res, ref):
    assert bits(res.value) == bits(ref.value)
    for name in ("per_sample", "grad_features", "grad_weights"):
        got, want = getattr(res, name), getattr(ref, name)
        if want is None:
            assert got is None, name
        else:
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), name


def cube_head(K, trainable):
    """The cube head on K classes, or raw rows of its shape drawn as
    ``network.init_model`` draws a trainable head."""
    head = make_cube(K)
    if not trainable:
        return head
    rows = np.random.default_rng(K).normal(0.0, math.sqrt(2.0 / head.dim),
                                           size=head.rows.shape)
    return ClassifierWeights(None, K, head.dim, rows, head.phi, True)


def grid_kinds(head):
    yield PlainCE()
    yield FixedSoftmax()
    for kappa in (1.0, 30.0, 64.0):
        yield NormScaled(kappa)
        for m in (0.0, 0.4, head.phi):
            if m < math.pi:  # a 1-d cube's phi is pi
                yield AngularMargin(kappa, m)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("trainable", [False, True], ids=["fixed", "trainable"])
    @pytest.mark.parametrize("K", [2, 10, 47, 1000])
    def test_evaluate_bitwise(self, K, trainable):
        head = cube_head(K, trainable)
        unit, _ = losses.unit_rows(head)
        rng = np.random.default_rng(K + trainable)
        for n in (1, 2, 9, 512):
            y = rng.integers(0, K, n)
            for feature_scale in (1e-6, 1.0, 1e3):
                f = feature_scale * rng.normal(size=(n, head.dim))
                if n > 1:  # antipodal to its row: past the margin clamp
                    f[0] = -feature_scale * unit[y[0]]
                for kind in grid_kinds(head):
                    assert_same_bits(losses.evaluate(kind, head, f, y),
                                     evaluate_reference(kind, head, f, y))

    def test_plain_ce_bitwise_and_input_untouched(self):
        rng = np.random.default_rng(13)
        inputs = [30.0 * rng.normal(size=(9, 47)),
                  np.asfortranarray(rng.normal(size=(9, 47))),
                  rng.normal(size=(9, 94))[:, ::2],
                  rng.normal(size=(9, 47)).astype(np.float32),
                  rng.integers(-5, 5, size=(9, 47))]
        for z in inputs:
            y = rng.integers(0, 47, 9)
            before = z.copy()
            # the logits z @ I are C-ordered, so the reference gets z in C order:
            # its row reductions over a Fortran-ordered z round differently
            assert_same_bits(losses.evaluate(PlainCE(), eye_head(47), z, y),
                             plain_ce_reference(np.ascontiguousarray(z), y))
            assert np.array_equal(z, before) and z.dtype == before.dtype


class TestLogitBuffers:
    @pytest.mark.parametrize("trainable", [False, True], ids=["fixed", "trainable"])
    def test_at_most_two_batch_by_k_arrays(self, trainable):
        # numpy reports its buffers to tracemalloc, so the bound is exact
        head = cube_head(1000, trainable)
        rng = np.random.default_rng(14)
        f = rng.normal(size=(512, head.dim))
        y = rng.integers(0, 1000, 512)
        kind = AngularMargin(30.0, head.phi)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            losses.evaluate(kind, head, f, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 512 * 1000 * 8


class TestGradientProperty:
    @pytest.mark.parametrize("kind", [PlainCE(), FixedSoftmax(), NormScaled(30.0),
                                      AngularMargin(30.0, 0.5)],
                             ids=["plain_ce", "fixed_softmax", "norm_scaled",
                                  "angular_margin"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(head=st.sampled_from([make_simplex(6), make_orthoplex(6), make_cube(8)]),
           trainable=st.booleans(), n=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_well_conditioned_batches(self, kind, head, trainable, n, seed):
        rng = np.random.default_rng(seed)
        if trainable:
            rows = head.rows + 0.3 * rng.normal(size=head.rows.shape)
            head = ClassifierWeights(None, head.num_classes, head.dim, rows, head.phi, True)
        f = random_features(rng, n, head.dim)
        y = rng.integers(0, head.num_classes, n)
        assume(well_conditioned(kind, head, f, y))
        assert grad_check(kind, head, f, y) < 1e-5
        if trainable:
            analytic = losses.evaluate(kind, head, f, y).grad_weights
            num = numeric_grad(lambda r: losses.evaluate(
                kind, ClassifierWeights(None, head.num_classes, head.dim, r,
                                        head.phi, True), f, y).value, head.rows)
            assert np.abs(analytic - num).max() <= 1e-5 * np.abs(analytic).max()
