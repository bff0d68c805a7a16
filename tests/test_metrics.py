import json
import math

import numpy as np
import pytest

from polyhead.metrics import accuracy, export_scatter, geometry_report
from polyhead.polytope import ClassifierWeights, make_cube, make_simplex
from reference import readme_unit_view, traced_peak

class TestAccuracy:
    def test_all_equal(self):
        assert accuracy(np.arange(5), np.arange(5)) == 1.0

    def test_all_different(self):
        assert accuracy(np.zeros(4, dtype=int), np.ones(4, dtype=int)) == 0.0

    def test_half(self):
        preds = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        assert accuracy(preds, labels) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))


class TestGeometryReport:
    def test_features_on_weights(self):
        w = make_simplex(5)
        labels = np.arange(5)
        report = geometry_report(w, w.rows, labels, labels)
        for stats in report.per_class:
            assert stats.mean_angle_to_weight == pytest.approx(0.0, abs=1e-7)
        assert report.min_pairwise_mean_angle == pytest.approx(w.phi,
                                                              abs=1e-10)
        assert report.accuracy == 1.0

    def test_deranged_labels_give_phi(self):
        w = make_simplex(5)
        derangement = np.array([1, 2, 3, 4, 0])
        report = geometry_report(w, w.rows, derangement, derangement)
        for stats in report.per_class:
            # every feature sits on some other class's weight
            assert stats.mean_angle_to_weight == pytest.approx(w.phi,
                                                               abs=1e-10)

    def test_single_class_sentinel(self):
        w = make_simplex(4)
        feats = np.repeat(w.rows[2][None, :], 6, axis=0)
        labels = np.full(6, 2)
        report = geometry_report(w, feats, labels, labels)
        assert report.no_pairs
        assert report.min_pairwise_mean_angle == math.pi
        absent = [c for c in report.per_class if not c.present]
        assert len(absent) == 3

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        w = make_simplex(4)
        feats = rng.normal(size=(20, w.dim))
        labels = rng.integers(0, 4, 20)
        scales = rng.uniform(0.1, 10.0, size=(20, 1))
        a = geometry_report(w, feats, labels, labels)
        b = geometry_report(w, scales * feats, labels, labels)
        for sa, sb in zip(a.per_class, b.per_class):
            assert sa.mean_angle_to_weight == pytest.approx(
                sb.mean_angle_to_weight, abs=1e-10)
        assert a.min_pairwise_mean_angle == pytest.approx(
            b.min_pairwise_mean_angle, abs=1e-10)

    @pytest.mark.parametrize("sigma,angle_tol", [(0.1, 0.2), (0.01, 0.02)])
    def test_noise_shrinks_angles(self, sigma, angle_tol):
        rng = np.random.default_rng(2)
        w = make_simplex(6)
        labels = np.repeat(np.arange(6), 50)
        feats = w.rows[labels] + sigma * rng.normal(size=(300, w.dim))
        report = geometry_report(w, feats, labels, labels)
        for stats in report.per_class:
            assert stats.mean_angle_to_weight < 3 * angle_tol
        assert abs(report.min_pairwise_mean_angle - w.phi) < angle_tol

    def test_degenerate_features_counted(self):
        w = make_simplex(3)
        feats = np.vstack([w.rows, np.zeros((1, w.dim))])
        labels = np.array([0, 1, 2, 0])
        report = geometry_report(w, feats, labels, labels)
        assert report.degenerate == 1
        assert report.per_class[0].count == 1

    def test_cube_1000_report_builds_the_gram_matrix_in_blocks(self):
        # 10k features, 10 per class; the Gram matrix of the 1000 class-mean
        # directions alone would be 8 MB
        w = make_cube(1000)
        labels = np.repeat(np.arange(1000), 10)
        feats = w.rows[labels] + 0.1 * np.random.default_rng(5).normal(size=(10_000, w.dim))
        assert traced_peak(geometry_report, w, feats, labels, labels) < 4e6

    def test_json_round_trip(self, tmp_path):
        w = make_simplex(3)
        report = geometry_report(w, w.rows, np.arange(3), np.arange(3))
        path = tmp_path / "report.json"
        report.save(path)
        payload = json.loads(path.read_text())
        assert payload["phi"] == w.phi
        assert len(payload["per_class"]) == 3

    def test_strict_json_writes_null_for_non_finite(self, tmp_path):
        w = make_simplex(4)
        baseline = ClassifierWeights(None, w.rows.copy(), math.nan, trainable=True)
        feats = np.repeat(w.rows[2][None, :], 3, axis=0)
        labels = np.full(3, 2)
        path = tmp_path / "report.json"
        geometry_report(baseline, feats, labels, labels).save(path)

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")
        payload = json.loads(path.read_text(), parse_constant=refuse)
        assert payload["phi"] is None
        absent = payload["per_class"][0]
        assert absent["mean_angle_to_weight"] is None
        assert absent["angle_std"] is None
        assert payload["per_class"][2]["mean_angle_to_weight"] == pytest.approx(
            0.0, abs=1e-7)


class TestExportScatter:
    def test_simplex_run_shape(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(40, 9))
        labels = np.tile(np.arange(10), 4)
        path = tmp_path / "scatter.csv"
        export_scatter(feats, labels, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label," + ",".join(f"f{i}" for i in range(9))
        assert len(lines) == 41
        assert len({line.split(",")[0] for line in lines[1:]}) == 10

    def test_normalized_rows_unit(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(15, 4))
        feats[6] = 0.0
        labels = rng.integers(0, 3, 15)
        path = tmp_path / "scatter.csv"
        export_scatter(feats, labels, path)
        values = readme_unit_view(path)
        nonzero = np.arange(15) != 6
        assert np.abs(np.linalg.norm(values[nonzero], axis=1) - 1.0).max() < 1e-10
        assert np.array_equal(values[6], np.zeros(4))

    def test_reimport_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(7, 3))
        labels = rng.integers(0, 2, 7)
        path = tmp_path / "scatter.csv"
        export_scatter(feats, labels, path)
        values = np.array([[float(v) for v in line.split(",")[1:]]
                           for line in path.read_text().strip().splitlines()[1:]])
        assert np.array_equal(values, feats)
