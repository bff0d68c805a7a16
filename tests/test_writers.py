"""The artifact writers against the code they replaced, bit for bit.

``export_scatter`` once sent its rows through ``csv.writer``,
``geometry_report`` once built one boolean mask per class, and every JSON
file was written by ``json.dump``.  Those versions are kept here as
references, and the current writers must give the same bytes and the same
bits on edge-case inputs: absent classes, labels outside [0, K), zero-norm
rows, signed zeros, subnormals, values near 1e+-300, nan and inf.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polyhead import cli, metrics, network
from polyhead.polytope import (ClassifierWeights, PolytopeKind, StructuralError, load_json,
                               make_cube, make_simplex, make_weights, save_json, to_dict)
from reference import (bits, csv_writer_reference, json_dump_reference, mask_loop_reference,
                       readme_unit_view, report_to_dict)

SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, -1e300, 1e300, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf]


def report_bits(report):
    """Every field of a report, floats as their bits and types kept."""
    return (report.no_pairs, report.degenerate,
            bits([report.phi, report.min_pairwise_mean_angle, report.accuracy]),
            [(c.label, c.present, type(c.count), c.count,
              bits([c.mean_angle_to_weight, c.angle_std]),
              None if c.mean_direction is None else bits(c.mean_direction))
             for c in report.per_class])


def indented_view(path):
    """What the README's ``python -m json.tool --indent 2`` prints for a file."""
    proc = subprocess.run([sys.executable, "-m", "json.tool", "--indent", "2", str(path)],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def heads():
    """A fixed simplex, a fixed cube, and a trainable head of each shape."""
    rng = np.random.default_rng(40)
    fixed = [make_simplex(6), make_cube(12)]
    return fixed + [ClassifierWeights(w.kind, rng.normal(size=w.rows.shape), w.phi, True)
                    for w in fixed]


def edge_case_features(head, seed):
    """Features of a model on ``head`` with edge-case rows mixed in, and
    labels that skip classes and run past both ends of [0, K)."""
    rng = np.random.default_rng(seed)
    model = network.init_model(4, [8, head.dim], head, seed,
                               trainable=head.trainable)
    features, _ = network.forward(model, rng.normal(size=(90, 4)))
    features = np.vstack([features, np.zeros((3, head.dim)),
                          rng.choice(SPECIAL, size=(20, head.dim)),
                          np.full((2, head.dim), -0.0), np.full((2, head.dim), 5e-324)])
    present = rng.choice(head.num_classes, size=head.num_classes // 2, replace=False)
    labels = rng.choice(np.concatenate([present, [-3, -1, head.num_classes,
                                                  head.num_classes + 7]]),
                        size=len(features))
    return features, labels


HEADS = heads()
HEAD_IDS = ["simplex", "cube", "trainable_simplex", "trainable_cube"]
LABEL_TYPES = [np.int64, np.int32, np.int16, list]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGeometryReportMatchesMaskLoop:
    @pytest.mark.parametrize("head", HEADS, ids=HEAD_IDS)
    @pytest.mark.parametrize("label_type", LABEL_TYPES,
                             ids=lambda t: t.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_cases_bitwise(self, head, label_type, seed):
        features, labels = edge_case_features(head, seed)
        labels = label_type(labels) if label_type is list else labels.astype(label_type)
        predictions = np.roll(np.asarray(labels), 1)
        assert report_bits(metrics.geometry_report(head, features, labels, predictions)) \
            == report_bits(mask_loop_reference(head, features, labels, predictions))

    def test_unsigned_labels_bitwise(self):
        head = make_simplex(6)
        features, labels = edge_case_features(head, 3)
        labels = (labels % 9).astype(np.uint8)
        assert report_bits(metrics.geometry_report(head, features, labels, labels)) \
            == report_bits(mask_loop_reference(head, features, labels, labels))

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_many_classes_bitwise(self, kind):
        head = make_weights(kind, 1000)
        rng = np.random.default_rng(41)
        labels = rng.integers(-2, 1003, 4000)
        features = head.rows[np.clip(labels, 0, 999)] + rng.normal(size=(4000, head.dim))
        assert report_bits(metrics.geometry_report(head, features, labels, labels)) \
            == report_bits(mask_loop_reference(head, features, labels, labels))

    def test_no_rows_with_a_direction(self):
        head = make_simplex(4)
        features = np.zeros((5, head.dim))
        labels = np.arange(5)
        report = metrics.geometry_report(head, features, labels, labels)
        assert report_bits(report) == report_bits(
            mask_loop_reference(head, features, labels, labels))
        assert report.no_pairs and report.degenerate == 5

    def test_label_count_must_match_rows(self):
        head = make_simplex(4)
        with pytest.raises(ValueError, match="labels"):
            metrics.geometry_report(head, head.rows, np.arange(3), np.arange(3))


# Per-class sample counts: absent and single-sample classes, small groups, and
# counts around numpy's pairwise-summation block of 128
COUNTS = st.one_of(st.integers(0, 3), st.integers(4, 20), st.sampled_from([127, 128, 129]))


@st.composite
def grouped_inputs(draw):
    """A fixed polytope head or a trainable one of any shape, and features
    whose classes hold drawn sample counts, with zero rows and labels outside
    [0, K) mixed in, in a drawn order and label dtype."""
    if draw(st.booleans()):
        head = make_weights(draw(st.sampled_from(list(PolytopeKind))),
                            draw(st.integers(2, 40)))
    else:
        classes, dim = draw(st.integers(1, 40)), draw(st.integers(1, 12))
        head = ClassifierWeights(None, np.zeros((classes, dim)), math.nan, True)
    counts = draw(st.lists(COUNTS, min_size=head.num_classes,
                           max_size=head.num_classes))
    zeros = draw(st.integers(0, 3))
    outside = draw(st.lists(st.sampled_from([-5, -1, head.num_classes,
                                             head.num_classes + 3]), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if head.trainable:
        head.rows[:] = rng.normal(size=head.rows.shape)
    labels = np.concatenate([np.repeat(np.arange(head.num_classes), counts),
                             rng.integers(0, head.num_classes, zeros),
                             np.array(outside, dtype=np.int64)])
    features = head.rows[np.clip(labels, 0, head.num_classes - 1)] \
        + draw(st.sampled_from([0.1, 1.0, 10.0])) * rng.normal(size=(len(labels), head.dim))
    features[len(labels) - len(outside) - zeros:len(labels) - len(outside)] = 0.0
    order = rng.permutation(len(labels))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int16]))
    return head, features[order], labels[order].astype(dtype)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # accuracy of no rows
class TestGeometryReportGroupingProperty:
    @settings(max_examples=50)
    @given(inputs=grouped_inputs())
    def test_matches_mask_loop_bitwise(self, inputs):
        head, features, labels = inputs
        predictions = np.roll(labels, 1)
        assert report_bits(metrics.geometry_report(head, features, labels, predictions)) \
            == report_bits(mask_loop_reference(head, features, labels, predictions))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExportScatterMatchesCsvWriter:
    @pytest.mark.parametrize("head", HEADS, ids=HEAD_IDS)
    @pytest.mark.parametrize("label_type", LABEL_TYPES + [np.uint8, np.float64],
                             ids=lambda t: t.__name__)
    @pytest.mark.parametrize("unit_view", [False, True])
    def test_edge_cases_bytewise(self, tmp_path, head, label_type, unit_view):
        """The scatter file, and with ``unit_view`` the README's unit view of
        it written back, against the csv.writer loop's raw and normalized files."""
        features, labels = edge_case_features(head, 5)
        if label_type is np.uint8:
            labels = labels % 200
        labels = label_type(labels) if label_type is list else labels.astype(label_type)
        metrics.export_scatter(features, labels, tmp_path / "new.csv")
        if unit_view:
            metrics.export_scatter(readme_unit_view(tmp_path / "new.csv"), labels,
                                   tmp_path / "new.csv")
        csv_writer_reference(features, labels, unit_view, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [metrics.CSV_CHUNK_ROWS,
                                      2 * metrics.CSV_CHUNK_ROWS + 3])
    @pytest.mark.parametrize("label_count", ["all", "short", "long"])
    def test_chunk_boundaries_bytewise(self, tmp_path, rows, label_count):
        rng = np.random.default_rng(44)
        features = rng.normal(size=(rows, 3))
        extra = {"all": 0, "short": -700, "long": 9}[label_count]
        labels = rng.integers(0, 5, rows + extra)
        if extra:  # zip would truncate to the shorter side, so it is refused
            with pytest.raises(ValueError, match="labels"):
                metrics.export_scatter(features, labels, tmp_path / "new.csv")
            assert not (tmp_path / "new.csv").exists()
            return
        metrics.export_scatter(features, labels, tmp_path / "new.csv")
        csv_writer_reference(features, labels, False, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (1, 1)])
    def test_degenerate_shapes_bytewise(self, tmp_path, shape):
        features = np.full(shape, -0.0)
        labels = np.arange(shape[0])
        metrics.export_scatter(features, labels, tmp_path / "new.csv")
        csv_writer_reference(features, labels, False, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@st.composite
def head_files(draw):
    """A head of any kind and phi whose rows are not a polytope's: either
    drawn from SPECIAL and -max, with 0.0 and -0.0 both present, or all
    distinct over exponents 1e-300..1e300.  Shapes run down to two rows and
    one column."""
    shape = (draw(st.sampled_from([2, 3, 7, 40])), draw(st.sampled_from([1, 2, 5, 30])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        rows = rng.choice(SPECIAL + [-1.7976931348623157e308], size=shape)
        rows[0, 0], rows[-1, -1] = 0.0, -0.0
    else:
        rows = (rng.choice([-1.0, 1.0], size=shape) * rng.uniform(1.0, 10.0, size=shape)
                * 10.0 ** rng.integers(-300, 301, size=shape))
    return ClassifierWeights(draw(st.sampled_from(list(PolytopeKind))), rows,
                             draw(st.sampled_from(SPECIAL + [math.pi / 2])))


class TestJsonMatchesJsonDump:
    @pytest.mark.parametrize("head", HEADS, ids=HEAD_IDS)
    def test_checkpoint(self, tmp_path, head):
        model = network.init_model(4, [8, head.dim], head, seed=42,
                                   trainable=head.trainable)
        rng = np.random.default_rng(43)
        layer = model.layers[0]
        layer.w[:, :] = rng.choice(SPECIAL, size=layer.w.shape)  # nan, inf and all
        extra = {"seed": 42, "lr": 0.1, "loss": {"kind": "angular_margin",
                                                 "m": head.phi, "kappa": 30.0}}
        network.save_checkpoint(model, tmp_path / "new.json", extra=extra)
        payload = network.model_to_dict(model)
        payload["config"] = extra
        json_dump_reference(payload, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    @pytest.mark.parametrize("classes", [2, 10, 47, 1000])
    def test_head_file(self, tmp_path, kind, classes):
        weights = make_weights(kind, classes)
        save_json(weights, tmp_path / "new.json")
        json_dump_reference(to_dict(weights), tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert load_json(tmp_path / "new.json").rows.tobytes() == weights.rows.tobytes()
        model = network.init_model(2, [weights.dim], weights, seed=0)
        network.save_checkpoint(model, tmp_path / "ckpt.json")
        again = network.load_checkpoint(tmp_path / "ckpt.json")
        assert again.head.rows.tobytes() == weights.rows.tobytes()

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(weights=head_files())
    def test_head_file_of_any_rows(self, tmp_path, weights):
        save_json(weights, tmp_path / "new.json")
        json_dump_reference(to_dict(weights), tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        if not np.isfinite(weights.rows).all():
            with pytest.raises(StructuralError, match="^non-finite value in rows$"):
                load_json(tmp_path / "new.json")
            return
        again = load_json(tmp_path / "new.json")
        assert again.kind is weights.kind
        assert again.rows.tobytes() == weights.rows.tobytes()
        assert np.float64(again.phi).tobytes() == np.float64(weights.phi).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("head", HEADS, ids=HEAD_IDS)
    def test_geometry_report(self, tmp_path, head):
        features, labels = edge_case_features(head, 6)
        report = metrics.geometry_report(head, features, labels, labels)
        report.save(tmp_path / "new.json")
        json_dump_reference(report_to_dict(report), tmp_path / "old.json", allow_nan=False)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert indented_view(tmp_path / "new.json") == json.dumps(
            report_to_dict(report), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("present", ["all", "two"])
    def test_geometry_report_many_classes(self, tmp_path, present):
        """A K=1000 trainable head of unknown phi (null).  With "two", one class's
        features cancel (mean direction None), so no pair is left (no_pairs)."""
        head = make_cube(1000)
        rng = np.random.default_rng(45)
        head = ClassifierWeights(None, rng.normal(size=head.rows.shape), math.nan, True)
        if present == "all":
            labels = np.repeat(np.arange(1000), 3)
            features = head.rows[labels] + rng.normal(size=(3000, head.dim))
        else:
            labels = np.array([4, 4, 900, 900, 900])
            direction = rng.normal(size=head.dim)
            features = np.vstack([direction, -direction, rng.normal(size=(3, head.dim))])
        report = metrics.geometry_report(head, features, labels, np.roll(labels, 1))
        assert report.no_pairs == (present == "two")
        assert (report.per_class[4].mean_direction is None) == (present == "two")
        report.save(tmp_path / "new.json")
        json_dump_reference(report_to_dict(report), tmp_path / "old.json", allow_nan=False)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert indented_view(tmp_path / "new.json") == json.dumps(
            report_to_dict(report), indent=2, allow_nan=False) + "\n"

    def test_config_resolved(self, tmp_path):
        config = {"seed": 5, "epochs": 1, "batch_size": 64, "lr": 1e-300,
                  "hidden_widths": [8],
                  "loss": {"kind": "angular_margin", "kappa": 30.0, "m": "max"},
                  "classifier": {"kind": "cube", "classes": 6, "trainable": True},
                  "dataset": {"type": "blobs", "classes": 6, "dim": 3,
                              "per_class": 5, "spread": 1.0, "separation": 6.0,
                              "seed": 6},
                  "out_dir": str(tmp_path / "run")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(path)]) == 0
        written = (tmp_path / "run" / "config_resolved.json").read_bytes()
        resolved = dict(config, hidden_widths=[8, 3],
                        loss={"kind": "angular_margin", "kappa": 30.0,
                              "m": make_cube(6).phi})
        json_dump_reference(resolved, tmp_path / "old.json", indent=2)
        assert written == (tmp_path / "old.json").read_bytes()
