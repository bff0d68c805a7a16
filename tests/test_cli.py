import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polyhead import cli, data, network
from polyhead.polytope import load_json, make_orthoplex, make_simplex, to_dict


def run(args):
    return cli.main(args)


class TestGenWeights:
    def test_cube_47(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["gen-weights", "--kind", "cube", "--classes", "47",
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "d=6" in printed
        w = load_json(out)
        assert w.dim == 6

    def test_orthoplex_phi(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["gen-weights", "--kind", "orthoplex", "--classes", "10",
                    "--out", str(out)]) == 0
        assert "phi=1.5707963268" in capsys.readouterr().out

    def test_class_count_error(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen-weights", "--kind", "simplex", "--classes", "1",
                    "--out", str(out)]) == 2

    def test_out_into_missing_directory(self, tmp_path):
        out = tmp_path / "no" / "such" / "w.json"
        assert run(["gen-weights", "--kind", "cube", "--classes", "4",
                    "--out", str(out)]) == 3

    @pytest.mark.parametrize("kind", ["simplex", "orthoplex", "cube"])
    def test_head_too_large(self, tmp_path, capsys, kind):
        out = tmp_path / "w.json"
        assert run(["gen-weights", "--kind", kind, "--classes", "100000000",
                    "--out", str(out)]) == 2
        assert "entries allowed" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_valid_file(self, tmp_path):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "8",
             "--out", str(out)])
        assert run(["check", "--weights", str(out), "--tol", "1e-10"]) == 0

    def test_corrupted_row(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "8",
             "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["rows"][0][0] += 0.01
        out.write_text(json.dumps(payload))
        assert run(["check", "--weights", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert run(["check", "--weights", str(tmp_path / "nope.json")]) == 3

    def test_cube_file_holding_a_triangle_fails(self, tmp_path, capsys):
        # an equilateral triangle labelled cube d=3, with its own angle as phi
        out = tmp_path / "w.json"
        rows = [[1.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0],
                [-0.5, -math.sqrt(3) / 2, 0.0]]
        out.write_text(json.dumps({"kind": "cube", "K": 3, "d": 3,
                                   "phi": 2 * math.pi / 3, "rows": rows}))
        assert run(["check", "--weights", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "stored phi" in printed

    def test_nan_phi_fails(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "5",
             "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["phi"] = float("nan")
        out.write_text(json.dumps(payload))
        assert run(["check", "--weights", str(out)]) == 1
        assert "stored phi" in capsys.readouterr().out

    def test_more_classes_than_vertices(self, tmp_path, capsys):
        # three classes on a 1-d orthoplex (2 vertices); a loose tol would
        # let the angles pass
        out = tmp_path / "w.json"
        out.write_text(json.dumps({"kind": "orthoplex", "K": 3, "d": 1,
                                   "phi": math.pi / 2,
                                   "rows": [[1.0], [-1.0], [1.0]]}))
        assert run(["check", "--weights", str(out), "--tol", "4"]) == 1
        assert "vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1e-10", "inf"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, tol):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "4",
             "--out", str(out)])
        assert run(["check", "--weights", str(out), f"--tol={tol}"]) == 2

    @pytest.mark.parametrize("text", [
        "{ not json", "[1, 2]", '{"kind": "cube", "K": 2, "d": 1}',
        '{"kind": "prism", "K": 2, "d": 1, "phi": 1.0, "rows": [[1.0], [-1.0]]}',
        '{"kind": "cube", "K": 2, "d": 1, "phi": 1.0, "rows": [[1.0], ["a"]]}',
        '{"kind": "cube", "K": 1, "d": 1, "phi": 1.0, "rows": [[1.0]]}',
        '{"kind": "cube", "K": 2, "d": 1, "phi": 1.0, "rows": [[1.0], [NaN]]}',
        # a header K or d that disagrees with the rows
        '{"kind": "cube", "K": 3, "d": 1, "phi": 1.0, "rows": [[1.0], [-1.0]]}',
        '{"kind": "cube", "K": 2, "d": 2, "phi": 1.0, "rows": [[1.0], [-1.0]]}',
        # a header value of the wrong JSON type on the 2-class cube, which
        # passes with "K": 2, "d": 1, "phi": 3.141592653589793
        '{"kind": "cube", "K": 2.0, "d": 1, "phi": 3.141592653589793, '
        '"rows": [[-1.0], [1.0]]}',
        '{"kind": "cube", "K": 2, "d": true, "phi": 3.141592653589793, '
        '"rows": [[-1.0], [1.0]]}',
        '{"kind": "cube", "K": 2, "d": 1, "phi": "3.141592653589793", '
        '"rows": [[-1.0], [1.0]]}',
        '{"kind": "cube", "K": 2, "d": 1, "phi": true, "rows": [[-1.0], [1.0]]}'])
    def test_malformed_file(self, tmp_path, text):
        out = tmp_path / "w.json"
        out.write_text(text)
        assert run(["check", "--weights", str(out)]) == 2

    def test_header_type_named(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "8",
             "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["K"] = 8.0
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["check", "--weights", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: K must be a JSON integer, got 8.0\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(phi=10 ** 320),
         f"phi must be a JSON number in float range, got {str(10 ** 320)[:40]}"),
        (lambda p: p.update(kind=5), "kind must be a JSON string, got 5"),
        (lambda p: [1, 2], "head file must be a JSON object, got [1, 2]"),
    ], ids=["phi_beyond_float", "kind_int", "list_document"])
    def test_header_value_named(self, tmp_path, capsys, edit, message):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "3", "--out", str(out)])
        payload = json.loads(out.read_text())
        out.write_text(json.dumps(edit(payload) or payload))
        capsys.readouterr()
        assert run(["check", "--weights", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# the message for a number key given 10**400, which no float holds
BEYOND_FLOAT = f"must be a JSON number in float range, got {str(10 ** 400)[:40]}"


def blob_config(tmp_path, **overrides):
    config = {
        "seed": 5,
        "epochs": 40,
        "batch_size": 64,
        "lr": 0.01,
        "hidden_widths": [32],
        "loss": {"kind": "angular_margin", "kappa": 30.0, "m": "max"},
        "classifier": {"kind": "simplex", "classes": 4},
        "dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
                    "spread": 1.0, "separation": 6.0, "seed": 6},
        "out_dir": str(tmp_path / "run"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


class TestTrain:
    def test_blobs_geometry(self, tmp_path):
        path, config = blob_config(tmp_path)
        assert run(["train", "--config", str(path)]) == 0
        out = tmp_path / "run"
        report = json.loads((out / "geometry.json").read_text())
        phi = math.acos(-1.0 / 3.0)
        assert abs(report["min_pairwise_mean_angle"] - phi) < 0.15
        assert (out / "checkpoint.json").exists()
        assert (out / "epochs.csv").read_text().startswith(
            "epoch,mean_loss,train_accuracy\n")
        assert (out / "features.csv").exists()

    def test_max_margin_resolved_in_snapshot(self, tmp_path):
        path, _ = blob_config(
            tmp_path, classifier={"kind": "orthoplex", "classes": 4},
            epochs=1)
        assert run(["train", "--config", str(path)]) == 0
        resolved = json.loads(
            (tmp_path / "run" / "config_resolved.json").read_text())
        assert resolved["loss"]["m"] == pytest.approx(math.pi / 2, abs=0)

    def test_trainable_baseline_rows_move(self, tmp_path):
        path, _ = blob_config(
            tmp_path,
            classifier={"kind": "simplex", "classes": 4, "trainable": True},
            epochs=3)
        assert run(["train", "--config", str(path)]) == 0
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert ckpt["head"]["type"] == "trainable"
        report = json.loads((tmp_path / "run" / "geometry.json").read_text())
        assert report["phi"] == make_simplex(4).phi  # the polytope it stands in for

    def test_fixed_head_identical_to_polytope(self, tmp_path):
        from polyhead.polytope import make_simplex
        path, _ = blob_config(tmp_path, epochs=2)
        assert run(["train", "--config", str(path)]) == 0
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        rows = np.asarray(ckpt["head"]["weights"]["rows"])
        assert np.array_equal(rows, make_simplex(4).rows)

    def test_unknown_config_key(self, tmp_path):
        path, _ = blob_config(tmp_path, learningrate=0.1)
        assert run(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"epochs": 0},
        {"epochs": True},
        {"seed": "5"},
        {"batch_size": 64.0},
        {"hidden_widths": "16"},
        {"hidden_widths": [True]},
        {"classifier": {"kind": "simplex", "classes": "4"}},
        {"classifier": {"kind": "simplex", "classes": 4, "trainable": "no"}},
        {"lr": "0.01"},
        {"loss": {"kind": "angular_margin", "kappa": True}},
        {"dataset": {"type": "blobs", "classes": 4, "dim": 3,
                     "per_class": 100, "spread": 1.0, "separation": 6.0,
                     "seed": True}},
        {"dataset": {"type": "idx", "images": 5, "labels": 6}},
        {"dataset": ["blobs"]},
        {"batch_size": 0},
        {"dataset": {"type": "blobs", "classes": 5, "dim": 3,
                     "per_class": 100, "spread": 1.0, "separation": 6.0,
                     "seed": 6}},
        {"loss": {"kind": "norm_scaled", "m": -1}},
        {"loss": {"kind": "plain_ce", "kappa": 3.0}},
        {"loss": {"kind": "angular_margin", "m": "maxx"}},
        {"loss": {"kind": "angular_margin", "m": True}},
        {"loss": {"kind": 5}},
        {"loss": []},
        {"dataset": {"type": "idx", "images": "images", "labels": "labels",
                     "limit": None}},
        {"dataset": {"type": "idx", "images": "images", "labels": "labels",
                     "limit": 0}},
        {"dataset": {"type": "idx", "images": "images", "labels": "labels",
                     "emnist": 0}},
        {"dataset": {"type": "blobs", "classes": 4, "dim": 3,
                     "per_class": 100, "spread": 1.0, "separation": 6.0,
                     "seed": 6, "colour": "red"}},
        {"batch_size": 512.0},
        {"classifier": {"kind": "simplex", "classes": 4, "trainable": 0}},
        {"out_dir": 5},
        {"classifier": {"kind": "simplex"}},
        {"classifier": "simplex"},
        {"classifier": {"kind": "cube", "classes": 10 ** 8}},
        {"dataset": {"type": "blobs", "classes": 10 ** 8, "dim": 3,
                     "per_class": 1, "spread": 1.0, "separation": 6.0,
                     "seed": 6}},
        {"dataset": {"type": "blobs", "classes": 4, "dim": 10 ** 12,
                     "per_class": 100, "spread": 1.0, "separation": 6.0,
                     "seed": 6}},
        {"loss": {"kind": "angular_margin", "kappa": math.nan}},
        {"loss": {"kind": "norm_scaled", "kappa": math.inf}},
        {"lr": -0.01},
        {"lr": math.nan},
        {"dataset": {"type": "blobs", "classes": 4, "dim": 3,
                     "per_class": 100, "spread": math.nan, "separation": 6.0,
                     "seed": 6}},
        {"seed": -1},
        {"dataset": {"type": "blobs", "classes": 4, "dim": 3,
                     "per_class": 100, "spread": 1.0, "separation": 6.0,
                     "seed": -3}},
    ], ids=["epochs_zero", "epochs_bool", "seed_str", "batch_size_float",
            "hidden_widths_str", "hidden_width_bool", "classes_str",
            "trainable_str", "lr_str", "kappa_bool", "blobs_seed_bool",
            "idx_paths_int", "dataset_list", "batch_size_zero",
            "labels_exceed_classes", "norm_scaled_takes_no_m",
            "plain_ce_takes_no_kappa", "m_maxx", "m_bool", "loss_kind_int",
            "loss_list", "limit_null", "limit_zero", "emnist_int",
            "blobs_unknown_key", "batch_size_default_as_float", "trainable_int",
            "out_dir_int", "classes_missing", "classifier_str",
            "classifier_too_large", "blobs_too_large", "blobs_dim_too_large",
            "kappa_nan", "kappa_inf", "lr_negative", "lr_nan", "blobs_spread_nan",
            "seed_negative", "blobs_seed_negative"])
    def test_config_types_and_ranges(self, tmp_path, monkeypatch, overrides):
        monkeypatch.chdir(tmp_path)  # a valid IDX pair for the idx cases
        data.write_idx(data.LabeledBatch(np.eye(4), np.arange(4)), "images",
                       "labels", 2, 2)
        path, _ = blob_config(tmp_path, **overrides)
        assert run(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,rule", [
        ({"loss": {"kind": "angular_margin", "kappa": math.nan}}, "kappa must be finite"),
        ({"loss": {"kind": "norm_scaled", "kappa": math.inf}}, "kappa must be finite"),
        ({"lr": -0.01}, "lr must be finite"),
        ({"lr": math.nan}, "lr must be finite"),
        ({"dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
                      "spread": math.nan, "separation": 6.0, "seed": 6}},
         "spread must be finite"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
                      "spread": 1.0, "separation": 6.0, "seed": -3}},
         "seed must be at least 0, got -3"),
    ], ids=["kappa_nan", "kappa_inf", "lr_negative", "lr_nan", "blobs_spread_nan",
            "seed_negative", "blobs_seed_negative"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_value_named(self, tmp_path, capsys, overrides, rule):
        path, _ = blob_config(tmp_path, **overrides)
        assert run(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rule}") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"hidden_widths": [10 ** 9]},
         "hidden widths [1000000000, 3] on 3 inputs need more than MAX_MODEL_ENTRIES "
         f"({network.MAX_MODEL_ENTRIES}) weights"),
        ({"epochs": 10 ** 9},
         f"epochs 1000000000 x 7 batches exceed MAX_TRAIN_STEPS "
         f"({network.MAX_TRAIN_STEPS}) steps"),
        ({"epochs": network.MAX_TRAIN_STEPS // 400 + 1, "batch_size": 1},
         f"epochs {network.MAX_TRAIN_STEPS // 400 + 1} x 400 batches exceed "
         f"MAX_TRAIN_STEPS ({network.MAX_TRAIN_STEPS}) steps"),
        ({"lr": 10 ** 400}, f"config key 'lr' {BEYOND_FLOAT}"),
        ({"loss": {"kind": "angular_margin", "kappa": 10 ** 400}},
         f"loss key 'kappa' {BEYOND_FLOAT}"),
        ({"loss": {"kind": "angular_margin", "m": 10 ** 400}},
         f"loss key 'm' {BEYOND_FLOAT}"),
        ({"dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
                      "spread": 10 ** 400, "separation": 6.0, "seed": 6}},
         f"blobs key 'spread' {BEYOND_FLOAT}"),
        ({"dataset": {"type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
                      "spread": 1.0, "separation": -10 ** 400, "seed": 6}},
         f"blobs key 'separation' must be a JSON number in float range, "
         f"got {str(-10 ** 400)[:40]}"),
    ], ids=["hidden_width", "epochs", "epochs_of_single_samples", "lr_beyond_float",
            "kappa_beyond_float", "m_beyond_float", "spread_beyond_float",
            "separation_beyond_float"])
    def test_too_large_run_named(self, tmp_path, capsys, overrides, message):
        path, _ = blob_config(tmp_path, **overrides)
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_idx_limit_takes_the_first_images(self, tmp_path):
        rng = np.random.default_rng(14)
        images = rng.random((40, 9))
        labels = np.arange(40) % 4
        data.write_idx(data.LabeledBatch(images, labels), tmp_path / "all-images",
                       tmp_path / "all-labels", 3, 3)
        data.write_idx(data.LabeledBatch(images[:25], labels[:25]),
                       tmp_path / "head-images", tmp_path / "head-labels", 3, 3)
        runs = {}
        for name, limit in (("all", {"limit": 25}), ("head", {})):
            path, _ = blob_config(tmp_path, epochs=3, batch_size=8, dataset={
                "type": "idx", "images": str(tmp_path / f"{name}-images"),
                "labels": str(tmp_path / f"{name}-labels"), **limit})
            assert run(["train", "--config", str(path),
                        "--out-dir", str(tmp_path / name)]) == 0
            runs[name] = [(tmp_path / name / f).read_bytes()
                          for f in ("epochs.csv", "features.csv")]
        assert runs["all"] == runs["head"]
        assert runs["all"][1].count(b"\n") == 26  # a header and 25 rows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_exits_2(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, lr=1e300, loss={"kind": "plain_ce"})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: loss nan at epoch 0 batch 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_trained_features_exit_2(self, tmp_path, capsys):
        # one finite step to huge weights: the loss and the parameters stay
        # finite, the features of the whole set do not
        path, _ = blob_config(tmp_path, epochs=1, batch_size=512, lr=1e300,
                              loss={"kind": "plain_ce"},
                              dataset={"type": "blobs", "classes": 3, "dim": 3,
                                       "per_class": 10, "spread": 1.0,
                                       "separation": 6.0, "seed": 6})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: the model gives non-finite features on this dataset\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_feature_norms_exit_2(self, tmp_path, capsys):
        # the features stay finite, but their norms, which the report takes,
        # overflow
        path, _ = blob_config(tmp_path, epochs=1, lr=3e76, hidden_widths=[3],
                              loss={"kind": "plain_ce"},
                              dataset={"type": "blobs", "classes": 4, "dim": 3,
                                       "per_class": 5, "spread": 1.0,
                                       "separation": 6.0, "seed": 6})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: the model gives non-finite features on this dataset\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("header,field", [
        ((2, 0, 2), "rows 0 is below 1"), ((2, 2, 0), "columns 0 is below 1"),
        ((-2, -2, 2), "image count -2 is below 0")],
        ids=["rows_zero", "cols_zero", "count_negative"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_idx_header_exits_2(self, tmp_path, capsys, header, field):
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">4i", data.IMAGE_MAGIC, *header) + bytes(8))
        labels.write_bytes(struct.pack(">2i", data.LABEL_MAGIC, 2) + bytes(2))
        path, _ = blob_config(tmp_path, dataset={"type": "idx", "images": str(images),
                                                 "labels": str(labels)})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {images}: header {field}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_features_exit_2(self, tmp_path, capsys):
        # blank images through zero biases give zero features, which the
        # margin loss cannot normalize
        data.write_idx(data.LabeledBatch(np.zeros((4, 4)), np.arange(4)),
                       tmp_path / "images", tmp_path / "labels", 2, 2)
        path, _ = blob_config(tmp_path, dataset={
            "type": "idx", "images": str(tmp_path / "images"),
            "labels": str(tmp_path / "labels")})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: feature norm at or below 1e-12; cannot normalize\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_blobs_exit_2(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, dataset={
            "type": "blobs", "classes": 4, "dim": 3, "per_class": 100,
            "spread": 1e308, "separation": 6.0, "seed": 6})
        assert run(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: spread 1e+308 and separation 6.0 give non-finite inputs\n")
        assert not (tmp_path / "run").exists()

    def test_training_errors_propagate(self, tmp_path, monkeypatch):
        # only reading the config maps to an exit code; a fault in the
        # computation keeps its traceback
        def broken(*args):
            raise ValueError("broken")
        monkeypatch.setattr(cli.network, "train", broken)
        path, _ = blob_config(tmp_path, epochs=1)
        with pytest.raises(ValueError, match="broken"):
            run(["train", "--config", str(path)])

    def test_config_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        assert run(["train", "--config", str(path)]) == 2

    def test_missing_config(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "nope.json")]) == 3

    def test_determinism_byte_identical(self, tmp_path):
        path, _ = blob_config(tmp_path, epochs=4)
        assert run(["train", "--config", str(path),
                    "--out-dir", str(tmp_path / "a")]) == 0
        assert run(["train", "--config", str(path),
                    "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.json", "epochs.csv", "geometry.json",
                     "features.csv", "features_norm.csv", "config_resolved.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


README = Path(__file__).resolve().parents[1] / "README.md"
TYPE_NAMES = {int: "integer", float: "number", bool: "true/false", str: "string",
              list: "list of integers", dict: "object"}


class TestReadme:
    def test_config_example_trains(self, tmp_path):
        example = README.read_text().split("```json\n")[1].split("```")[0]
        path = tmp_path / "run.json"
        path.write_text(example)
        assert run(["train", "--config", str(path),
                    "--out-dir", str(tmp_path / "run")]) == 0

    def test_key_table_matches_the_config_reader(self):
        rows = re.findall(r"^\| (\w+) +\| `(\w+)` +\| ([^|]+?) +\| ([^|]+?) +\|$",
                          README.read_text(), re.M)
        assert [(section, key) for section, key, _, _ in rows] == [
            (section, key) for section, keys in cli._SECTIONS.items()
            for key in keys]
        for section, key, type_name, default in rows:
            kind, value = cli._SECTIONS[section][key]
            assert type_name.startswith(TYPE_NAMES[kind])
            if default == "required":
                assert value is cli._REQUIRED
            elif default == "every item":
                assert value is None
            else:
                assert json.loads(default.strip("`")) == value


class TestEval:
    def test_eval_training_blobs(self, tmp_path, capsys):
        path, config = blob_config(tmp_path)
        assert run(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        ds = config["dataset"]
        assert run(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                    "--blobs-classes", str(ds["classes"]),
                    "--blobs-dim", str(ds["dim"]),
                    "--blobs-per-class", str(ds["per_class"]),
                    "--blobs-spread", str(ds["spread"]),
                    "--blobs-separation", str(ds["separation"]),
                    "--blobs-seed", str(ds["seed"])]) == 0
        printed = capsys.readouterr().out
        acc = float(printed.split("accuracy=")[1].split()[0])
        assert acc >= 0.99

    def test_mismatched_input_dim(self, tmp_path):
        path, _ = blob_config(tmp_path, epochs=1)
        assert run(["train", "--config", str(path)]) == 0
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json"),
                    "--blobs-classes", "4", "--blobs-dim", "7"]) == 2

    def test_blobs_too_large(self, tmp_path):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes",
                    "100000000", "--blobs-dim", "3"]) == 2

    @pytest.mark.parametrize("blobs", [["--blobs-dim", "1000000000000"],
                                       ["--blobs-dim", "3", "--blobs-per-class",
                                        "1000000000000"]], ids=["dim", "per_class"])
    def test_blobs_entries_too_many(self, tmp_path, capsys, blobs):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    *blobs]) == 2
        assert "MAX_BLOB_ENTRIES" in capsys.readouterr().err

    @pytest.mark.parametrize("blobs,rule", [
        (["--blobs-spread", "nan"], "spread must be finite"),
        (["--blobs-spread", "-1"], "spread must be finite"),
        (["--blobs-separation", "inf"], "separation must be finite"),
        (["--blobs-seed", "-1"], "seed must be at least 0, got -1")],
        ids=["spread_nan", "spread_negative", "separation_inf", "seed_negative"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_blobs_value_named(self, tmp_path, capsys, blobs, rule):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3", *blobs,
                    "--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rule}") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_blobs_exit_2(self, tmp_path, capsys):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3", "--blobs-spread", "1e308",
                    "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == (
            "error: spread 1e+308 and separation 6.0 give non-finite inputs\n")
        assert not (tmp_path / "report.json").exists()

    def test_labels_beyond_the_head(self, tmp_path, capsys):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(model, path)
        blobs = ["--blobs-dim", "3", "--blobs-per-class", "5"]
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "4",
                    *blobs]) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "5",
                    *blobs, "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == (
            "error: dataset label 4 needs more than the checkpoint's 4 classes\n")
        assert not (tmp_path / "report.json").exists()

    def test_missing_checkpoint(self, tmp_path):
        assert run(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                    "--blobs-classes", "2"]) == 3

    @pytest.mark.parametrize("text", ["{ not json", '{"input_dim": 3}',
                                      '{"input_dim": 3, "layers": [], '
                                      '"head": {"type": "fixed", "weights": {}}}'])
    def test_malformed_checkpoint(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        assert run(["eval", "--checkpoint", str(path),
                    "--blobs-classes", "2"]) == 2

    # each edit with the eval data it is scored on; a one-row head cannot
    # score the 2-class blobs, so it gets data whose labels are all 0
    @pytest.mark.parametrize("edit,zero_labels", [
        pytest.param(lambda p: p["head"].update(type="trainable",
                                                rows=[[1.0, 0.0, 0.0]] * 4),
                     False, id="trainable_rows_too_wide"),
        pytest.param(lambda p: p["head"].update(type="trainable", rows=[1.0, 0.0]),
                     False, id="trainable_rows_1d"),
        pytest.param(lambda p: p["head"].update(weights=to_dict(make_simplex(5))),
                     False, id="fixed_head_other_d"),
        pytest.param(lambda p: p["layers"][0].update(b=p["layers"][0]["b"][:-1]),
                     False, id="b_shorter_than_w"),
        pytest.param(lambda p: p["layers"][0].update(
                         w=[r + [0.0] for r in p["layers"][0]["w"]]),
                     False, id="w_wider_than_input_dim"),
        pytest.param(lambda p: p["layers"][1]["w"][0].__setitem__(0, math.nan),
                     False, id="nan_weight"),
        pytest.param(lambda p: p["head"].update(type="trainable",
                                                rows=[[1.0, 0.0], [0.0, 0.0]]),
                     False, id="zero_trainable_row"),
        pytest.param(lambda p: p.update(input_dim=math.inf),
                     False, id="infinite_input_dim"),
        pytest.param(lambda p: p.update(input_dim=3.5), False, id="fractional_input_dim"),
        pytest.param(lambda p: p.update(input_dim="3"), False, id="string_input_dim"),
        pytest.param(lambda p: p["head"]["weights"].update(d=2.0),
                     False, id="fixed_head_float_d"),
        pytest.param(lambda p: p["head"]["weights"].update(phi=str(math.pi / 2)),
                     False, id="fixed_head_string_phi"),
        pytest.param(lambda p: p["layers"][0]["w"][0].__setitem__(0, 1e308),
                     False, id="overflowing_weight"),
        pytest.param(lambda p: p["head"].update(type="trainable", rows=[[1.0, 0.0]]),
                     True, id="one_trainable_row"),
        pytest.param(lambda p: p["head"].update(type="banana", rows=[[1.0, 0.0]] * 4),
                     False, id="unknown_head_type"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inconsistent_checkpoint(self, tmp_path, edit, zero_labels):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        payload = network.model_to_dict(model)
        edit(payload)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        eval_data = ["--blobs-classes", "2", "--blobs-dim", "3"]
        if zero_labels:
            images, labels = tmp_path / "images", tmp_path / "labels"
            data.write_idx(data.LabeledBatch(np.full((4, 3), 0.5), np.zeros(4, dtype=int)),
                           images, labels, 1, 3)
            eval_data = ["--images", str(images), "--labels", str(labels)]
        assert run(["eval", "--checkpoint", str(path), *eval_data]) == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(layers={}), "layers must be a JSON list of objects, got {}"),
        (lambda p: p.update(head=[1]), "head must be a JSON object, got [1]"),
        (lambda p: p["head"].update(type=5), "head type must be a JSON string, got 5"),
        (lambda p: p["head"].update(weights=[1]), "weights must be a JSON object, got [1]"),
        (lambda p: p["head"]["weights"].update(phi=10 ** 320),
         f"phi must be a JSON number in float range, got {str(10 ** 320)[:40]}"),
        (lambda p: p["layers"][1]["w"][0].__setitem__(1, 10 ** 400),
         "layer 1 w holds an integer beyond float range"),
        (lambda p: p["head"].update(type="trainable", rows=[[1.0, 10 ** 400]] * 4),
         "head rows hold an integer beyond float range"),
    ], ids=["layers_object", "head_list", "head_type_int", "weights_list",
            "fixed_head_phi_beyond_float",
            "weight_beyond_float", "trainable_row_beyond_float"])
    def test_malformed_value_named(self, tmp_path, capsys, edit, message):
        payload = network.model_to_dict(network.init_model(3, [5, 2], make_orthoplex(4),
                                                           seed=0))
        edit(payload)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_images_without_labels(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, epochs=1)
        assert run(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json"),
                    "--images", str(tmp_path / "images")]) == 2
        assert capsys.readouterr() == ("", "error: --images needs --labels\n")

    def test_no_dataset_args(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, epochs=1)
        run(["train", "--config", str(path)])
        capsys.readouterr()
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json")]) == 2
        assert capsys.readouterr() == (
            "", "error: provide --images/--labels or --blobs-* options\n")


# messages of a raw lookup or float conversion, which name no key
UNNAMED = re.compile("int too large to convert|indices must be integers|string indices")
# 10**9 is a huge count or width, 10**400 one beyond every float
JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.floats(),
                 st.integers(-3, 3), st.sampled_from([10 ** 9, 10 ** 400]),
                 st.lists(st.sampled_from([0, 1, 2, 10 ** 9]), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def perturb(payload, data):
    """Drop a key, shorten or lengthen a list, or put junk at one place in
    a JSON tree; the walk stops at a random depth."""
    root = container = {"root": payload}
    key, node = "root", payload
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        container = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        node = container[key]
    action = data.draw(st.sampled_from(["drop", "junk", "shorten", "lengthen"]))
    if action == "drop":
        del container[key]
    elif action == "junk":
        container[key] = data.draw(JUNK)
    elif isinstance(node, list) and node:
        if action == "shorten":
            node.pop()
        else:
            node.append(json.loads(json.dumps(node[-1])))
    return root.get("root")


class TestEvalFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_perturbed_checkpoint_exits_0_or_2(self, tmp_path, capsys, data):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0,
                                   trainable=data.draw(st.booleans()))
        payload = network.model_to_dict(model)
        for _ in range(data.draw(st.integers(1, 3))):
            payload = perturb(payload, data)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        code = run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3", "--blobs-per-class", "5",
                    "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert not (code == 2 and UNNAMED.search(err))


class TestTrainConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_perturbed_config_exits_0_2_or_3(self, tmp_path, capsys, data):
        # now and then a run of too many steps or a model too large to build
        sizes = data.draw(st.sampled_from([{}] * 6 + [{"epochs": 10 ** 400},
                                                       {"hidden_widths": [10 ** 9]}]))
        _, config = blob_config(tmp_path, **{"epochs": 1, "hidden_widths": [3], **sizes},
                                dataset={"type": "blobs", "classes": 4, "dim": 3,
                                         "per_class": 5, "spread": 1.0,
                                         "separation": 6.0, "seed": 6})
        for _ in range(data.draw(st.integers(1, 3))):
            config = perturb(config, data)
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(config))
        code = run(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert err == "" if code == 0 else (err.startswith("error: ")
                                            and err.count("\n") == 1)
        assert not (code == 2 and UNNAMED.search(err))


# IDX header fields at their edges (negative, zero, the int32 limits) or small
# and valid, so that some draws get past the header to the run
HEADER_FIELDS = st.one_of(st.sampled_from([-2 ** 31, -2, -1, 0, 2 ** 31 - 1]),
                          st.integers(1, 3))
PAYLOAD_SIZES = ["truncated", "exact", "long"]


def idx_bytes(magic, fields, size):
    """An IDX file: ``magic`` and header ``fields``, then a payload shorter
    than, as long as or longer than the header asks for, at most 4 KB.  Every
    byte is 0, 1 or 2, a pixel and a label of a 4-class head."""
    wanted = math.prod(fields) if min(fields) >= 0 else 0
    length = min(4096, max(0, wanted + {"truncated": -1, "exact": 0, "long": 5}[size]))
    return (struct.pack(f">{1 + len(fields)}i", magic, *fields)
            + bytes(i % 3 for i in range(length)))


class TestIdxHeaderFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(images=st.tuples(HEADER_FIELDS, HEADER_FIELDS, HEADER_FIELDS),
           labels=st.one_of(st.none(), HEADER_FIELDS),  # None: the image count
           image_size=st.sampled_from(PAYLOAD_SIZES),
           label_size=st.sampled_from(PAYLOAD_SIZES))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_and_eval_exit_0_or_2(self, tmp_path, capsys, images, labels,
                                        image_size, label_size):
        (tmp_path / "images").write_bytes(idx_bytes(data.IMAGE_MAGIC, images, image_size))
        label_count = images[0] if labels is None else labels
        (tmp_path / "labels").write_bytes(idx_bytes(data.LABEL_MAGIC, (label_count,),
                                                    label_size))
        checkpoint = tmp_path / "ckpt.json"
        network.save_checkpoint(network.init_model(4, [3, 2], make_orthoplex(4), seed=0),
                                checkpoint)
        config, _ = blob_config(tmp_path, epochs=1, hidden_widths=[3],
                                classifier={"kind": "orthoplex", "classes": 4},
                                dataset={"type": "idx", "images": str(tmp_path / "images"),
                                         "labels": str(tmp_path / "labels")})
        for argv in (["train", "--config", str(config)],
                     ["eval", "--checkpoint", str(checkpoint), "--images",
                      str(tmp_path / "images"), "--labels", str(tmp_path / "labels")]):
            assert run(argv) in (0, 2)
            err = capsys.readouterr().err
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
