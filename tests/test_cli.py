import argparse
import base64
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polyhead import cli, data, network
from polyhead.polytope import (PolytopeKind, load_json, make_cube, make_orthoplex,
                               make_simplex, make_weights, to_dict)
from reference import README, traced_peak


def run(args):
    return cli.main(args)


def decoded(entry) -> np.ndarray:
    """The writable array of a stored ``{"shape", "base64"}`` entry."""
    return np.frombuffer(base64.b64decode(entry["base64"]), "<f8").reshape(entry["shape"]).copy()


def encoded(values) -> dict:
    """The stored entry of an array, in a head file or a checkpoint: its shape
    and the padded base64 of its float64 values, little-endian, in C order."""
    array = np.asarray(values, dtype="<f8")
    return {"shape": list(array.shape), "base64": base64.b64encode(array.tobytes()).decode()}


def edited(entry, change) -> dict:
    """The array of a stored ``entry`` passed through ``change`` (which
    returns the new array) and encoded again."""
    return encoded(change(decoded(entry)))


def first_entry(value):
    """A ``change`` for ``edited``: sets the array's first entry to ``value``."""
    return lambda array: np.put(array, 0, value) or array


def trainable_head(**weights):
    """A checkpoint edit: the head made trainable, with these keys of its
    ``weights`` set."""
    return lambda p: p["head"].update(type="trainable") or p["head"]["weights"].update(weights)


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
        rows = decoded(payload["rows"])
        rows[0][0] += 0.01
        payload["rows"] = encoded(rows)
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
                                   "phi": 2 * math.pi / 3, "rows": encoded(rows)}))
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
                                   "rows": encoded([[1.0], [-1.0], [1.0]])}))
        assert run(["check", "--weights", str(out), "--tol", "4"]) == 1
        assert "vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1e-10", "inf", "1e400"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        out = tmp_path / "w.json"
        run(["gen-weights", "--kind", "simplex", "--classes", "4",
             "--out", str(out)])
        capsys.readouterr()
        assert run(["check", "--weights", str(out), f"--tol={tol}"]) == 2
        assert capsys.readouterr() == ("", f"error: tol must be finite and >= 0, "
                                           f"got {float(tol)}\n")

    def test_the_head_file_is_read_before_the_tol(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["check", "--weights", str(missing), "--tol=nan"]) == 3
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or "
                                           f"directory: '{missing}'\n")

    # rows given as JSON lists, the layout before base64 entries, fail on
    # their rows after the kind; test_header_value_named meets every check
    # of a head file that holds base64 rows
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
        (lambda p: p["rows"]["shape"].__setitem__(1, "2"),
         "rows shape must be a JSON list of integers, got [3, '2']"),
        (lambda p: p["rows"]["shape"].__setitem__(1, True),
         "rows shape must be a JSON list of integers, got [3, True]"),
        (lambda p: p["rows"]["shape"].__setitem__(1, [2]),
         "rows shape must be a JSON list of integers, got [3, [2]]"),
        (lambda p: p["rows"].update(shape=[3, 1]), "rows holds 48 bytes, shape [3, 1] needs 24"),
        (lambda p: p["rows"].update(shape=[6]), "rows shape must be 2 positive integers, got [6]"),
        (lambda p: p.update(d=True), "d must be a JSON integer, got True"),
        (lambda p: p.update(phi="1.0"), "phi must be a JSON number in float range, got '1.0'"),
        (lambda p: p.update(phi=True), "phi must be a JSON number in float range, got True"),
        (lambda p: p.update(K=4),
         "head rows must be finite, at least 2 and of shape (4, 2); got shape (3, 2)"),
        (lambda p: p.update(d=3),
         "head rows must be finite, at least 2 and of shape (3, 3); got shape (3, 2)"),
        (lambda p: p.update(K=1, rows=edited(p["rows"], lambda rows: rows[:1])),
         "head rows must be finite, at least 2 and of shape (1, 2); got shape (1, 2)"),
        (lambda p: p.update(rows=edited(p["rows"], first_entry(math.nan))),
         "non-finite value in rows"),
        (lambda p: p["rows"].update(base64="[[1.0, 0.0]]"),
         "rows base64 must be padded base64 text, got '[[1.0, 0.0]]'"),
        (lambda p: p.pop("rows") and None, "rows must be a JSON object, got None"),
        # the layout before base64 entries
        (lambda p: p.update(rows=make_simplex(3).rows.tolist()),
         f"rows must be a JSON object, got {make_simplex(3).rows.tolist()!r:.40}"),
    ], ids=["phi_beyond_float", "kind_int", "list_document", "row_entry_string",
            "row_entry_bool", "row_entry_list", "ragged_rows", "rows_1d", "d_bool",
            "phi_string", "phi_bool", "K_disagrees", "d_disagrees", "one_row", "nan_row",
            "rows_not_base64", "rows_missing", "rows_old_layout"])
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


def eval_on_training_data(run_dir, config) -> bytes:
    """The report ``eval --out`` writes for the run's checkpoint on the
    blobs it was trained on."""
    blobs = [arg for key in cli._EVAL_BLOBS
             for arg in (f"--blobs-{key.replace('_', '-')}", str(config["dataset"][key]))]
    assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"), *blobs,
                "--out", str(run_dir / "eval.json")]) == 0
    return (run_dir / "eval.json").read_bytes()


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
        path, config = blob_config(
            tmp_path,
            classifier={"kind": "simplex", "classes": 4, "trainable": True},
            epochs=3)
        assert run(["train", "--config", str(path)]) == 0
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert ckpt["head"]["type"] == "trainable"
        report = json.loads((tmp_path / "run" / "geometry.json").read_text())
        assert report["phi"] == make_simplex(4).phi  # the polytope it stands in for
        assert (eval_on_training_data(tmp_path / "run", config)
                == (tmp_path / "run" / "geometry.json").read_bytes())

    def test_fixed_head_identical_to_polytope(self, tmp_path):
        from polyhead.polytope import make_simplex
        path, config = blob_config(tmp_path, epochs=2)
        assert run(["train", "--config", str(path)]) == 0
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        rows = decoded(ckpt["head"]["weights"]["rows"])
        assert np.array_equal(rows, make_simplex(4).rows)
        assert (eval_on_training_data(tmp_path / "run", config)
                == (tmp_path / "run" / "geometry.json").read_bytes())

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

    @staticmethod
    def refused_out_dir(tmp_path, monkeypatch, given_by, out_dir) -> int:
        """``train``'s exit code with ``out_dir`` given by the config or the
        flag.  The data is never built and the model never trained: either
        would end in a traceback here."""
        def broken(*args):
            raise RuntimeError("reached")
        monkeypatch.setattr(cli.datamod, "make_blobs", broken)
        monkeypatch.setattr(cli.network, "train", broken)
        if given_by == "config":
            path, _ = blob_config(tmp_path, epochs=1, out_dir=out_dir)
            return run(["train", "--config", str(path)])
        path, _ = blob_config(tmp_path, epochs=1)
        return run(["train", "--config", str(path), "--out-dir", out_dir])

    @pytest.mark.parametrize("given_by", ["config", "flag"])
    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_out_dir_through_a_file_exits_3_before_training(self, tmp_path, capsys,
                                                           monkeypatch, given_by, under):
        blocker = tmp_path / "taken"
        blocker.write_text("a file")
        out_dir = str(blocker / "run" if under else blocker)
        assert self.refused_out_dir(tmp_path, monkeypatch, given_by, out_dir) == 3
        assert capsys.readouterr() == ("", f"error: [Errno 20] Not a directory: "
                                           f"'{blocker}'\n")
        assert blocker.read_text() == "a file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("given_by", ["config", "flag"])
    def test_out_dir_with_nul_exits_2_before_training(self, tmp_path, capsys,
                                                      monkeypatch, given_by):
        out_dir = str(tmp_path / "run\0x")
        assert self.refused_out_dir(tmp_path, monkeypatch, given_by, out_dir) == 2
        assert capsys.readouterr() == ("", f"error: out_dir must not hold a NUL "
                                           f"character, got {out_dir!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

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
                     "features.csv", "config_resolved.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_many_class_reruns_in_subprocesses_are_byte_identical(self, tmp_path):
        # a 1000-class head's products are the ones whose bits depend on the
        # BLAS thread count, so both runs pin it, and the score runs in blocks
        path, _ = blob_config(
            tmp_path, epochs=2, batch_size=256, hidden_widths=[16],
            classifier={"kind": "cube", "classes": 1000},
            dataset={"type": "blobs", "classes": 1000, "dim": 12, "per_class": 2,
                     "spread": 1.0, "separation": 6.0, "seed": 6})
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for name in ("a", "b"):
            out = tmp_path / name
            for args in (["train", "--config", str(path), "--out-dir", str(out)],
                         ["eval", "--checkpoint", str(out / "checkpoint.json"),
                          "--blobs-classes", "1000", "--blobs-dim", "12",
                          "--blobs-per-class", "2", "--out", str(out / "eval.json")]):
                proc = subprocess.run([sys.executable, "-m", "polyhead.cli", *args],
                                      env=env, capture_output=True, text=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == ["checkpoint.json", "config_resolved.json", "epochs.csv",
                         "eval.json", "features.csv", "geometry.json"]
        for name in files:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name


TYPE_NAMES = {int: "integer", float: "number", bool: "true/false", str: "string",
              list: "list of integers", dict: "object"}


class TestReadme:
    def test_config_example_trains(self, tmp_path):
        example = README.read_text().split("```json\n")[1].split("```")[0]
        path = tmp_path / "run.json"
        path.write_text(example)
        assert run(["train", "--config", str(path),
                    "--out-dir", str(tmp_path / "run")]) == 0

    def test_run_files_match_the_readme(self, tmp_path):
        sentence = README.read_text().split(
            "`train` writes into the output directory:")[1].split("Runs are")[0]
        path, _ = blob_config(tmp_path, epochs=1)
        assert run(["train", "--config", str(path)]) == 0
        assert ({p.name for p in (tmp_path / "run").iterdir()}
                == set(re.findall(r"`(\w+\.\w+)`", sentence)))

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
        pytest.param(trainable_head(d=3, rows=encoded([[1.0, 0.0, 0.0]] * 4)),
                     False, id="trainable_rows_too_wide"),
        pytest.param(trainable_head(rows=encoded([1.0, 0.0])),
                     False, id="trainable_rows_1d"),
        pytest.param(lambda p: p["head"].update(weights=to_dict(make_simplex(5))),
                     False, id="fixed_head_other_d"),
        pytest.param(lambda p: p["layers"][0].update(
                         b=edited(p["layers"][0]["b"], lambda b: b[:-1])),
                     False, id="b_shorter_than_w"),
        pytest.param(lambda p: p["layers"][0].update(
                         w=edited(p["layers"][0]["w"],
                                  lambda w: np.hstack([w, np.zeros((len(w), 1))]))),
                     False, id="w_wider_than_input_dim"),
        pytest.param(lambda p: p["layers"][1].update(
                         w=edited(p["layers"][1]["w"], first_entry(math.nan))),
                     False, id="nan_weight"),
        pytest.param(trainable_head(K=2, rows=encoded([[1.0, 0.0], [0.0, 0.0]])),
                     False, id="zero_trainable_row"),
        pytest.param(lambda p: p.update(input_dim=math.inf),
                     False, id="infinite_input_dim"),
        pytest.param(lambda p: p.update(input_dim=3.5), False, id="fractional_input_dim"),
        pytest.param(lambda p: p.update(input_dim="3"), False, id="string_input_dim"),
        pytest.param(lambda p: p["head"]["weights"].update(d=2.0),
                     False, id="fixed_head_float_d"),
        pytest.param(lambda p: p["head"]["weights"].update(phi=str(math.pi / 2)),
                     False, id="fixed_head_string_phi"),
        pytest.param(lambda p: p["layers"][0].update(
                         w=edited(p["layers"][0]["w"], first_entry(1e308))),
                     False, id="overflowing_weight"),
        pytest.param(trainable_head(K=1, rows=encoded([[1.0, 0.0]])),
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
        (lambda p: p["layers"][1].update(w=dict(encoded(np.zeros(9)), shape=[2, 5])),
         "layer 1 w holds 72 bytes, shape [2, 5] needs 80"),
        (trainable_head(rows={"shape": [4, 2], "base64": "[[1.0, 0.0]]"}),
         "rows base64 must be padded base64 text, got '[[1.0, 0.0]]'"),
        (lambda p: p["layers"][1].pop("b") and None, "layer 1 b must be a JSON object, got None"),
        (lambda p: trainable_head()(p) or p["head"]["weights"].pop("rows") and None,
         "rows must be a JSON object, got None"),
        (trainable_head(K=3),
         "head rows must be finite, at least 2 and of shape (3, 2); got shape (4, 2)"),
        # a fixed head in the layout before base64 entries
        (lambda p: p["head"]["weights"].update(rows=make_orthoplex(4).rows.tolist()),
         f"rows must be a JSON object, got {make_orthoplex(4).rows.tolist()!r:.40}"),
        # a trainable head in the layout before one head layout: bare rows
        (lambda p: p.update(head={"type": "trainable",
                                  "rows": p["head"]["weights"]["rows"]}),
         "missing key 'weights'"),
    ], ids=["layers_object", "head_list", "head_type_int", "weights_list",
            "fixed_head_phi_beyond_float",
            "weight_wrong_byte_count", "trainable_rows_not_base64", "missing_bias",
            "missing_trainable_rows", "trainable_rows_other_K", "fixed_head_rows_old_layout",
            "trainable_head_rows_old_layout"])
    def test_malformed_value_named(self, tmp_path, capsys, edit, message):
        payload = network.model_to_dict(network.init_model(3, [5, 2], make_orthoplex(4),
                                                           seed=0))
        edit(payload)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # each refusal of the first array, layer 0 w of shape [5, 3]
    @pytest.mark.parametrize("edit,message", [
        (lambda w: np.eye(5, 3).tolist(),
         f"layer 0 w must be a JSON object, got {np.eye(5, 3).tolist()!r:.40}"),
        (lambda w: {"base64": w["base64"]},
         "layer 0 w shape must be a JSON list of integers, got None"),
        (lambda w: dict(w, shape=[5, 3.0]),
         "layer 0 w shape must be a JSON list of integers, got [5, 3.0]"),
        (lambda w: dict(w, shape=[15]), "layer 0 w shape must be 2 positive integers, got [15]"),
        (lambda w: dict(w, shape=[-5, -3]),
         "layer 0 w shape must be 2 positive integers, got [-5, -3]"),
        (lambda w: dict(w, shape=[2 ** 12, 2 ** 12 + 1]),
         f"layer 0 w shape [4096, 4097] holds more than {network.MAX_MODEL_ENTRIES} entries"),
        (lambda w: dict(w, base64="0.1, 0.2"),
         "layer 0 w base64 must be padded base64 text, got '0.1, 0.2'"),
        (lambda w: dict(w, shape=[5, 2]), "layer 0 w holds 120 bytes, shape [5, 2] needs 80"),
        (lambda w: edited(w, first_entry(math.inf)), "non-finite value in layer 0 w"),
    ], ids=["text_array", "missing_shape", "float_in_shape", "wrong_ndim", "negative_shape",
            "too_many_entries", "not_base64", "wrong_byte_count", "infinite_weight"])
    def test_checkpoint_array_named(self, tmp_path, capsys, edit, message):
        payload = network.model_to_dict(network.init_model(3, [5, 2], make_orthoplex(4),
                                                           seed=0))
        payload["layers"][0]["w"] = edit(payload["layers"][0]["w"])
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

    @pytest.mark.parametrize("flags,message", [
        (["--labels", "labels", "--blobs-classes", "2"], "--labels needs --images"),
        (["--blobs-classes", "0"], "need at least 2 classes, got 0"),
        (["--blobs-classes", "2", "--emnist"], "--emnist needs --images")],
        ids=["labels_without_images", "zero_blob_classes", "emnist_on_blobs"])
    def test_dataset_flags_named(self, tmp_path, capsys, flags, message):
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(network.init_model(3, [5, 2], make_orthoplex(4), seed=0), path)
        assert run(["eval", "--checkpoint", str(path), "--blobs-dim", "3", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # a flag of the other dataset is named even at the value it would take
    @pytest.mark.parametrize("flags,message", [
        (["--blobs-classes", "4", "--blobs-dim", "7"],
         "--blobs-classes, --blobs-dim cannot be used with --images"),
        (["--blobs-seed", "0"], "--blobs-seed cannot be used with --images"),
        (["--blobs-per-class", "100", "--blobs-spread", "1", "--blobs-separation", "6"],
         "--blobs-per-class, --blobs-spread, --blobs-separation cannot be used with --images"),
    ], ids=["classes_and_dim", "seed_at_default", "three_at_default"])
    def test_blobs_flags_with_images_named(self, tmp_path, capsys, flags, message):
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(network.init_model(3, [5, 2], make_orthoplex(4), seed=0), path)
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(data.LabeledBatch(np.full((4, 3), 0.5), np.zeros(4, dtype=int)),
                       images, labels, 1, 3)
        idx = ["eval", "--checkpoint", str(path), "--images", str(images),
               "--labels", str(labels)]
        assert run(idx) == 0
        capsys.readouterr()
        assert run([*idx, *flags, "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "report.json").exists()

    def test_blobs_flag_defaults(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        network.save_checkpoint(network.init_model(3, [5, 2], make_orthoplex(4), seed=0), path)
        blobs = ["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                 "--blobs-dim", "3"]
        assert run([*blobs, "--out", str(tmp_path / "omitted.json")]) == 0
        omitted = capsys.readouterr()
        assert run([*blobs, "--blobs-per-class", "100", "--blobs-spread", "1.0",
                    "--blobs-separation", "6.0", "--blobs-seed", "0",
                    "--out", str(tmp_path / "given.json")]) == 0
        assert capsys.readouterr() == omitted
        assert ((tmp_path / "omitted.json").read_bytes()
                == (tmp_path / "given.json").read_bytes())

    def test_no_dataset_args(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, epochs=1)
        run(["train", "--config", str(path)])
        capsys.readouterr()
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json")]) == 2
        assert capsys.readouterr() == (
            "", "error: provide --images/--labels or --blobs-* options\n")


def outcome(capsys, argv) -> tuple:
    """The exit code, stdout and stderr of one ``cli.main`` call."""
    code = run(argv)
    return (code, *capsys.readouterr())


# argv, exit code, and a line argparse prints: usage errors print the usage
# and the error on stderr, help prints on stdout
USAGE_CASES = {
    "no_command": ([], 2, "polyhead: error: the following arguments are required: "
                          "command"),
    "check_without_weights": (["check"], 2, "polyhead check: error: the following "
                                            "arguments are required: --weights"),
    "unknown_flag": (["check", "--weights", "w.json", "--nope"], 2,
                     "polyhead: error: unrecognized arguments: --nope"),
    "classes_not_a_number": (["gen-weights", "--kind", "cube", "--classes", "ten",
                              "--out", "w.json"], 2,
                             "polyhead gen-weights: error: argument --classes: "
                             "invalid int value: 'ten'"),
    "help": (["--help"], 0, "usage: polyhead [-h] {gen-weights,check,train,eval} ..."),
    "check_help": (["check", "-h"], 0, "usage: polyhead check [-h] --weights WEIGHTS "
                                       "[--tol TOL]"),
}


class TestOneParser:
    """``cli.main`` parses every call with the parser of its first call."""

    def test_no_parser_built_after_the_first_call(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        assert run(["--help"]) == 0  # the process's first call, if no test made it
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        weights = tmp_path / "w.json"
        path, _ = blob_config(tmp_path, epochs=1)
        checkpoint = tmp_path / "run" / "checkpoint.json"
        for argv in (["gen-weights", "--kind", "cube", "--classes", "4",
                      "--out", str(weights)],
                     ["check", "--weights", str(weights)],
                     ["train", "--config", str(path)],
                     ["eval", "--checkpoint", str(checkpoint), "--blobs-classes", "4",
                      "--blobs-dim", "3"]):
            assert run(argv) == 0
        assert built == []

    @pytest.mark.parametrize("argv,code,line", USAGE_CASES.values(), ids=USAGE_CASES)
    def test_usage_errors_and_help_repeat(self, tmp_path, capsys, monkeypatch, argv,
                                          code, line):
        monkeypatch.setenv("COLUMNS", "100")  # the width argparse wraps usage to
        weights = tmp_path / "w.json"
        gen = ["gen-weights", "--kind", "simplex", "--classes", "10", "--out", str(weights)]
        made = (outcome(capsys, gen), weights.read_bytes())
        assert made[0][0] == 0
        first = outcome(capsys, argv)
        weights.unlink()
        assert (outcome(capsys, gen), weights.read_bytes()) == made
        assert outcome(capsys, argv) == first
        _, out, err = first
        assert first[0] == code
        if code == 0:
            assert err == "" and out.startswith(line + "\n")
        else:
            assert out == "" and err.startswith("usage: polyhead")
            assert err.endswith(line + "\n")

    def test_no_flag_value_carries_over(self, tmp_path, capsys, monkeypatch):
        # each flagged call sits between two identical calls without the flag
        weights = tmp_path / "w.json"
        assert run(["gen-weights", "--kind", "simplex", "--classes", "47",
                    "--out", str(weights)]) == 0
        capsys.readouterr()
        check = ["check", "--weights", str(weights)]
        first = outcome(capsys, check)
        flagged = outcome(capsys, [*check, "--tol", "0"])  # worst deviation 2.2e-16
        assert first[0] == 0 and flagged[0] == 1 and "FAIL" in flagged[1]
        assert outcome(capsys, check) == first

        checkpoint = tmp_path / "ckpt.json"
        network.save_checkpoint(network.init_model(2, [5, 2], make_orthoplex(4), seed=0),
                                checkpoint)
        blobs = ["eval", "--checkpoint", str(checkpoint), "--blobs-classes", "4"]
        first = outcome(capsys, blobs)
        assert first[0] == 0  # the 2-d blobs of _EVAL_BLOBS
        assert outcome(capsys, [*blobs, "--blobs-dim", "3"]) == (
            2, "", "error: dataset input dim 3 != checkpoint input dim 2\n")
        assert outcome(capsys, blobs) == first

        emnist = []
        load_idx = data.load_idx

        def recording(*args, **kwargs):
            emnist.append(kwargs["emnist"])
            return load_idx(*args, **kwargs)
        monkeypatch.setattr(cli.datamod, "load_idx", recording)
        checkpoint = tmp_path / "ckpt4.json"
        network.save_checkpoint(network.init_model(4, [5, 2], make_orthoplex(4), seed=0),
                                checkpoint)
        images, labels = tmp_path / "images", tmp_path / "labels"
        data.write_idx(data.LabeledBatch(np.arange(24).reshape(6, 4) / 23.0,
                                         np.arange(6) % 4), images, labels, 2, 2)
        idx = ["eval", "--checkpoint", str(checkpoint), "--images", str(images),
               "--labels", str(labels)]
        first = outcome(capsys, idx)
        assert first[0] == 0 and outcome(capsys, [*idx, "--emnist"])[0] == 0
        assert outcome(capsys, idx) == first
        assert emnist == [False, True, False]


# messages of a raw lookup, a float conversion, numpy's array building or
# base64 decoding, which name no key
UNNAMED = re.compile("int too large to convert|indices must be integers|string indices|"
                     "inhomogeneous|could not convert|padding|Only base64|Invalid base64")
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


def test_every_property_runs_derandomized_without_a_database():
    # conftest.py loads the profile; each @settings(...) here inherits it
    active = settings(max_examples=1)
    assert active.derandomize and active.database is None and active.deadline is None


class TestEvalFuzz:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


class TestCheckFuzz:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_perturbed_head_file_exits_0_1_or_2(self, tmp_path, capsys, data):
        payload = to_dict(make_weights(data.draw(st.sampled_from(list(PolytopeKind))),
                                       data.draw(st.integers(2, 6))))
        for _ in range(data.draw(st.integers(1, 3))):
            payload = perturb(payload, data)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code = run(["check", "--weights", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert err == "" if code != 2 else (err.startswith("error: ")
                                            and err.count("\n") == 1)
        assert not (code == 2 and UNNAMED.search(err))


class TestTrainConfigFuzz:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


class TestScoreMemory:
    """``_score`` and ``predict`` take the features from ``embed``, which runs
    ``forward`` one row block at a time and keeps no cache, so no full-set
    layer array exists while the whole set is scored."""

    @pytest.fixture(scope="class")
    def scored(self):
        model = network.init_model(32, [256, 9], make_simplex(10), 0)
        return model, data.make_blobs(10, 32, 400, 1.0, 6.0, 3)

    def test_scoring_peaks_at_about_one_forward(self, scored):
        model, ds = scored
        one_forward = traced_peak(network.forward, model, ds.inputs)
        assert traced_peak(cli._score, model, ds) < 1.25 * one_forward

    def test_forward_holds_pre_act_and_one_temporary(self, scored):
        model, ds = scored
        array = len(ds) * 256 * 8  # one N x 256 float64 array
        assert traced_peak(network.forward, model, ds.inputs) < 3.05 * array

    def test_cube_1000_scoring_holds_one_block_of_each_layer(self):
        # one full-set forward holds pre, act and a PReLU temporary of 10k x 64
        model = network.init_model(32, [64, 10], make_cube(1000), 0)
        ds = data.make_blobs(1000, 32, 10, 1.0, 6.0, 3)
        one_forward = traced_peak(network.forward, model, ds.inputs)
        assert traced_peak(cli._score, model, ds) < 0.6 * one_forward
