import json
import math
import re
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
        '{"kind": "cube", "K": 2, "d": 1, "phi": 1.0, "rows": [[1.0], ["a"]]}'])
    def test_malformed_file(self, tmp_path, text):
        out = tmp_path / "w.json"
        out.write_text(text)
        assert run(["check", "--weights", str(out)]) == 2


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
    ], ids=["epochs_zero", "epochs_bool", "seed_str", "batch_size_float",
            "hidden_widths_str", "hidden_width_bool", "classes_str",
            "trainable_str", "lr_str", "kappa_bool", "blobs_seed_bool",
            "idx_paths_int", "dataset_list", "batch_size_zero",
            "labels_exceed_classes", "norm_scaled_takes_no_m",
            "plain_ce_takes_no_kappa", "m_maxx", "m_bool", "loss_kind_int",
            "loss_list", "limit_null", "limit_zero", "emnist_int",
            "blobs_unknown_key", "batch_size_default_as_float", "trainable_int",
            "out_dir_int", "classes_missing", "classifier_str"])
    def test_config_types_and_ranges(self, tmp_path, monkeypatch, overrides):
        monkeypatch.chdir(tmp_path)  # a valid IDX pair for the idx cases
        data.write_idx(data.LabeledBatch(np.eye(4), np.arange(4)), "images",
                       "labels", 2, 2)
        path, _ = blob_config(tmp_path, **overrides)
        assert run(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "run").exists()

    def test_diverged_run_exits_2(self, tmp_path, capsys):
        path, _ = blob_config(tmp_path, lr=1e300, loss={"kind": "plain_ce"})
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train", "--config", str(path)]) == 2
        assert "loss nan at epoch 0 batch 1" in capsys.readouterr().err
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
                     "features.csv"):
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

    @pytest.mark.parametrize("edit", [
        lambda p: p["head"].update(type="trainable", rows=[[1.0, 0.0, 0.0]] * 4),
        lambda p: p["head"].update(type="trainable", rows=[1.0, 0.0]),
        lambda p: p["head"].update(weights=to_dict(make_simplex(5))),
        lambda p: p["layers"][0].update(b=p["layers"][0]["b"][:-1]),
        lambda p: p["layers"][0].update(w=[r + [0.0] for r in p["layers"][0]["w"]]),
        lambda p: p["layers"][1]["w"][0].__setitem__(0, math.nan),
        lambda p: p["head"].update(type="trainable", rows=[[1.0, 0.0], [0.0, 0.0]]),
        lambda p: p.update(input_dim=math.inf),
        lambda p: p["layers"][0]["w"][0].__setitem__(0, 1e308),
    ], ids=["trainable_rows_too_wide", "trainable_rows_1d", "fixed_head_other_d",
            "b_shorter_than_w", "w_wider_than_input_dim", "nan_weight",
            "zero_trainable_row", "infinite_input_dim", "overflowing_weight"])
    def test_inconsistent_checkpoint(self, tmp_path, edit):
        model = network.init_model(3, [5, 2], make_orthoplex(4), seed=0)
        payload = network.model_to_dict(model)
        edit(payload)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3"]) == 2

    def test_images_without_labels(self, tmp_path):
        path, _ = blob_config(tmp_path, epochs=1)
        assert run(["train", "--config", str(path)]) == 0
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json"),
                    "--images", str(tmp_path / "images")]) == 2

    def test_no_dataset_args(self, tmp_path):
        path, _ = blob_config(tmp_path, epochs=1)
        run(["train", "--config", str(path)])
        assert run(["eval", "--checkpoint",
                    str(tmp_path / "run" / "checkpoint.json")]) == 2


JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.floats(),
                 st.integers(-3, 3), st.just(10 ** 400),
                 st.lists(st.integers(0, 2), max_size=3),
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
    def test_perturbed_checkpoint_exits_0_or_2(self, tmp_path, data):
        head = None if data.draw(st.booleans()) else make_orthoplex(4)
        model = network.init_model(3, [5, 2], head, seed=0, trainable_classes=4)
        payload = network.model_to_dict(model)
        for _ in range(data.draw(st.integers(1, 3))):
            payload = perturb(payload, data)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        assert run(["eval", "--checkpoint", str(path), "--blobs-classes", "2",
                    "--blobs-dim", "3", "--blobs-per-class", "5",
                    "--out", str(tmp_path / "report.json")]) in (0, 2)
