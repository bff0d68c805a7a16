"""Command-line entry point.

Subcommands: ``gen-weights`` (emit a polytope head as JSON), ``check``
(verify a head file), ``train`` (run a config-driven training job and
dump artifacts), ``eval`` (score a checkpoint on a dataset).

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(including a malformed JSON file or one with missing keys, a training run
that diverges or gives a zero feature to a normalizing loss, and a trained or
loaded model that gives non-finite features on its dataset), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import data as datamod
from . import losses, metrics, network
from .polytope import (DEFAULT_TOL, PolytopeKind, json_field, load_json, make_weights,
                       read_json, save_json, verify_geometry)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """A config, input file or flag value that cannot be used (exit 2)."""


@contextmanager
def _reading():
    """Report a malformed file, config or value read in this block as a
    ConfigError; errors of the computation outside it propagate."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a ragged array
        raise ConfigError(str(exc)) from exc


_REQUIRED = object()

# Every key of a train config: section -> key -> (JSON type, default), where
# the default _REQUIRED marks a key that must be given.  A list is a list of
# integers.  The blobs keys after "type" are make_blobs' arguments in order.
_SECTIONS = {
    "config": {"seed": (int, _REQUIRED), "epochs": (int, _REQUIRED),
               "batch_size": (int, 512), "lr": (float, 0.0005),
               "hidden_widths": (list, _REQUIRED), "loss": (dict, _REQUIRED),
               "classifier": (dict, _REQUIRED), "dataset": (dict, _REQUIRED),
               "out_dir": (str, "run")},
    "classifier": {"kind": (str, _REQUIRED), "classes": (int, _REQUIRED),
                   "trainable": (bool, False)},
    "loss": {"kind": (str, _REQUIRED), "kappa": (float, losses.KAPPA_DEFAULT),
             "m": (float, "max")},
    "blobs": {"type": (str, _REQUIRED), "classes": (int, _REQUIRED),
              "dim": (int, _REQUIRED), "per_class": (int, _REQUIRED),
              "spread": (float, _REQUIRED), "separation": (float, _REQUIRED),
              "seed": (int, _REQUIRED)},
    "idx": {"type": (str, _REQUIRED), "images": (str, _REQUIRED),
            "labels": (str, _REQUIRED), "emnist": (bool, False),
            "limit": (int, None)},
}


def _section(section: dict, where: str) -> dict:
    """The keys of ``_SECTIONS[where]`` read from ``section`` by ``json_field``,
    with defaults filled in.  The margin ``m`` also takes "max", its default."""
    keys = _SECTIONS[where]
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = {key for key, (_, default) in keys.items()
               if default is _REQUIRED} - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")
    return {key: default if key not in section or section[key] == default == "max"
            else json_field(section, key, kind, f"{where} key {key!r}")
            for key, (kind, default) in keys.items()}


def _parse_loss(section, phi: float) -> tuple:
    """The loss kind a config names, and its echo for config_resolved.json."""
    loss = _section(section, "loss")
    name = loss.pop("kind")
    if name not in losses.KINDS:
        raise ConfigError(f"unknown loss kind {name!r}")
    if loss["m"] == "max":
        loss["m"] = phi
    fields = [f.name for f in dataclasses.fields(losses.KINDS[name])]
    ignored = set(section).difference(fields, ["kind"])
    if ignored:
        raise ConfigError(f"loss kind {name!r} takes no {sorted(ignored)}")
    kind = losses.KINDS[name](**{field: loss[field] for field in fields})
    return kind, {"kind": name, **dataclasses.asdict(kind)}


def _load_dataset(section: dict, classes: int, owner: str) -> datamod.LabeledBatch:
    """A "blobs" or "idx" section's dataset, its labels below ``owner``'s ``classes``."""
    kind = section.get("type")
    if kind not in ("blobs", "idx"):
        raise ConfigError(f"dataset type must be 'blobs' or 'idx', got {kind!r}")
    values = _section(section, kind)
    if kind == "blobs":
        dataset = datamod.make_blobs(*list(values.values())[1:])
    else:
        dataset = datamod.load_idx(values["images"], values["labels"], emnist=values["emnist"])
        if (limit := values["limit"]) is not None and limit < 1:
            raise ConfigError(f"dataset limit must be at least 1, got {limit}")
        dataset = datamod.LabeledBatch(dataset.inputs[:limit], dataset.labels[:limit])
    if dataset.labels.max() >= classes:
        raise ConfigError(f"dataset label {dataset.labels.max()} needs more than "
                          f"the {owner}'s {classes} classes")
    return dataset


# eval's --blobs-* flags, one per blobs key after "type", and the value used for
# a flag not given (None for --blobs-classes, which selects blobs data).
_EVAL_BLOBS = {"classes": None, "dim": 2, "per_class": 100, "spread": 1.0,
               "separation": 6.0, "seed": 0}


def _score(model: network.MlpModel, dataset: datamod.LabeledBatch) -> tuple:
    """The model's features of the whole dataset and their geometry report.
    A model whose features, or their norms, are not finite is a ConfigError.
    The features come from ``embed``, one row block at a time, so no cache
    and no full-set layer array is ever held, here or in ``predict``."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked right after
        feats = network.embed(model, dataset.inputs)
        norms = np.linalg.norm(feats, axis=1)
    if not np.isfinite(norms).all():
        raise ConfigError("the model gives non-finite features on this dataset")
    preds = network.predict(model, dataset.inputs)
    return feats, metrics.geometry_report(model.head, feats, dataset.labels, preds)


def _refuse_non_directory(out_dir: Path) -> None:
    """Raise NotADirectoryError (exit 3) when ``out_dir`` or a parent of it
    exists and is not a directory, so that ``train`` fails before it runs."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                         str(path))
            return


def cmd_gen_weights(args) -> int:
    with _reading():
        weights = make_weights(PolytopeKind(args.kind), args.classes)
    save_json(weights, args.out)
    print(f"kind={weights.kind.value} K={weights.num_classes} d={weights.dim}")
    print(f"phi={weights.phi:.10f} rad ({math.degrees(weights.phi):.6f} deg)")
    return EXIT_OK


def cmd_check(args) -> int:
    with _reading():
        weights = load_json(args.weights)
        check = verify_geometry(weights, args.tol)
    status = "PASS" if check.passed else "FAIL"
    print(f"{status} worst_deviation={check.worst_deviation:.3e} "
          f"min_angle={check.min_angle:.10f}")
    if not check.passed:
        print(check.message)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_train(args) -> int:
    with _reading():
        config = read_json(args.config, "config")
        cfg = _section(config, "config")
        out_dir = Path(args.out_dir or cfg["out_dir"])
        if "\0" in str(out_dir):  # Path.exists reads such a path as absent
            raise ConfigError(f"out_dir must not hold a NUL character, got {str(out_dir)!r}")
        _refuse_non_directory(out_dir)
        classifier = _section(cfg["classifier"], "classifier")
        weights = make_weights(PolytopeKind(classifier["kind"]), classifier["classes"])
        loss_kind, loss_echo = _parse_loss(cfg["loss"], weights.phi)
        dataset = _load_dataset(cfg["dataset"], weights.num_classes, "classifier")

        hidden = cfg["hidden_widths"]
        if not hidden or hidden[-1] != weights.dim:
            hidden = hidden + [weights.dim]  # embedding layer appended when omitted
        for key, least in (("seed", 0), ("epochs", 1), ("batch_size", 1)):
            if cfg[key] < least:
                raise ConfigError(f"{key} must be at least {least}, got {cfg[key]}")
        per_epoch = -(-len(dataset) // cfg["batch_size"])
        if cfg["epochs"] * per_epoch > network.MAX_TRAIN_STEPS:
            raise ConfigError(f"epochs {cfg['epochs']} x {per_epoch} batches exceed "
                              f"MAX_TRAIN_STEPS ({network.MAX_TRAIN_STEPS}) steps")
        if not (math.isfinite(cfg["lr"]) and cfg["lr"] >= 0):
            raise ConfigError(f"lr must be finite and at least 0, got {cfg['lr']}")
        train_cfg = network.TrainConfig(loss=loss_kind, epochs=cfg["epochs"],
                                        seed=cfg["seed"], batch_size=cfg["batch_size"],
                                        lr=cfg["lr"])
        model = network.init_model(dataset.inputs.shape[1], hidden, weights,
                                   cfg["seed"], classifier["trainable"])
    model, log = network.train(model, dataset, train_cfg)
    feats, report = _score(model, dataset)

    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dict(config)
    resolved["loss"] = loss_echo
    resolved["hidden_widths"] = hidden
    (out_dir / "config_resolved.json").write_text(json.dumps(resolved, indent=2))

    with open(out_dir / "epochs.csv", "w") as fh:
        fh.write("epoch,mean_loss,train_accuracy\n")
        for row in log:
            fh.write(f"{row.epoch},{row.mean_loss!r},{row.train_accuracy!r}\n")

    network.save_checkpoint(model, out_dir / "checkpoint.json", extra=resolved)
    report.save(out_dir / "geometry.json")
    metrics.export_scatter(feats, dataset.labels, out_dir / "features.csv")

    print(f"final mean_loss={log[-1].mean_loss:.6f} "
          f"train_accuracy={log[-1].train_accuracy:.4f}")
    print(f"min_pairwise_mean_angle={report.min_pairwise_mean_angle:.6f} "
          f"phi={report.phi:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if bool(args.images) != bool(args.labels):
        raise ConfigError("--images needs --labels" if args.images
                          else "--labels needs --images")
    given = {key: value for key in _EVAL_BLOBS
             if (value := getattr(args, f"blobs_{key}")) is not None}
    section = {"type": "blobs", **_EVAL_BLOBS, **given}  # the section a config would hold
    if args.images:
        if given:
            raise ConfigError(", ".join(f"--blobs-{key.replace('_', '-')}" for key in given)
                              + " cannot be used with --images")
        section = dict(type="idx", images=args.images, labels=args.labels, emnist=args.emnist)
    elif "classes" not in given:
        raise ConfigError("provide --images/--labels or --blobs-* options")
    elif args.emnist:
        raise ConfigError("--emnist needs --images")
    with _reading():
        model = network.load_checkpoint(args.checkpoint)
        dataset = _load_dataset(section, model.head.num_classes, "checkpoint")
        if dataset.inputs.shape[1] != model.input_dim:
            raise ConfigError(f"dataset input dim {dataset.inputs.shape[1]} != "
                              f"checkpoint input dim {model.input_dim}")
    _, report = _score(model, dataset)
    print(f"accuracy={report.accuracy:.4f}")
    print(f"min_pairwise_mean_angle={report.min_pairwise_mean_angle:.6f}")
    if args.out:
        report.save(args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: each ``parse_args`` fills a new namespace, and every default is
    None, False, a number or a string, so no value carries over between calls."""
    parser = argparse.ArgumentParser(prog="polyhead")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-weights", help="emit polytope classifier weights")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in PolytopeKind])
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_weights)

    p = sub.add_parser("check", help="verify a weights file")
    p.add_argument("--weights", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images")
    p.add_argument("--labels")
    p.add_argument("--emnist", action="store_true")
    for key in _EVAL_BLOBS:
        p.add_argument(f"--blobs-{key.replace('_', '-')}", type=_SECTIONS["blobs"][key][0])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        code, message = EXIT_IO, str(exc)
    except (ConfigError, network.DivergenceError, losses.DegenerateFeatureError) as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
