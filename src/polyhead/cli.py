"""Command-line entry point.

Subcommands: ``gen-weights`` (emit a polytope head as JSON), ``check``
(verify a head file), ``train`` (run a config-driven training job and
dump artifacts), ``eval`` (score a checkpoint on a dataset).

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(including a malformed JSON file or one with missing keys), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import data as datamod
from . import losses, metrics, network
from .polytope import (PolytopeKind, load_json, make_weights, save_json,
                       verify_geometry)

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
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf), float(10**400)
        raise ConfigError(str(exc)) from exc


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _typed(section: dict, key: str, kind: type, where: str, default=None):
    """``section[key]`` (or ``default``) if it is of JSON type ``kind``.

    true/false is not a number, and an integer is a valid float.
    """
    value = section.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} key {key!r} must be {_TYPE_NAMES[kind]}, "
                          f"got {value!r}")
    return kind(value)


def _parse_loss(section: dict, phi: float) -> tuple:
    _require_keys(section, {"kind", "kappa", "m"}, {"kind"}, "loss")
    kind = section["kind"]
    kappa = _typed(section, "kappa", float, "loss", losses.KAPPA_DEFAULT)
    m = (phi if section.get("m", "max") == "max"
         else _typed(section, "m", float, "loss"))
    if kind == "plain_ce":
        return losses.PlainCE(), {"kind": kind}
    if kind == "fixed_softmax":
        return losses.FixedSoftmax(), {"kind": kind}
    if kind == "norm_scaled":
        return losses.NormScaled(kappa), {"kind": kind, "kappa": kappa}
    if kind == "angular_margin":
        return (losses.AngularMargin(kappa, m),
                {"kind": kind, "kappa": kappa, "m": m})
    raise ConfigError(f"unknown loss kind {kind!r}")


def _load_dataset(section: dict) -> datamod.LabeledBatch:
    if not isinstance(section, dict):
        raise ConfigError(f"dataset must be a JSON object, got {section!r}")
    kind = section.get("type")
    if kind == "blobs":
        _require_keys(section, {"type", "classes", "dim", "per_class", "spread",
                                "separation", "seed"},
                      {"type", "classes", "dim", "per_class", "spread",
                       "separation", "seed"}, "dataset")
        return datamod.make_blobs(
            _typed(section, "classes", int, "dataset"),
            _typed(section, "dim", int, "dataset"),
            _typed(section, "per_class", int, "dataset"),
            _typed(section, "spread", float, "dataset"),
            _typed(section, "separation", float, "dataset"),
            _typed(section, "seed", int, "dataset"))
    if kind == "idx":
        _require_keys(section, {"type", "images", "labels", "emnist", "limit"},
                      {"type", "images", "labels"}, "dataset")
        batch = datamod.load_idx(_typed(section, "images", str, "dataset"),
                                 _typed(section, "labels", str, "dataset"),
                                 emnist=_typed(section, "emnist", bool, "dataset",
                                               False))
        if "limit" in section:
            limit = _typed(section, "limit", int, "dataset")
            if limit < 1:
                raise ConfigError(f"dataset limit must be at least 1, got {limit}")
            batch = datamod.LabeledBatch(batch.inputs[:limit], batch.labels[:limit])
        return batch
    raise ConfigError(f"dataset type must be 'blobs' or 'idx', got {kind!r}")


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


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


def _run_train(config: dict, out_dir_arg) -> int:
    with _reading():
        _require_keys(config, {"seed", "epochs", "batch_size", "lr", "hidden_widths",
                               "loss", "classifier", "dataset", "out_dir"},
                      {"seed", "epochs", "hidden_widths", "loss", "classifier",
                       "dataset"}, "config")
        out_dir = Path(out_dir_arg or _typed(config, "out_dir", str, "config", "run"))
        cls = config["classifier"]
        _require_keys(cls, {"kind", "classes", "trainable"}, {"kind", "classes"},
                      "classifier")
        kind = PolytopeKind(cls["kind"])
        weights = make_weights(kind, _typed(cls, "classes", int, "classifier"))
        trainable = _typed(cls, "trainable", bool, "classifier", False)

        loss_kind, loss_echo = _parse_loss(config["loss"], weights.phi)
        dataset = _load_dataset(config["dataset"])

        hidden = config["hidden_widths"]
        if not isinstance(hidden, list) or any(
                isinstance(w, bool) or not isinstance(w, int) for w in hidden):
            raise ConfigError(f"hidden_widths must be a list of integers, "
                              f"got {hidden!r}")
        if not hidden or hidden[-1] != weights.dim:
            hidden = hidden + [weights.dim]  # embedding layer appended when omitted
        seed = _typed(config, "seed", int, "config")
        train_cfg = network.TrainConfig(
            loss=loss_kind,
            epochs=_typed(config, "epochs", int, "config"),
            seed=seed,
            hidden_widths=hidden,
            batch_size=_typed(config, "batch_size", int, "config", 512),
            lr=_typed(config, "lr", float, "config", 0.0005),
        )
        if train_cfg.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {train_cfg.epochs}")
        if train_cfg.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, "
                              f"got {train_cfg.batch_size}")
        if dataset.labels.max() >= weights.num_classes:
            raise ConfigError(f"dataset label {dataset.labels.max()} needs more than "
                              f"the classifier's {weights.num_classes} classes")
        if trainable:
            model = network.init_model(dataset.inputs.shape[1], hidden, None, seed,
                                       trainable_classes=weights.num_classes)
            # the polytope the baseline stands in for
            model.head = dataclasses.replace(model.head, phi=weights.phi)
        else:
            model = network.init_model(dataset.inputs.shape[1], hidden, weights, seed)
    model, log = network.train(model, dataset, train_cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dict(config)
    resolved["loss"] = loss_echo
    resolved["hidden_widths"] = hidden
    with open(out_dir / "config_resolved.json", "w") as fh:
        json.dump(resolved, fh, indent=2)

    with open(out_dir / "epochs.csv", "w") as fh:
        fh.write("epoch,mean_loss,train_accuracy\n")
        for row in log:
            fh.write(f"{row.epoch},{row.mean_loss!r},{row.train_accuracy!r}\n")

    network.save_checkpoint(model, out_dir / "checkpoint.json", extra=resolved)

    feats, _, _ = network.forward(model, dataset.inputs)
    preds = network.predict(model, dataset.inputs)
    report = metrics.geometry_report(model.head, feats, dataset.labels, preds)
    report.save(out_dir / "geometry.json")
    metrics.export_scatter(feats, dataset.labels, False, out_dir / "features.csv")
    metrics.export_scatter(feats, dataset.labels, True,
                           out_dir / "features_norm.csv")

    print(f"final mean_loss={log[-1].mean_loss:.6f} "
          f"train_accuracy={log[-1].train_accuracy:.4f}")
    print(f"min_pairwise_mean_angle={report.min_pairwise_mean_angle:.6f} "
          f"phi={report.phi:.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    with open(args.config) as fh, _reading():
        config = json.load(fh)
    return _run_train(config, args.out_dir)


def cmd_eval(args) -> int:
    if args.images and not args.labels:
        print("error: --images needs --labels", file=sys.stderr)
        return EXIT_USAGE
    if not (args.images or args.blobs_classes):
        print("error: provide --images/--labels or --blobs-* options",
              file=sys.stderr)
        return EXIT_USAGE
    with _reading():
        model = network.load_checkpoint(args.checkpoint)
        if args.images:
            dataset = datamod.load_idx(args.images, args.labels,
                                       emnist=args.emnist)
        else:
            dataset = datamod.make_blobs(args.blobs_classes, args.blobs_dim,
                                         args.blobs_per_class, args.blobs_spread,
                                         args.blobs_separation, args.blobs_seed)
        if dataset.inputs.shape[1] != model.input_dim:
            raise ConfigError(f"dataset input dim {dataset.inputs.shape[1]} != "
                              f"checkpoint input dim {model.input_dim}")

    feats, _, _ = network.forward(model, dataset.inputs)
    preds = network.predict(model, dataset.inputs)
    report = metrics.geometry_report(model.head, feats, dataset.labels, preds)
    print(f"accuracy={report.accuracy:.4f}")
    print(f"min_pairwise_mean_angle={report.min_pairwise_mean_angle:.6f}")
    if args.out:
        report.save(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--tol", type=_tolerance, default=1e-10)
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
    p.add_argument("--blobs-classes", type=int)
    p.add_argument("--blobs-dim", type=int, default=2)
    p.add_argument("--blobs-per-class", type=int, default=100)
    p.add_argument("--blobs-spread", type=float, default=1.0)
    p.add_argument("--blobs-separation", type=float, default=6.0)
    p.add_argument("--blobs-seed", type=int, default=0)
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
    except ConfigError as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
