"""Seeded synthetic inputs and the polyhead command pipeline of each workload.

Every workload runs the pipeline a user runs -- ``gen-weights``, ``check``,
``train``, ``eval`` -- in-process through ``polyhead.cli.main``, at shapes
that put most of the time into a different layer:

- ``paper_shape_train``: 784-d synthetic IDX, K=10 simplex head, 784->256->9
  MLP; the dense forward, backward and Adam dominate.
- ``many_class_train``: K=1000 Gaussian blobs on the cube head, fixed and
  trainable (the paper's baseline); ``losses.evaluate`` dominates.

All inputs are synthetic: the MNIST/EMNIST files are not used.  The seed
draws the samples.  The class templates of the IDX images, the model's own
seed and the learning rate stay fixed.  Training at the maximal margin
``m = phi`` decides in the first steps which classes stay behind the margin
clamp (theta + m > pi, zero slope), and that decides the final loss.  With
templates from seed 8 and lr 0.002, the paper-shape run ends in the same
regime (one class behind the clamp, accuracy about 0.9) for 19 of 20 sample
seeds tried, so its final loss is comparable from one seed to the next.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import calibrate
from polyhead import cli, data, metrics, network
from polyhead.polytope import PolytopeKind

TEMPLATE_SEED = 8
HEAD_ROUNDS = 10     # gen-weights + check of every head, this often per pass
MODEL_SEED = 0
LR = 0.002
PIXELS = 28 * 28
LOSS = {"kind": "angular_margin", "kappa": 30.0, "m": "max"}

# Shapes per size; ``tiny`` only serves the benchmark's own smoke tests.
SIZES = {
    "full": {
        "idx_train": 10_000, "idx_test": 10_000, "paper_hidden": [256],
        "paper_epochs": 3,
        "many_classes": 1000, "many_per_class": 10, "many_dim": 32,
        "many_hidden": [64], "many_epochs": 3,
    },
    "tiny": {
        "idx_train": 600, "idx_test": 300, "paper_hidden": [16],
        "paper_epochs": 2,
        "many_classes": 40, "many_per_class": 5, "many_dim": 8,
        "many_hidden": [8], "many_epochs": 1,
    },
}


@dataclass
class Command:
    kind: str                      # gen-weights, check, train or eval
    argv: list
    samples: int = 0               # train: N x epochs; eval: N
    out: Optional[Path] = None     # train: output dir; eval: report file
    reference: Optional[Callable[[], float]] = None  # eval: accuracy in-process


@dataclass
class Outcome:
    """One command as run: wall time, the same in reference seconds (see
    ``calibrate.py``), and whether it and its outputs held."""
    kind: str
    wall_s: float
    samples: int
    ok: bool
    error: str = ""
    ref_s: float = float("nan")  # set when the pass ends


# ---------------------------------------------------------------- inputs

def class_templates() -> np.ndarray:
    """Fixed per-class pixel masks for the 10 classes (a quarter of the
    pixels on)."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    return rng.random((10, PIXELS)) < 0.25


def synthetic_images(seed: int, split: int, n: int) -> data.LabeledBatch:
    """``n`` synthetic 28x28 images: a class template with random stroke
    intensity and dropout, plus sparse background noise."""
    templates = class_templates()
    rng = np.random.default_rng([seed, split])
    labels = rng.integers(0, templates.shape[0], n)
    ink = templates[labels] * rng.uniform(0.3, 1.0, (n, PIXELS))
    ink *= rng.random((n, PIXELS)) < 0.7
    noise = (rng.random((n, PIXELS)) < 0.1) * rng.uniform(0.0, 1.0, (n, PIXELS))
    return data.LabeledBatch(np.clip(ink + noise, 0.0, 1.0), labels)


def write_idx_pair(batch: data.LabeledBatch, directory: Path, stem: str) -> tuple:
    images = directory / f"{stem}-images-idx3-ubyte"
    labels = directory / f"{stem}-labels-idx1-ubyte"
    data.write_idx(batch, images, labels, 28, 28)
    return images, labels


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


def _train_config(epochs, batch_size, hidden, classifier, dataset, out_dir) -> dict:
    return {"seed": MODEL_SEED, "epochs": epochs, "batch_size": batch_size,
            "lr": LR, "hidden_widths": hidden, "loss": LOSS,
            "classifier": classifier, "dataset": dataset, "out_dir": str(out_dir)}


def _blobs(classes, dim, per_class, seed) -> dict:
    return {"type": "blobs", "classes": classes, "dim": dim,
            "per_class": per_class, "spread": 1.0, "separation": 6.0,
            "seed": seed}


def _blob_args(blobs: dict) -> list:
    return ["--blobs-classes", str(blobs["classes"]),
            "--blobs-dim", str(blobs["dim"]),
            "--blobs-per-class", str(blobs["per_class"]),
            "--blobs-spread", str(blobs["spread"]),
            "--blobs-separation", str(blobs["separation"]),
            "--blobs-seed", str(blobs["seed"])]


def _reference_accuracy(checkpoint: Path, load: Callable) -> Callable[[], float]:
    def accuracy() -> float:
        batch = load()
        model = network.load_checkpoint(checkpoint)
        return metrics.accuracy(network.predict(model, batch.inputs), batch.labels)
    return accuracy


def _heads(directory: Path, specs) -> list:
    commands = []
    (directory / "heads").mkdir(exist_ok=True)
    for kind, classes in specs:
        path = directory / "heads" / f"{kind}-{classes}.json"
        commands.append(Command("gen-weights", ["gen-weights", "--kind", kind,
                                                "--classes", str(classes),
                                                "--out", str(path)]))
        commands.append(Command("check", ["check", "--weights", str(path)]))
    return commands


def _train(directory: Path, name: str, config: dict, n: int) -> Command:
    path = _write_config(directory / f"{name}.json", config)
    return Command("train", ["train", "--config", str(path)],
                   samples=n * config["epochs"], out=Path(config["out_dir"]))


def _eval(directory: Path, name: str, checkpoint: Path, data_args: list,
          n: int, load: Callable) -> Command:
    report = directory / f"{name}-report.json"
    return Command("eval", ["eval", "--checkpoint", str(checkpoint), *data_args,
                            "--out", str(report)],
                   samples=n, out=report,
                   reference=_reference_accuracy(checkpoint, load))


def paper_shape_train(directory: Path, seed: int, size: dict) -> list:
    train_images, train_labels = write_idx_pair(
        synthetic_images(seed, 0, size["idx_train"]), directory, "train")
    test_images, test_labels = write_idx_pair(
        synthetic_images(seed, 1, size["idx_test"]), directory, "t10k")
    run = directory / "run-paper"
    config = _train_config(
        size["paper_epochs"], 512, size["paper_hidden"],
        {"kind": "simplex", "classes": 10},
        {"type": "idx", "images": str(train_images), "labels": str(train_labels)},
        run)
    return [
        # the heads of both paper shapes: MNIST (K=10) and EMNIST balanced (K=47)
        *_heads(directory, [(kind.value, k) for kind in PolytopeKind
                            for k in (10, 47)]) * HEAD_ROUNDS,
        _train(directory, "paper", config, size["idx_train"]),
        _eval(directory, "paper", run / "checkpoint.json",
              ["--images", str(test_images), "--labels", str(test_labels)],
              size["idx_test"], lambda: data.load_idx(test_images, test_labels)),
    ]


def many_class_train(directory: Path, seed: int, size: dict) -> list:
    classes, per_class = size["many_classes"], size["many_per_class"]
    train_blobs = _blobs(classes, size["many_dim"], per_class, 2 * seed)
    test_blobs = _blobs(classes, size["many_dim"], per_class, 2 * seed + 1)
    n = classes * per_class
    commands = _heads(directory, [("cube", classes)]) * HEAD_ROUNDS
    for head in ("fixed", "trainable"):
        run = directory / f"run-{head}"
        config = _train_config(
            size["many_epochs"], 512, size["many_hidden"],
            {"kind": "cube", "classes": classes, "trainable": head == "trainable"},
            train_blobs, run)
        commands.append(_train(directory, head, config, n))
    for head in ("fixed", "trainable"):
        commands.append(_eval(
            directory, head, directory / f"run-{head}" / "checkpoint.json",
            _blob_args(test_blobs), n,
            lambda: data.make_blobs(*(test_blobs[k] for k in (
                "classes", "dim", "per_class", "spread", "separation", "seed")))))
    return commands


WORKLOADS = {
    "paper_shape_train": paper_shape_train,
    "many_class_train": many_class_train,
}


def warm_up(directory: Path) -> None:
    """Run each command once at toy size, so first-call costs (imports,
    BLAS start-up) fall into set-up rather than into the first pass."""
    directory.mkdir(parents=True, exist_ok=True)
    blobs = _blobs(4, 3, 20, 0)
    run = directory / "run"
    commands = [*_heads(directory, [("simplex", 4)]),
                _train(directory, "warm", _train_config(
                    1, 32, [8], {"kind": "simplex", "classes": 4}, blobs, run), 80),
                Command("eval", ["eval", "--checkpoint", str(run / "checkpoint.json"),
                                 *_blob_args(blobs)])]
    for command in commands:
        if call_cli(command.argv)[0] != cli.EXIT_OK:
            raise RuntimeError(f"warm-up command failed: {command.argv}")


# ---------------------------------------------------------------- running

def call_cli(argv: list) -> tuple:
    """Run one polyhead command in-process; returns (exit code, stdout, wall s)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class TrainResult:
    mean_loss: float
    train_accuracy: float
    sep_over_phi: float


@dataclass
class Pipeline:
    """Runs a workload's commands pass after pass and checks their outputs.

    The reference kernel (``calibrate.py``) runs at the start and end of every
    pass and after any command that ends at least ``calibrate.EVERY_S`` after
    its last run; the commands' times in reference seconds use the median
    kernel time of their pass."""
    commands: list
    kernel: calibrate.Kernel
    first_digests: dict = field(default_factory=dict)   # train index -> digests
    references: dict = field(default_factory=dict)      # (index, digest) -> acc
    train_results: dict = field(default_factory=dict)   # train index -> result
    kernel_medians: list = field(default_factory=list)  # per pass, seconds

    def run_pass(self, tracer=None) -> list:
        outcomes = []
        kernel_times = []
        self.kernel.sample(kernel_times, force=True)
        for index, command in enumerate(self.commands):
            try:
                if tracer is None:
                    code, stdout, wall = call_cli(command.argv)
                else:
                    with tracer.installed(), tracer.span("cli.main"):
                        code, stdout, wall = call_cli(command.argv)
                error = self._check(index, command, code, stdout)
            except Exception as exc:  # a crash counts as a failed command
                wall, error = float("nan"), f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(command.kind, wall, command.samples,
                                    not error, error))
            self.kernel.sample(kernel_times)
        self.kernel.sample(kernel_times, force=True)
        self.kernel_medians.append(statistics.median(kernel_times))
        scale = self.kernel.scale(self.kernel_medians[-1])
        for outcome in outcomes:
            outcome.ref_s = outcome.wall_s * scale
        return outcomes

    def _check(self, index: int, command: Command, code: int, stdout: str) -> str:
        if code != cli.EXIT_OK:
            return f"{command.argv[0]} exited {code}"
        if command.kind == "check" and not stdout.startswith("PASS"):
            return f"check did not pass: {stdout.strip()}"
        if command.kind == "train":
            digests = {name: _digest(command.out / name)
                       for name in ("checkpoint.json", "epochs.csv")}
            first = self.first_digests.setdefault(index, digests)
            if digests != first:
                return "rerun of train changed checkpoint.json or epochs.csv"
            if index not in self.train_results:
                self.train_results[index] = read_train_result(command.out)
        if command.kind == "eval":
            checkpoint = Path(command.argv[command.argv.index("--checkpoint") + 1])
            key = (index, _digest(checkpoint))
            if key not in self.references:
                self.references[key] = command.reference()
            reported = json.loads(command.out.read_text())["accuracy"]
            if reported != self.references[key]:
                return (f"eval accuracy {reported!r} != in-process "
                        f"{self.references[key]!r}")
        return ""


def read_train_result(out_dir: Path) -> TrainResult:
    with open(out_dir / "epochs.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    geometry = json.loads((out_dir / "geometry.json").read_text())
    return TrainResult(float(last["mean_loss"]), float(last["train_accuracy"]),
                       geometry["min_pairwise_mean_angle"] / geometry["phi"])
