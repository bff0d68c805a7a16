"""Digest of every artifact of the head commands and a 50-config training grid.

Runs ``polyhead.cli.main`` in-process.  First ``gen-weights`` and ``check``
of every polytope family at each class count of HEAD_CLASSES, then a
``check`` of the simplex-10 file with one entry nudged by 1e-6, which fails
(exit 1).  Then ``train`` + ``eval --out`` on each config of the grid: six loss
settings (plain_ce with the default batch_size and lr, fixed_softmax,
norm_scaled with an integer kappa, angular_margin at m = 0 given as an
integer, 0.4 and "max") x fixed and trainable heads x blobs and 8x8 IDX
data x simplex and cube heads on 5 classes, then a fixed and a trainable
cube head on 1000 classes of 12-d blobs (3 per class) with angular_margin
at m "max", whose eval set holds only the first 600 classes.  Each config is
trained and then evaluated with ``eval --out`` on a second data set of the
same kind.

It prints one line per command, with its exit code and the sha256 of its
standard output, then one ``sha256  path`` line per file under ``--out``.
Every path in a config is relative to ``--out``, so two source trees that
print the same lines wrote the same bytes.  Run each tree's own copy of this
tool, since the nudged file is written in that tree's head-file layout::

    python tools/artifact_grid.py --src src --out /tmp/grid-new > new.txt
    python /tmp/parent/tools/artifact_grid.py --src /tmp/parent/src \\
        --out /tmp/grid-old > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from inprocess import import_polyhead

HEAD_CLASSES = (2, 10, 47, 1000)
CLASSES = 5
LOSSES = {
    "plain_ce": {"kind": "plain_ce"},
    "fixed_softmax": {"kind": "fixed_softmax"},
    "norm_scaled": {"kind": "norm_scaled", "kappa": 16},
    "margin_0": {"kind": "angular_margin", "m": 0},
    "margin_0.4": {"kind": "angular_margin", "kappa": 30.0, "m": 0.4},
    "margin_max": {"kind": "angular_margin", "m": "max"},
}
BLOBS = {"type": "blobs", "classes": CLASSES, "dim": 6, "per_class": 12,
         "spread": 1.0, "separation": 4.0, "seed": 3}
EVAL_BLOBS = ["--blobs-classes", str(CLASSES), "--blobs-dim", "6",
              "--blobs-per-class", "10", "--blobs-spread", "1.0",
              "--blobs-separation", "4.0", "--blobs-seed", "4"]
MANY_CLASSES = 1000
MANY_BLOBS = {"type": "blobs", "classes": MANY_CLASSES, "dim": 12, "per_class": 3,
              "spread": 1.0, "separation": 4.0, "seed": 3}
EVAL_MANY_BLOBS = ["--blobs-classes", "600", "--blobs-dim", "12",
                   "--blobs-per-class", "2", "--blobs-spread", "1.0",
                   "--blobs-separation", "4.0", "--blobs-seed", "4"]
IDX = {"type": "idx", "images": "train-images", "labels": "train-labels"}
EVAL_IDX = ["--images", "test-images", "--labels", "test-labels"]


def write_idx_pairs() -> None:
    """A train and a test pair of 8x8 images: a random template per class
    with pixel noise on top."""
    import numpy as np
    from polyhead import data
    rng = np.random.default_rng(7)
    templates = rng.random((CLASSES, 64))
    for stem, n in (("train", 60), ("test", 40)):
        labels = np.arange(n) % CLASSES
        images = np.clip(templates[labels] + 0.3 * rng.normal(size=(n, 64)), 0, 1)
        data.write_idx(data.LabeledBatch(images, labels), f"{stem}-images",
                       f"{stem}-labels", 8, 8)


def run_head_commands() -> None:
    """gen-weights and check of each family and head size, and a check that fails."""
    Path("heads").mkdir()
    for kind in ("simplex", "orthoplex", "cube"):
        for classes in HEAD_CLASSES:
            name = f"{kind}-{classes}"
            path = f"heads/{name}.json"
            run_command("gen-weights", name, ["gen-weights", "--kind", kind,
                                              "--classes", str(classes), "--out", path])
            run_command("check", name, ["check", "--weights", path])
    from polyhead import polytope
    payload = json.loads(Path("heads/simplex-10.json").read_text())
    rows = polytope.decode_array(payload["rows"], 2, polytope.MAX_HEAD_ENTRIES, "rows")
    rows[0, 1] += 1e-6  # turns row 0 more than it stretches it
    payload["rows"] = polytope.encode_array(rows)
    Path("heads/simplex-10-nudged.json").write_text(json.dumps(payload))
    run_command("check", "simplex-10-nudged",
                ["check", "--weights", "heads/simplex-10-nudged.json"])


def configs():
    """(name, train config, eval dataset flags) of every grid point."""
    for head, trainable, dataset, loss in itertools.product(
            ("simplex", "cube"), (False, True), ("blobs", "idx"), LOSSES):
        name = f"{head}-{'trainable' if trainable else 'fixed'}-{dataset}-{loss}"
        config = {"seed": 11, "epochs": 3, "hidden_widths": [16],
                  "loss": LOSSES[loss],
                  "classifier": {"kind": head, "classes": CLASSES,
                                 "trainable": trainable},
                  "dataset": BLOBS if dataset == "blobs" else IDX}
        if loss != "plain_ce":
            config.update(batch_size=16, lr=0.01)
        yield name, config, EVAL_BLOBS if dataset == "blobs" else EVAL_IDX
    for trainable in (False, True):
        name = f"cube{MANY_CLASSES}-{'trainable' if trainable else 'fixed'}-blobs-margin_max"
        config = {"seed": 11, "epochs": 3, "hidden_widths": [16],
                  "loss": LOSSES["margin_max"], "batch_size": 256, "lr": 0.01,
                  "classifier": {"kind": "cube", "classes": MANY_CLASSES,
                                 "trainable": trainable},
                  "dataset": MANY_BLOBS}
        yield name, config, EVAL_MANY_BLOBS


def run_command(kind: str, name: str, argv: list) -> None:
    from polyhead import cli
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    print(f"{kind} {name}: exit {code}, stdout sha256 {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the polyhead package")
    parser.add_argument("--out", required=True, type=Path,
                        help="new or empty directory for the artifacts")
    args = parser.parse_args(argv)
    src, out = args.src.resolve(), args.out.resolve()
    if not import_polyhead(src):
        return 2
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():  # --out is a file, or lies under one
        print(f"error: {existing} is not a directory", file=sys.stderr)
        return 2
    if existing == out and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    run_head_commands()
    write_idx_pairs()
    for name, config, eval_data in configs():
        Path(f"{name}.json").write_text(json.dumps(config, indent=2))
        run_command("train", name, ["train", "--config", f"{name}.json",
                                    "--out-dir", name])
        run_command("eval", name, ["eval", "--checkpoint", f"{name}/checkpoint.json",
                                   *eval_data, "--out", f"{name}/eval.json"])
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
