#!/usr/bin/env python3
"""Outputs of every subcommand, hashed, for comparing two source trees.

Usage:
    python scripts/parity.py OUTDIR

Runs the command line in process, at the default model geometry, on the
sources of the checkout this script sits in:

- ``synth`` of 40 scenes;
- a pretrain, then a LoRA ``train`` over it;
- a second LoRA ``train`` with ``--grad-accum-steps 3``: each epoch ends
  in a partial group, so the weight-only work shared by a group's
  micro-batches is redone mid-epoch;
- a second pretrain with ``--grad-accum-steps 3``: 32 training scenes
  make each epoch end in a partial group of 2 micro-batches;
- a third pretrain with ``batch_size = 2`` from a ``--config`` file, so
  each micro-batch's loss sums two scenes;
- ``eval`` of both checkpoints, in full and with ``--max-samples 7``;
- ``predict`` of 4 images with both checkpoints, each ``--greedy``, with
  the default nucleus sampling and with ``--seed 7``;
- the same ``predict`` runs, greedy and sampled, at ``temperature = 0.5``
  from a ``--config`` file, so that the softmax both decoders share is
  pinned at a second temperature;
- a short ``probe`` of two horizons and two seeds.

Every command runs inside OUTDIR with relative paths, and its exit code
and standard output are saved under ``OUTDIR/stdout/``. The last step
writes ``OUTDIR/manifest.txt``: the sha256 of every file under OUTDIR, one
``<sha256>  <path>`` line each, sorted by path. Two trees that compute
the same bits give byte-identical manifests; to compare a tree without
this script, copy it into that tree's ``scripts/`` and run it there.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hazardvlm.cli import main as cli_main  # noqa: E402
from hazardvlm.data import load_dataset  # noqa: E402

PRETRAIN = ["--epochs", "3", "--base-lr", "3e-3", "--grad-accum-steps", "1"]
PRETRAIN_ACCUM3 = ["--epochs", "3", "--base-lr", "3e-3", "--grad-accum-steps", "3"]
PRETRAIN_BATCH2 = ["--config", "batch2.conf", *PRETRAIN]
PREDICT_MODES = {
    "greedy": ["--greedy"],
    "nucleus": [],
    "seed7": ["--seed", "7"],
    "t05-greedy": ["--config", "t05.conf", "--greedy"],
    "t05-nucleus": ["--config", "t05.conf"],
}
N_IMAGES = 4


def run(name: str, argv: list[str]) -> None:
    """One subcommand; its exit code and stdout go to stdout/<name>.txt."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    Path("stdout", f"{name}.txt").write_text(f"exit {code}\n{out.getvalue()}", encoding="utf-8")
    if code != 0:
        sys.exit(f"{name}: {' '.join(argv)} exited {code}")


def manifest(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.txt")
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}" for p in files]
    return "\n".join(lines) + "\n"


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path("stdout").mkdir(exist_ok=True)

    run("01-synth", ["synth", "--out", "scenes.jsonl", "--n", "40", "--force"])
    run("02-pretrain", ["train", "--dataset", "scenes.jsonl", "--out", "base.ckpt", *PRETRAIN])
    run("02-pretrain-accum3", ["train", "--dataset", "scenes.jsonl", "--out", "base-accum3.ckpt",
                               *PRETRAIN_ACCUM3])
    Path("batch2.conf").write_text("batch_size = 2\n", encoding="utf-8")
    run("02-pretrain-batch2", ["train", "--dataset", "scenes.jsonl", "--out", "base-batch2.ckpt",
                               *PRETRAIN_BATCH2])
    run("03-lora", ["train", "--dataset", "scenes.jsonl", "--out", "lora.ckpt",
                    "--mode", "lora", "--init-from", "base.ckpt"])
    run("03-lora-accum3", ["train", "--dataset", "scenes.jsonl", "--out", "lora-accum3.ckpt",
                           "--mode", "lora", "--init-from", "base.ckpt", "--grad-accum-steps", "3"])
    for ckpt in ("base", "lora"):
        run(f"04-eval-{ckpt}", ["eval", "--checkpoint", f"{ckpt}.ckpt", "--dataset", "scenes.jsonl",
                                "--out", f"eval-{ckpt}"])
        run(f"05-eval-{ckpt}-max7", ["eval", "--checkpoint", f"{ckpt}.ckpt", "--dataset", "scenes.jsonl",
                                     "--max-samples", "7", "--out", f"eval-{ckpt}-max7"])

    samples, _ = load_dataset("scenes.jsonl")
    Path("t05.conf").write_text("temperature = 0.5\n", encoding="utf-8")
    for i, sample in enumerate(samples[:N_IMAGES]):
        np.save(f"image{i}.npy", sample.image)
    for ckpt in ("base", "lora"):
        for mode, flags in PREDICT_MODES.items():
            for i in range(N_IMAGES):
                name = f"06-predict-{ckpt}-{mode}-image{i}"
                run(name, ["predict", "--checkpoint", f"{ckpt}.ckpt", "--image", f"image{i}.npy",
                           "--out", f"{name}.txt", *flags])
    run("07-probe", ["probe", "--t-list", "10,100", "--seeds", "2", "--out", "probe.csv"])

    text = manifest(out)
    Path("manifest.txt").write_text(text, encoding="utf-8")
    print(f"{len(text.splitlines())} files hashed into {out / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
