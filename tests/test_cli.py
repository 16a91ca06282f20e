import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHECKPOINT_HEADER, sealed_checkpoint, with_repeated_last_tensor
from hazardvlm.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, RunConfig, main
from hazardvlm.data import SynthConfig, load_dataset
from hazardvlm.model import HazardModel
from hazardvlm.training import TrainConfig, load_checkpoint, restore_model, save_checkpoint

FAST_TRAIN = [
    "--epochs", "1",
    "--base-lr", "1e-3",
    "--grad-accum-steps", "2",
]

SMALL_CONF = """
# small geometry for quick runs
image_size = 16
patch_size = 4
embed_dim = 16
heads = 2
encoder_layers = 1
decoder_layers = 1
latent_dim = 8
lora_rank = 2
"""


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(SMALL_CONF)
    return str(path)


def synth(tmp_path, conf, n=12, seed=4):
    data = tmp_path / "data.jsonl"
    rc = main(["synth", "--config", conf, "--out", str(data), "--n", str(n), "--seed", str(seed)])
    assert rc == EXIT_OK
    return data


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_valid_records(tmp_path, conf):
    data = synth(tmp_path, conf, n=10)
    lines = data.read_text().strip().splitlines()
    assert len(lines) == 10
    samples, errors = load_dataset(data)
    assert len(samples) == 10 and not errors


def test_synth_same_seed_byte_identical(tmp_path, conf):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    a = synth(a_dir, conf, seed=9)
    b = synth(b_dir, conf, seed=9)
    assert a.read_bytes() == b.read_bytes()


def test_synth_refuses_overwrite_without_force(tmp_path, conf):
    data = synth(tmp_path, conf)
    rc = main(["synth", "--config", conf, "--out", str(data), "--n", "3"])
    assert rc == EXIT_DATA
    rc = main(["synth", "--config", conf, "--out", str(data), "--n", "3", "--force"])
    assert rc == EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_missing_dataset_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):  # argparse --help style exits are separate
        main(["train", "--help"])
    rc = main(["train", "--out", str(tmp_path / "x.ckpt")])
    assert rc == EXIT_USAGE


def test_train_nonexistent_dataset_is_data_error(tmp_path, conf):
    rc = main(["train", "--config", conf, "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x.ckpt")])
    assert rc == EXIT_DATA


def test_train_produces_checkpoint_log_and_vocab(tmp_path, conf, capsys):
    data = synth(tmp_path, conf)
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--config", conf, "--dataset", str(data), "--out", str(ckpt), *FAST_TRAIN])
    assert rc == EXIT_OK
    assert ckpt.exists()
    log = tmp_path / "model.csv"
    assert log.exists()
    rows = log.read_text().strip().splitlines()
    n_steps = len(rows) - 1
    saved = load_checkpoint(ckpt)
    assert (saved.step, saved.epoch, saved.seed) == (n_steps, 1, 0)
    assert (tmp_path / "model.ckpt.vocab").exists()
    assert int(rows[-1].split(",")[0]) == n_steps - 1


def test_reported_hparams_flag_echoes_them(tmp_path, conf, capsys):
    data = synth(tmp_path, conf)
    ckpt = tmp_path / "rh.ckpt"
    rc = main([
        "train", "--config", conf, "--dataset", str(data),
        "--out", str(ckpt), "--reported-hparams", "--epochs", "1",
    ])
    assert rc == EXIT_OK
    echoed = capsys.readouterr().out
    assert "base_lr = 0.0001" in echoed
    assert "grad_accum_steps = 8" in echoed
    assert "clip_max_norm = 1.0" in echoed
    assert "lora_rank = 8" in echoed
    # the explicit flag still wins over the preset
    assert "epochs = 1" in echoed


def test_unknown_config_key_rejected(tmp_path, conf):
    bad = tmp_path / "bad.conf"
    bad.write_text("image_size = 16\nwombats = 3\n")
    rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "d.jsonl")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize(
    "content", [None, b"image_size = 16\nseed = \xff\xfe\n"], ids=["missing", "not_utf8"]
)
def test_unreadable_config_file_is_usage_error(tmp_path, content, capsys):
    # None: the file does not exist; bytes: the file is not UTF-8
    path = tmp_path / "c.conf"
    if content is not None:
        path.write_bytes(content)
    rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "d.jsonl")])
    assert rc == EXIT_USAGE
    assert "usage error: cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


def test_invalid_flag_is_usage_error(tmp_path):
    rc = main(["synth", "--out", str(tmp_path / "d.jsonl"), "--wat"])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "d.jsonl").exists()  # no side effects


# ---------------------------------------------------------------------------
# eval / predict
# ---------------------------------------------------------------------------

@pytest.fixture()
def trained(tmp_path, conf):
    data = synth(tmp_path, conf, n=14)
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--config", conf, "--dataset", str(data), "--out", str(ckpt), *FAST_TRAIN])
    assert rc == EXIT_OK
    return data, ckpt


def test_eval_writes_full_report(tmp_path, conf, trained, capsys):
    data, ckpt = trained
    out = tmp_path / "report"
    rc = main(["eval", "--config", conf, "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"bleu4", "rouge1", "rouge2", "rougeL", "mse_pixels", "count"}
    text = (tmp_path / "report.txt").read_text()
    assert "bleu4 = " in text


def test_eval_honors_max_samples(tmp_path, conf, trained, capsys):
    data, ckpt = trained
    rc = main([
        "eval", "--config", conf, "--checkpoint", str(ckpt),
        "--dataset", str(data), "--max-samples", "5",
    ])
    assert rc == EXIT_OK
    assert "count = 5" in capsys.readouterr().out


def test_eval_rejects_negative_max_samples(tmp_path, conf, trained, capsys):
    data, ckpt = trained
    rc = main([
        "eval", "--config", conf, "--checkpoint", str(ckpt),
        "--dataset", str(data), "--max-samples", "-1",
    ])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "max_samples" in captured.err
    assert "count = " not in captured.out


def test_predict_output_format(tmp_path, conf, trained, capsys):
    data, ckpt = trained
    samples, _ = load_dataset(data)
    img_path = tmp_path / "img.npy"
    np.save(img_path, samples[0].image)
    out_file = tmp_path / "prediction.txt"
    rc = main([
        "predict", "--config", conf, "--checkpoint", str(ckpt),
        "--image", str(img_path), "--greedy", "--out", str(out_file),
    ])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("hazard=(") and ", " in lines[0] and lines[0].endswith(")")
    assert out_file.read_text().splitlines() == lines
    caption_first = lines[1]

    rc = main([
        "predict", "--config", conf, "--checkpoint", str(ckpt),
        "--image", str(img_path), "--greedy",
    ])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip().splitlines()[1] == caption_first


def test_predict_rejects_wrong_shape(tmp_path, conf, trained):
    _, ckpt = trained
    img_path = tmp_path / "wrong.npy"
    np.save(img_path, np.zeros((1, 8, 8), np.float32))
    rc = main(["predict", "--config", conf, "--checkpoint", str(ckpt), "--image", str(img_path)])
    assert rc == EXIT_DATA


def test_predict_rejects_values_outside_unit_range(tmp_path, conf, trained, capsys):
    _, ckpt = trained
    img_path = tmp_path / "bright.npy"
    np.save(img_path, np.full((1, 16, 16), 5.0))
    rc = main(["predict", "--config", conf, "--checkpoint", str(ckpt), "--image", str(img_path)])
    assert rc == EXIT_DATA
    assert "outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("images", ["default_geometry", "mixed_sizes"])
def test_dataset_images_must_have_the_configured_geometry(tmp_path, conf, trained, capsys, command, images):
    # the configured geometry is 16x16; `synth` without the config draws 32x32
    data, ckpt = trained
    big = tmp_path / "big.jsonl"
    assert main(["synth", "--out", str(big), "--n", "3"]) == EXIT_OK
    dataset = tmp_path / "scenes.jsonl"
    if images == "default_geometry":
        dataset.write_text(big.read_text())
    else:
        dataset.write_text(data.read_text() + big.read_text().splitlines()[0] + "\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "x.ckpt"), *FAST_TRAIN]
    else:
        argv = ["eval", "--checkpoint", str(ckpt)]
    capsys.readouterr()
    rc = main([*argv, "--config", conf, "--dataset", str(dataset)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "(1, 32, 32) does not match configured (1, 16, 16)" in err


def test_non_finite_value_in_training_exits_diverged(tmp_path, conf, capsys):
    data = synth(tmp_path, conf)
    argv = ["train", "--config", conf, "--dataset", str(data), "--out", str(tmp_path / "x.ckpt")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main([*argv, "--base-lr", "1e30", "--grad-accum-steps", "1"])
    assert rc == EXIT_DIVERGED
    assert "divergence: non-finite values produced by op '" in capsys.readouterr().err


def test_non_finite_gradient_in_training_exits_diverged(tmp_path, capsys, monkeypatch):
    # the forward stays finite, the gradient does not: clipping's check
    class Poisoned(HazardModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.params.tensors["txt.0.ln1.b"].data += 1e19

    data = tmp_path / "data.jsonl"
    assert main(["synth", "--out", str(data), "--n", "5"]) == EXIT_OK
    monkeypatch.setattr("hazardvlm.cli.HazardModel", Poisoned)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "x.ckpt")])
    assert rc == EXIT_DIVERGED
    assert capsys.readouterr().err == "divergence: non-finite gradient before clipping\n"
    assert not (tmp_path / "x.ckpt").exists()


# The address space a command under test may map: enough for the program,
# so a broken size check fails to allocate instead of filling memory
ADDRESS_SPACE = 2**30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_model_over_the_parameter_cap_is_usage_error_before_any_allocation(tmp_path):
    data = tmp_path / "data.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(data), "--n", "12"]) == EXIT_OK
    (tmp_path / "big.conf").write_text("patch_size = 32\nembed_dim = 4194304\nheads = 1\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hazardvlm", "train", "--config", "big.conf", "--dataset", "data.jsonl",
         "--out", "big.ckpt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("usage error: bad config: ") and "MAX_PARAMETERS" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.conf", "data.jsonl"]


@pytest.mark.parametrize(
    "conf_text, n, cap",
    [
        # np.mgrid alone asked for 64 GiB: a MemoryError traceback
        ("image_size = 65536\npatch_size = 65536\n", "1", "MAX_IMAGE_FLOATS"),
        # images at the per-image cap, but too many of them together
        ("image_size = 2048\npatch_size = 8\n", "5", "MAX_SYNTH_FLOATS"),
    ],
    ids=["image", "dataset"],
)
def test_synth_over_a_size_cap_is_usage_error_before_any_allocation(tmp_path, conf_text, n, cap):
    (tmp_path / "big.conf").write_text(conf_text)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hazardvlm", "synth", "--config", "big.conf", "--n", n, "--out", "big.jsonl"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("usage error: ") and cap in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.conf"]


@pytest.mark.parametrize("value", [float("nan"), 3e38], ids=["nan", "overflow"])
def test_non_finite_base_weight_in_lora_training_exits_diverged(tmp_path, conf, trained, capsys, value):
    data, ckpt = trained
    model = restore_model(load_checkpoint(ckpt))
    model.params.tensors["dec.out.w"].data[...] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, None, bad, step=0, epoch=0, seed=0)
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "x.ckpt"),
                   "--mode", "lora", "--init-from", str(bad), *FAST_TRAIN])
    assert rc == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err == "divergence: non-finite values produced by op 'linear' at optimizer step 0\n"


@pytest.mark.parametrize(
    "what, folder, flags",
    [
        ("--out", "folder", ["--out", "folder"]),
        ("log", "folder", ["--out", "x.ckpt", "--log", "folder"]),
        ("log", "x.csv", ["--out", "x.ckpt"]),  # the default log, beside the checkpoint
        ("vocabulary", "x.ckpt.vocab", ["--out", "x.ckpt"]),
    ],
)
def test_train_output_path_naming_a_directory_is_usage_error(tmp_path, conf, capsys, monkeypatch, what, folder, flags):
    data = synth(tmp_path, conf)
    (tmp_path / folder).mkdir()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", conf, "--dataset", str(data), *flags, *FAST_TRAIN])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {what} path {folder} is a directory\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "what, path, flags",
    [
        ("--out", "nodir/x.ckpt", ["--out", "nodir/x.ckpt", "--log", "x.csv"]),
        ("log", "nodir/x.csv", ["--out", "x.ckpt", "--log", "nodir/x.csv"]),
        ("--out", "data.jsonl/x.ckpt", ["--out", "data.jsonl/x.ckpt", "--log", "x.csv"]),  # a file, not a folder
    ],
)
def test_train_output_path_in_a_missing_directory_is_usage_error(tmp_path, conf, capsys, monkeypatch, what, path, flags):
    # checked before any work: the checkpoint would fail only after the whole run
    data = synth(tmp_path, conf)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", conf, "--dataset", str(data), *flags, *FAST_TRAIN])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {what} path {path} is not in an existing directory\n"
    assert "Traceback" not in captured.err and captured.out == ""
    # no log row, no checkpoint, no vocabulary
    assert sorted(tmp_path.rglob("*")) == before


# Each command's arguments, its --out value, the file the directory case
# makes a folder and the file the missing case names: there --out is put
# under a folder "nodir" that does not exist, and eval checks .txt first.
_EVAL = ["eval", "--checkpoint", "{ckpt}", "--dataset", "{data}", "--out", "{out}"]
OUTPUT_CASES = {
    "synth": (["synth", "--out", "{out}", "--n", "3", "--force"], "x.jsonl", "x.jsonl", "x.jsonl"),
    "eval-txt": (_EVAL, "e", "e.txt", "e.txt"),
    "eval-json": (_EVAL, "e", "e.json", "e.txt"),
    "predict": (["predict", "--checkpoint", "{ckpt}", "--image", "img.npy", "--out", "{out}"], "p.txt", "p.txt", "p.txt"),
    "probe": (["probe", "--seeds", "1", "--t-list", "10", "--out", "{out}"], "probe.csv", "probe.csv", "probe.csv"),
}


@pytest.mark.parametrize("where", ["directory", "missing parent"])
@pytest.mark.parametrize("command", list(OUTPUT_CASES))
def test_every_command_checks_its_output_path_before_any_work(
    tmp_path, conf, trained, capsys, monkeypatch, command, where
):
    # each ended in an IsADirectoryError traceback or, after the whole
    # run, in a data error naming the missing directory
    data, ckpt = trained
    argv, out, folder, unplaced = OUTPUT_CASES[command]
    monkeypatch.chdir(tmp_path)
    np.save("img.npy", load_dataset(data)[0][0].image)
    if where == "directory":
        Path(folder).mkdir()
        message = f"{folder} is a directory"
    else:
        out = f"nodir/{out}"
        message = f"nodir/{unplaced} is not in an existing directory"
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main([arg.format(out=out, ckpt=ckpt, data=data) for arg in argv] + ["--config", conf] * (command != "probe"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --out path {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--out", "c.ckpt", "--log", "c.ckpt"], "log path c.ckpt is also the --out path"),
        (["--out", "d.ckpt", "--log", "d.ckpt.vocab"], "vocabulary path d.ckpt.vocab is also the log path"),
    ],
    ids=["log-is-checkpoint", "log-is-vocabulary"],
)
def test_train_outputs_naming_one_file_are_usage_error(tmp_path, conf, capsys, monkeypatch, flags, message):
    # both exited 0, the checkpoint or vocabulary written over the log
    data = synth(tmp_path, conf)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", conf, "--dataset", str(data), *flags, *FAST_TRAIN])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv, clobbered, message",
    [
        (["train", "--dataset", "{data}", "--out", "x.ckpt", "--log", "{data}"], "{data}",
         "log path {data} is also the --dataset path"),
        (["train", "--dataset", "{data}", "--out", "{data}"], "{data}", "--out path {data} is also the --dataset path"),
        (["predict", "--checkpoint", "{ckpt}", "--image", "img.npy", "--out", "img.npy"], "img.npy",
         "--out path img.npy is also the --image path"),
        (["train", "--dataset", "{data}", "--mode", "lora", "--init-from", "{ckpt}", "--out", "{ckpt}"], "{ckpt}",
         "--out path {ckpt} is also the --init-from path"),
    ],
    ids=["log-over-dataset", "checkpoint-over-dataset", "prediction-over-image", "lora-over-its-base"],
)
def test_an_output_naming_an_input_is_usage_error(
    tmp_path, conf, trained, capsys, monkeypatch, argv, clobbered, message
):
    # each exited 0, having written its output over the input
    data, ckpt = trained
    monkeypatch.chdir(tmp_path)
    np.save("img.npy", load_dataset(data)[0][0].image)
    clobbered = Path(clobbered.format(data=data, ckpt=ckpt))
    held = clobbered.read_bytes()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main([*(arg.format(data=data, ckpt=ckpt) for arg in argv), "--config", conf])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message.format(data=data, ckpt=ckpt)}\n"
    assert captured.out == ""
    assert clobbered.read_bytes() == held
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_output_stem_naming_no_file_is_usage_error(tmp_path, conf, trained, capsys, monkeypatch, command):
    # ``--out .`` has no name to put a suffix on: a ValueError traceback
    data, ckpt = trained
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    inputs = ["--dataset", str(data)] + (["--checkpoint", str(ckpt)] if command == "eval" else [])
    rc = main([command, "--config", conf, *inputs, "--out", "."])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: --out path . is a directory\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_overlong_caption_is_data_error(tmp_path, conf):
    data = synth(tmp_path, conf)
    lines = data.read_text().splitlines()
    record = json.loads(lines[0])
    record["caption"] = " ".join(["word"] * 40)
    lines[0] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--config", conf, "--dataset", str(data), "--out", str(tmp_path / "x.ckpt")])
    assert rc == EXIT_DATA


def _one_word_captions(data):
    """The dataset at ``data``, rewritten with the caption "hazard" for
    every scene: two target tokens, which any max_caption_len holds."""
    records = [json.loads(line) for line in data.read_text().splitlines()]
    data.write_text("".join(json.dumps({**r, "caption": "hazard"}) + "\n" for r in records))
    return data


@pytest.mark.parametrize("max_len, code", [(4, EXIT_USAGE), (5, EXIT_OK)])
def test_train_model_too_short_for_the_prompt_is_usage_error(tmp_path, capsys, max_len, code):
    # the prompt is 5 tokens; at 4 the run ended in a ShapeError traceback
    short = tmp_path / "short.conf"
    short.write_text(SMALL_CONF + f"max_caption_len = {max_len}\n")
    data = _one_word_captions(synth(tmp_path, str(short)))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", str(short), "--dataset", str(data), "--out", str(tmp_path / "x.ckpt"), *FAST_TRAIN])
    assert rc == code
    if code == EXIT_USAGE:
        err = "usage error: bad config: max_caption_len = 4 is shorter than the 5-token prompt\n"
        assert capsys.readouterr().err == err
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_checkpoint_model_too_short_for_the_prompt_is_data_error(tmp_path, conf, trained, capsys, command):
    # a consistent checkpoint whose stored config has max_caption_len 4:
    # each command ended in a ShapeError traceback
    data, ckpt = trained
    data = _one_word_captions(data)
    config = dataclasses.replace(load_checkpoint(ckpt).config, max_caption_len=4)
    bad = tmp_path / "short.ckpt"
    save_checkpoint(HazardModel(config, seed=0), None, bad, step=0, epoch=0, seed=0)
    (tmp_path / "short.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    if command == "train":
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "lora.ckpt"),
                "--mode", "lora", "--init-from", str(bad), *FAST_TRAIN]
    else:
        argv = [*_eval_or_predict(command, data, tmp_path), "--checkpoint", str(bad)]
    capsys.readouterr()
    rc = main([*argv, "--config", conf])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {bad}: max_caption_len = 4 is shorter than the 5-token prompt\n"


def test_corrupt_checkpoint_is_data_error(tmp_path, conf, trained):
    data, ckpt = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + ckpt.read_bytes()[4:])
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    rc = main(["eval", "--config", conf, "--checkpoint", str(bad), "--dataset", str(data)])
    assert rc == EXIT_DATA


def test_checkpoint_with_undecodable_name_is_data_error(tmp_path, conf, trained):
    data, ckpt = trained
    blob = bytearray(ckpt.read_bytes()[CHECKPOINT_HEADER:])
    # the first tensor's name, after the model config
    blob[blob.index(b"vis.patch_embed.w")] = 0xFF  # never valid in UTF-8
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(sealed_checkpoint(bytes(blob)))
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    img_path = tmp_path / "img.npy"
    np.save(img_path, load_dataset(data)[0][0].image)
    rc = main(["predict", "--config", conf, "--checkpoint", str(bad), "--image", str(img_path)])
    assert rc == EXIT_DATA


def test_checkpoint_with_a_repeated_tensor_is_data_error(tmp_path, conf, trained, capsys):
    # a second copy of the last tensor, every element 123.0
    data, ckpt = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_repeated_last_tensor(ckpt.read_bytes(), 123.0))
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    img_path = tmp_path / "img.npy"
    np.save(img_path, load_dataset(data)[0][0].image)
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(bad), "--image", str(img_path), "--greedy"])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert "tensor 'dec.out.b' stored twice" in captured.err and captured.out == ""


def test_lora_checkpoint_round_trips_through_eval(tmp_path, conf, trained, capsys):
    data, base_ckpt = trained
    lora_ckpt = tmp_path / "lora.ckpt"
    rc = main([
        "train", "--config", conf, "--dataset", str(data), "--out", str(lora_ckpt),
        "--mode", "lora", "--init-from", str(base_ckpt), *FAST_TRAIN,
    ])
    assert rc == EXIT_OK
    rc = main(["eval", "--config", conf, "--checkpoint", str(lora_ckpt), "--dataset", str(data)])
    assert rc == EXIT_OK
    assert "bleu4 = " in capsys.readouterr().out


def test_lora_checkpoint_as_init_from_is_data_error(tmp_path, conf, trained, capsys):
    data, base_ckpt = trained
    lora_ckpt = tmp_path / "lora.ckpt"
    argv = ["train", "--config", conf, "--dataset", str(data), "--mode", "lora", *FAST_TRAIN]
    assert main([*argv, "--out", str(lora_ckpt), "--init-from", str(base_ckpt)]) == EXIT_OK
    capsys.readouterr()
    again = tmp_path / "again.ckpt"
    rc = main([*argv, "--out", str(again), "--init-from", str(lora_ckpt)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "--init-from needs a base checkpoint" in err
    assert not again.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_brings_its_model_config(tmp_path, conf, trained, capsys, command):
    # the small geometry is read from the file: the run's config adds nothing
    data, ckpt = trained
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data)]
    else:
        image = tmp_path / "img.npy"
        np.save(image, load_dataset(data)[0][0].image)
        argv = ["predict", "--checkpoint", str(ckpt), "--image", str(image), "--greedy"]
    capsys.readouterr()
    assert main([*argv, "--config", conf]) == EXIT_OK
    configured = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == configured


def test_lora_checkpoint_evaluates_under_reported_hparams(tmp_path, conf, trained, capsys):
    # the preset's lora_rank = 8 does not rebuild adapters trained at rank 4
    data, base_ckpt = trained
    lora_ckpt = tmp_path / "lora.ckpt"
    rank4 = tmp_path / "rank4.conf"
    rank4.write_text(SMALL_CONF + "lora_rank = 4\n")
    rc = main([
        "train", "--config", str(rank4), "--dataset", str(data), "--out", str(lora_ckpt),
        "--mode", "lora", "--init-from", str(base_ckpt), *FAST_TRAIN,
    ])
    assert rc == EXIT_OK
    assert load_checkpoint(lora_ckpt).tensors["lora.vis.0.attn.wq.a"].shape == (16, 4)
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(lora_ckpt), "--dataset", str(data)]
    assert main([*argv, "--config", conf, "--reported-hparams"]) == EXIT_OK
    assert "bleu4 = " in capsys.readouterr().out


def test_lora_run_takes_its_rank_and_the_rest_from_the_base(tmp_path, trained, capsys):
    data, base_ckpt = trained
    lora_ckpt = tmp_path / "lora.ckpt"
    rc = main([
        "train", "--dataset", str(data), "--out", str(lora_ckpt), "--mode", "lora",
        "--init-from", str(base_ckpt), "--reported-hparams", "--epochs", "1",
    ])
    assert rc == EXIT_OK
    echoed = capsys.readouterr().out.splitlines()
    assert "image_size = 16" in echoed and "lora_rank = 8" in echoed
    base, lora = load_checkpoint(base_ckpt), load_checkpoint(lora_ckpt)
    assert (base.config.lora_rank, lora.config.lora_rank) == (2, 8)
    assert dataclasses.replace(lora.config, lora_rank=2) == base.config
    assert lora.tensors["lora.vis.0.attn.wq.a"].shape == (16, 8)
    assert main(["eval", "--checkpoint", str(lora_ckpt), "--dataset", str(data)]) == EXIT_OK
    assert "bleu4 = " in capsys.readouterr().out


def test_lora_rank_the_base_geometry_rejects_is_usage_error(tmp_path, conf, trained, capsys):
    # the small base has latent_dim = 8, so rank 9 does not fit
    data, base_ckpt = trained
    out = tmp_path / "lora.ckpt"
    rank9 = tmp_path / "rank9.conf"
    rank9.write_text("lora_rank = 9\n")
    rc = main([
        "train", "--config", str(rank9), "--dataset", str(data), "--out", str(out),
        "--mode", "lora", "--init-from", str(base_ckpt),
    ])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_vocabulary_of_another_size_is_data_error(tmp_path, conf, trained, capsys, command):
    data, ckpt = trained
    vocab = tmp_path / "model.ckpt.vocab"
    size = len(vocab.read_text(encoding="utf-8").splitlines())
    with vocab.open("a", encoding="utf-8") as fh:
        fh.write("wombat\n")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data)]
    elif command == "predict":
        image = tmp_path / "img.npy"
        np.save(image, load_dataset(data)[0][0].image)
        argv = ["predict", "--checkpoint", str(ckpt), "--image", str(image)]
    else:
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "lora.ckpt"),
                "--mode", "lora", "--init-from", str(ckpt)]
    capsys.readouterr()
    rc = main([*argv, "--config", conf])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"has {size + 1} tokens" in err and f"built for {size}" in err


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_unreadable_checkpoint_is_data_error(tmp_path, conf, trained, capsys, command):
    data, ckpt = trained
    folder = tmp_path / "folder.ckpt"
    folder.mkdir()
    vocab = tmp_path / "folder.ckpt.vocab"
    vocab.write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    if command == "eval":
        argv = ["eval", "--checkpoint", str(folder), "--dataset", str(data)]
    elif command == "predict":
        image = tmp_path / "img.npy"
        np.save(image, load_dataset(data)[0][0].image)
        argv = ["predict", "--checkpoint", str(folder), "--image", str(image), "--vocab", str(vocab)]
    else:
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "lora.ckpt"),
                "--mode", "lora", "--init-from", str(folder)]
    capsys.readouterr()
    rc = main([*argv, "--config", conf])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: cannot read checkpoint {folder}")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_overflowing_checkpoint_is_data_error(tmp_path, conf, trained, capsys, command):
    data, ckpt = trained
    # overwrite the payload of one weight with 3e38, near the float32 limit
    blob = bytearray(ckpt.read_bytes()[CHECKPOINT_HEADER:])
    name = b"vis.patch_embed.w"
    at = blob.index(name) + len(name)  # the tensor section comes first
    (rank,) = struct.unpack_from("<I", blob, at)
    dims = struct.unpack_from(f"<{rank}Q", blob, at + 4)
    start = at + 4 + 8 * rank
    blob[start : start + 4 * math.prod(dims)] = np.full(dims, 3e38, "<f4").tobytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(sealed_checkpoint(bytes(blob)))
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    if command == "eval":
        argv = ["eval", "--dataset", str(data)]
    else:
        image = tmp_path / "gray.npy"
        np.save(image, np.full((1, 16, 16), 0.5, np.float32))
        argv = ["predict", "--image", str(image), "--greedy"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main([*argv, "--config", conf, "--checkpoint", str(bad)])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ")
    assert "non-finite values produced by op 'linear'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, code", [("eval", EXIT_DATA), ("predict", EXIT_DATA), ("train", EXIT_DIVERGED)])
def test_checkpoint_whose_layer_norm_variance_overflows_is_an_error(tmp_path, conf, trained, capsys, command, code):
    # no op's output overflows, but a layer norm's variance does: the row
    # would silently become the norm's bias
    data, ckpt = trained
    model = restore_model(load_checkpoint(ckpt))
    model.params.tensors["proj.img.w"].data[...] = 1e37
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, None, bad, step=0, epoch=0, seed=0)
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    if command == "train":
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "x.ckpt"), "--mode", "lora",
                "--init-from", str(bad), *FAST_TRAIN]
    else:
        argv = [*_eval_or_predict(command, data, tmp_path), "--config", conf, "--checkpoint", str(bad)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main(argv)
    assert rc == code
    assert "non-finite values produced by op 'layer_norm'" in capsys.readouterr().err


def _resealed(ckpt, blob: bytearray, tmp_path):
    """``blob`` as a checkpoint with a matching checksum, beside ckpt's
    vocabulary."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(sealed_checkpoint(bytes(blob)))
    (tmp_path / "bad.ckpt.vocab").write_bytes(ckpt.with_name(ckpt.name + ".vocab").read_bytes())
    return bad


def _eval_or_predict(command, data, tmp_path):
    if command == "eval":
        return ["eval", "--dataset", str(data)]
    image = tmp_path / "gray.npy"
    np.save(image, np.full((1, 16, 16), 0.5, np.float32))
    return ["predict", "--image", str(image), "--greedy"]


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_overflowing_only_at_decode_is_data_error(tmp_path, conf, trained, capsys, command):
    # inference checks stage outputs with the per-op guard off; this file
    # passes the encoder stages and fails at the first decode step, and the
    # guarded re-run still names the op
    data, ckpt = trained
    blob = bytearray(ckpt.read_bytes()[CHECKPOINT_HEADER:])
    name = b"dec.out.w"
    at = blob.index(name) + len(name)
    (rank,) = struct.unpack_from("<I", blob, at)
    dims = struct.unpack_from(f"<{rank}Q", blob, at + 4)
    start = at + 4 + 8 * rank
    blob[start : start + 4 * math.prod(dims)] = np.full(dims, 3e38, "<f4").tobytes()
    bad = _resealed(ckpt, blob, tmp_path)
    argv = _eval_or_predict(command, data, tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main([*argv, "--config", conf, "--checkpoint", str(bad)])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: checkpoint weights overflow: ")
    assert "non-finite values produced by op 'linear'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_overflowing_only_in_the_prompt_encoding_is_data_error(tmp_path, conf, trained, capsys, command):
    # a weight only the prompt's encoding uses: inference runs the
    # weight-only work unguarded, fails the fused-latents check and names
    # the op when it runs again guarded
    data, ckpt = trained
    model = restore_model(load_checkpoint(ckpt))
    model.params.tensors["txt.0.attn.wq"].data[...] = 3e38
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, None, bad, step=0, epoch=0, seed=0)
    (tmp_path / "bad.ckpt.vocab").write_bytes((tmp_path / "model.ckpt.vocab").read_bytes())
    argv = _eval_or_predict(command, data, tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        rc = main([*argv, "--config", conf, "--checkpoint", str(bad)])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == "data error: checkpoint weights overflow: non-finite values produced by op 'linear'\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_checkpoint_with_a_huge_stored_config_is_data_error(tmp_path, conf, trained, capsys, command):
    # a valid checksum over a config whose parameters would not fit in memory:
    # reading the stored config counts them against the cap, before any
    # tensor is compared or parameter built
    data, ckpt = trained
    blob = ckpt.read_bytes()[CHECKPOINT_HEADER:]
    (size,) = struct.unpack_from("<I", blob)
    config = json.loads(blob[4 : 4 + size])
    config["max_caption_len"] = 10**13
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    bad = _resealed(ckpt, bytearray(struct.pack("<I", len(raw)) + raw + blob[4 + size :]), tmp_path)
    if command == "train":
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "lora.ckpt"),
                "--mode", "lora", "--init-from", str(bad)]
    else:
        argv = [*_eval_or_predict(command, data, tmp_path), "--checkpoint", str(bad)]
    capsys.readouterr()
    rc = main([*argv, "--config", conf])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "malformed checkpoint payload" in err and "MAX_PARAMETERS" in err


@pytest.mark.parametrize(
    "command, line",
    [
        ("train", "epochs = 0"), ("train", "patch_size = 5"), ("predict", "temperature = 0"),
        ("predict", "temperature = inf"), ("predict", "temperature = nan"),
        ("predict", "top_p = 1.5"), ("synth", "patch_size = 0"), ("train", "heads = 0"),
        ("train", "encoder_layers = 0"),
    ],
)
def test_config_value_the_library_rejects_is_usage_error(tmp_path, trained, capsys, command, line):
    data, ckpt = trained
    bad = tmp_path / "bad.conf"
    bad.write_text(SMALL_CONF + line + "\n")
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "d.jsonl")]
    elif command == "train":
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "x.ckpt")]
    else:
        img = tmp_path / "img.npy"
        np.save(img, load_dataset(data)[0][0].image)
        argv = ["predict", "--checkpoint", str(ckpt), "--image", str(img)]
    rc = main([*argv, "--config", str(bad)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
def test_temperature_too_small_for_the_logits_is_usage_error(tmp_path, trained, capsys, greedy):
    # positive and finite, but logits / temperature overflows: sampling
    # raised on NaN probabilities, and greedy decoding picked from them
    data, ckpt = trained
    img = tmp_path / "img.npy"
    np.save(img, load_dataset(data)[0][0].image)
    bad = tmp_path / "tiny-t.conf"
    bad.write_text(SMALL_CONF + "temperature = 1e-320\n")
    out = tmp_path / "pred.txt"
    argv = ["predict", "--checkpoint", str(ckpt), "--image", str(img), "--config", str(bad), "--out", str(out)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--greedy"] * greedy)
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "usage error: temperature 1e-320 is too small: logits / temperature is not finite\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["synth", "train", "predict"])
@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_usage_error_before_any_work(tmp_path, trained, capsys, monkeypatch, command, where, seed):
    # checked before any work: 2**64 does not fit the checkpoint's u64 seed field
    data, ckpt = trained
    img = tmp_path / "img.npy"
    np.save(img, load_dataset(data)[0][0].image)
    (tmp_path / "seed.conf").write_text(SMALL_CONF + (f"seed = {seed}\n" if where == "file" else ""))
    argv = {
        "synth": ["synth", "--out", "d.jsonl"],
        "train": ["train", "--dataset", str(data), "--out", "x.ckpt", *FAST_TRAIN],
        "predict": ["predict", "--checkpoint", str(ckpt), "--image", str(img), "--out", "p.txt"],
    }[command]
    argv += ["--config", "seed.conf"] + (["--seed", str(seed)] if where == "flag" else [])
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: bad config: seed must be in [0, 2**64), got {seed}\n"
    assert captured.out == ""
    # no dataset, log, checkpoint, vocabulary or prediction
    assert sorted(tmp_path.rglob("*")) == before


# each was a ValueError traceback from inside train (lambda_coord -1 too),
# a run that ended in exit 3 "divergence" (both betas, adam_eps 0, and the
# NaN or infinite weights), or a run that trained and exited 0
# (clip_max_norm -1, weight_decay -1, adam_eps inf, soft_argmax_tau inf)
@pytest.mark.parametrize(
    "key, value",
    [
        ("soft_argmax_tau", "0"),
        ("soft_argmax_tau", "nan"),
        ("soft_argmax_tau", "inf"),
        ("warmup_frac", "nan"),
        ("warmup_frac", "2"),
        ("base_lr", "-1"),
        ("warmup_start_lr", "nan"),
        ("clip_max_norm", "-1"),
        ("clip_max_norm", "0"),
        ("beta1", "1.0"),
        ("beta1", "nan"),
        ("beta2", "-1"),
        ("beta2", "1.0"),
        ("adam_eps", "0"),
        ("adam_eps", "inf"),
        ("weight_decay", "nan"),
        ("weight_decay", "-1"),
        ("lambda_coord", "nan"),
        ("lambda_coord", "-1"),
        ("lambda_text", "inf"),
    ],
)
def test_out_of_range_train_float_is_usage_error_before_any_work(tmp_path, conf, capsys, monkeypatch, key, value):
    data = synth(tmp_path, conf)
    (tmp_path / "bad.conf").write_text(SMALL_CONF + f"{key} = {value}\n")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["train", "--config", "bad.conf", "--dataset", str(data), "--out", "x.ckpt", "--epochs", "1"])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: bad config: ") and key in captured.err
    assert captured.out == ""
    # no log, checkpoint or vocabulary
    assert sorted(tmp_path.rglob("*")) == before


# synth: each was a traceback (noise_high -5 and NaN, blob_sigma 0), an
# exit 0 with a file the loader rejects in full (blob_sigma 1e-30, and
# blob_sigma and blob_peak NaN), accepted although out of range
# (blob_sigma -1), or a data error (synth_n 0)
@pytest.mark.parametrize(
    "line, message",
    [
        ("noise_high = -5", "noise_high must be finite and non-negative, got -5.0"),
        ("noise_high = nan", "noise_high must be finite and non-negative, got nan"),
        ("blob_sigma = 0", "blob_sigma must be positive and finite, got 0.0"),
        ("blob_sigma = nan", "blob_sigma must be positive and finite, got nan"),
        ("blob_sigma = -1", "blob_sigma must be positive and finite, got -1.0"),
        ("blob_sigma = 1e-30", "blob_sigma 1e-30 is too small: 2 * blob_sigma**2 is 0 in float32"),
        ("blob_peak = nan", "blob_peak must be finite and at least 0.8 to dominate the noise, got nan"),
        ("synth_n = 0", "synth_n must be at least 1, got 0"),
    ],
)
def test_out_of_range_synth_value_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, line, message):
    (tmp_path / "c.conf").write_text(SMALL_CONF + line + "\n")
    monkeypatch.chdir(tmp_path)
    n = [] if line.startswith("synth_n") else ["--n", "3"]
    assert main(["synth", *n, "--config", "c.conf", "--out", "d.jsonl"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.endswith(message + "\n") and captured.err.startswith("usage error: ")
    assert captured.out == "" and not (tmp_path / "d.jsonl").exists()


# train read the whole dataset, then exited 2 ("data error") in split
@pytest.mark.parametrize("value", ["nan", "0", "1", "-1", "inf"])
def test_out_of_range_val_fraction_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, value):
    (tmp_path / "bad.conf").write_text(SMALL_CONF + f"val_fraction = {value}\n")
    monkeypatch.chdir(tmp_path)
    read = []
    monkeypatch.setattr("hazardvlm.cli.load_dataset", lambda *a: read.append(a) or ([], []))
    assert main(["train", "--config", "bad.conf", "--dataset", "d.jsonl", "--out", "x.ckpt"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: val_fraction must be in (0, 1), got {float(value)}\n"
    assert read == [] and sorted(p.name for p in tmp_path.iterdir()) == ["bad.conf"]


@pytest.fixture(scope="module")
def config_world(tmp_path_factory):
    """A 12-scene dataset at the small geometry, a checkpoint trained on it
    and one of its images, shared by the config-value property test."""
    root = tmp_path_factory.mktemp("config-world")
    conf = root / "small.conf"
    conf.write_text(SMALL_CONF)
    data, ckpt = root / "data.jsonl", root / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(conf), "--out", str(data), "--n", "12"]) == EXIT_OK
        assert main(["train", "--config", str(conf), "--dataset", str(data), "--out", str(ckpt), *FAST_TRAIN]) == EXIT_OK
    np.save(root / "img.npy", load_dataset(data)[0][0].image)
    return root


def _key_commands() -> dict[str, str]:
    """Every float key of RunConfig and every CLI-only key, with the
    subcommand that reads it; a float key of another config fails here."""
    commands = {f.name: "train" for f in dataclasses.fields(TrainConfig)}
    commands |= {f.name: "synth" for f in dataclasses.fields(SynthConfig)}
    commands |= {"val_fraction": "train", "synth_n": "synth", "max_samples": "eval",
                 "top_p": "predict", "temperature": "predict"}
    keys = {f.name for f in dataclasses.fields(RunConfig) if f.type == "float"} | {"synth_n", "max_samples"}
    return {key: commands[key] for key in keys}


KEY_COMMANDS = _key_commands()
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1"]
# the ends of each key's valid range, at the small geometry's defaults
BOUNDARIES = {
    "base_lr": ["3e-05"], "warmup_start_lr": ["0.0001"], "warmup_frac": ["1"],
    "beta1": ["1"], "beta2": ["1"], "val_fraction": ["1"], "top_p": ["1"],
    "blob_peak": ["0.8"], "blob_sigma": ["1.07"], "noise_high": ["0.3344"],
    "synth_n": ["1"], "max_samples": ["1"],
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KEY_COMMANDS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(EDGE_VALUES + BOUNDARIES.get(key, [])))
))
def test_any_config_value_is_accepted_or_a_usage_error_before_any_work(config_world, key_value):
    key, value = key_value
    root = config_world
    work = Path(tempfile.mkdtemp(dir=root))
    (work / "c.conf").write_text(SMALL_CONF + f"{key} = {value}\n")
    argv = {
        "synth": ["synth", "--out", str(work / "d.jsonl")] + (["--n", "3"] if key != "synth_n" else []),
        "train": ["train", "--dataset", str(root / "data.jsonl"), "--out", str(work / "x.ckpt"), "--epochs", "1"],
        "eval": ["eval", "--checkpoint", str(root / "model.ckpt"), "--dataset", str(root / "data.jsonl"),
                 "--out", str(work / "report")],
        "predict": ["predict", "--checkpoint", str(root / "model.ckpt"), "--image", str(root / "img.npy"),
                    "--out", str(work / "p.txt")],
    }[KEY_COMMANDS[key]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([*argv, "--config", str(work / "c.conf")])
    assert rc in (EXIT_OK, EXIT_USAGE), (rc, err.getvalue())
    if rc == EXIT_USAGE:
        assert err.getvalue().startswith("usage error: ")
        assert [p.name for p in work.iterdir()] == ["c.conf"]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_unreadable_dataset_is_data_error(tmp_path, conf, trained, capsys, command, kind):
    dataset = tmp_path / "bad"
    if kind == "directory":
        dataset.mkdir()
    else:
        dataset.write_bytes(b'{"caption": "caf\xe9"}\n')
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "x.ckpt")]
    else:
        argv = ["eval", "--checkpoint", str(trained[1])]
    rc = main([*argv, "--config", conf, "--dataset", str(dataset)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: " in err
    if kind == "not_utf8":
        assert err.startswith("line 1: [json] ")


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8", "duplicate_token"])
def test_bad_vocabulary_is_data_error(tmp_path, conf, trained, capsys, command, kind):
    # eval and predict read --vocab; a lora train reads the base checkpoint's
    # vocabulary file next to it
    data, ckpt = trained
    vocab = tmp_path / "bad.vocab" if command != "train" else tmp_path / "model.ckpt.vocab"
    good = (tmp_path / "model.ckpt.vocab").read_text(encoding="utf-8")
    vocab.unlink(missing_ok=True)
    if kind == "directory":
        vocab.mkdir()
    elif kind == "not_utf8":
        vocab.write_bytes(good.encode("utf-8") + b"caf\xe9\n")
    else:
        vocab.write_text(good + good.splitlines()[-1] + "\n", encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--vocab", str(vocab)]
    elif command == "predict":
        image = tmp_path / "img.npy"
        np.save(image, load_dataset(data)[0][0].image)
        argv = ["predict", "--checkpoint", str(ckpt), "--image", str(image), "--vocab", str(vocab)]
    else:
        argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "lora.ckpt"),
                "--mode", "lora", "--init-from", str(ckpt)]
    rc = main([*argv, "--config", conf])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: cannot read vocabulary ")


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def test_probe_table_and_records(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--seeds", "2", "--t-list", "50,200,800", "--out", str(out)])
    assert rc == EXIT_OK
    table = capsys.readouterr().out
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3
    assert all(len(r.split(",")) == 2 for r in rows)
    assert "slope" in table


@pytest.mark.parametrize(
    "flags",
    [["--t-list", "abc"], ["--t-list", "0,10"], ["--seeds", "0"], ["--dims", "0"]],
    ids=["t_list_not_int", "t_list_zero", "no_seeds", "zero_dims"],
)
def test_probe_malformed_arguments_are_usage_errors(flags, capsys):
    rc = main(["probe", "--seeds", "1", "--t-list", "10", *flags])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "slope" not in captured.out


@pytest.mark.parametrize("flags", [["--seed", "1"], ["--config", "missing.conf"]], ids=["seed", "config"])
def test_probe_rejects_the_run_flags_it_never_read(tmp_path, monkeypatch, flags, capsys):
    # both were accepted and ignored: any seed printed the same table, and
    # a missing or malformed config file exited 0
    monkeypatch.chdir(tmp_path)
    rc = main(["probe", "--seeds", "1", "--t-list", "10", "--out", "probe.csv", *flags])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
    assert captured.out == "" and not (tmp_path / "probe.csv").exists()


@pytest.mark.parametrize(
    "flags, cap",
    [
        (["--dims", "2000000000"], "MAX_PROBE_DIMS"),  # a 14.9 GiB objective
        (["--seeds", "100000000000"], "MAX_PROBE_STEPS"),  # a list of 10**11 seeds
        (["--t-list", "1,100000000000"], "MAX_PROBE_STEPS"),  # 10**11 steps: ran for hours
    ],
    ids=["dims", "seeds", "horizon"],
)
def test_probe_over_a_size_cap_is_usage_error_before_any_allocation(tmp_path, flags, cap):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hazardvlm", "probe", "--out", "probe.csv", *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("usage error: probe: ") and cap in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_probe_single_horizon_prints_no_slope(capsys):
    # a line through one point: no fit, so no numpy RankWarning and no trend warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["probe", "--seeds", "1", "--t-list", "10"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "fitted log-log slope: n/a" in captured.out
    assert captured.err == ""


def test_probe_divergence_exit_code(capsys):
    rc = main(["probe", "--seeds", "1", "--t-list", "100", "--lr0", "1e30"])
    assert rc == EXIT_DIVERGED


@pytest.mark.parametrize("lr0, code", [("nan", EXIT_USAGE), ("inf", EXIT_USAGE), ("1e300", EXIT_DIVERGED)])
def test_probe_non_finite_lr0_is_usage_error(lr0, code, capsys):
    # nan and inf exited 3, as if a finite rate had diverged
    rc = main(["probe", "--seeds", "1", "--t-list", "100", "--lr0", lr0])
    assert rc == code
    if code == EXIT_USAGE:
        assert capsys.readouterr().err == f"usage error: probe: lr0 must be finite and non-negative, got {lr0}\n"


# ---------------------------------------------------------------------------
# help and config plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["synth", "train", "eval", "predict", "probe"])
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_run_config_defaults_are_reported_values():
    cfg = RunConfig()
    assert cfg.base_lr == 1e-4
    assert cfg.epochs == 3
    assert cfg.grad_accum_steps == 8
    assert cfg.clip_max_norm == 1.0
    assert cfg.batch_size == 1
    assert cfg.top_p == 0.9
    assert cfg.temperature == 0.95
    assert cfg.warmup_start_lr == 3e-5


# key -> (type, default) of every RunConfig field; a library config edit that
# moves a config key or its default shows up here
PINNED_RUN_CONFIG = {
    "image_size": ("int", 32), "channels": ("int", 1), "patch_size": ("int", 8),
    "embed_dim": ("int", 32), "heads": ("int", 4), "encoder_layers": ("int", 2),
    "decoder_layers": ("int", 2), "latent_dim": ("int", 16), "lora_rank": ("int", 4),
    "max_caption_len": ("int", 16), "projector": ("str", "linear"), "ffn_mult": ("int", 4),
    "soft_argmax_tau": ("float", 0.5), "lambda_coord": ("float", 1.0),
    "lambda_text": ("float", 1.0), "base_lr": ("float", 1e-4),
    "warmup_start_lr": ("float", 3e-5), "warmup_frac": ("float", 0.1),
    "weight_decay": ("float", 0.01), "beta1": ("float", 0.9), "beta2": ("float", 0.999),
    "adam_eps": ("float", 1e-8), "clip_max_norm": ("float", 1.0), "epochs": ("int", 3),
    "batch_size": ("int", 1), "grad_accum_steps": ("int", 8), "val_fraction": ("float", 0.2),
    "mode": ("str", "pretrain"), "seed": ("int", 0), "top_p": ("float", 0.9),
    "temperature": ("float", 0.95), "synth_n": ("int", 250), "blob_sigma": ("float", 1.0),
    "blob_peak": ("float", 0.85), "noise_high": ("float", 0.3), "max_samples": ("int", 0),
}


def test_run_config_keys_types_and_defaults_are_pinned():
    fields = {f.name: (f.type, f.default) for f in dataclasses.fields(RunConfig)}
    assert fields == PINNED_RUN_CONFIG
    text = RunConfig().as_text().splitlines()
    assert sorted(line.split(" = ")[0] for line in text) == sorted(PINNED_RUN_CONFIG)


def test_flags_override_config_file(tmp_path, conf):
    data = tmp_path / "d.jsonl"
    rc = main(["synth", "--config", conf, "--out", str(data), "--n", "3", "--seed", "1"])
    assert rc == EXIT_OK
    samples, _ = load_dataset(data)
    assert len(samples) == 3
    assert samples[0].image.shape == (1, 16, 16)  # from config file
