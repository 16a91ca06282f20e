"""Operator surface: synth / train / eval / predict / probe subcommands.

Configuration is a flat key = value file (# comments) merged with command
line flags; flags win. Exit codes: 0 success, 1 usage or config error,
2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import (
    DataError,
    SynthConfig,
    Vocabulary,
    build_vocab,
    detokenize,
    load_dataset,
    load_image,
    save_dataset,
    split,
    synth_generate,
    tokenize,
)
# unused here; the benchmark tracer patches these two names on this module
from .localization import grid_to_pixel, hard_argmax  # noqa: F401
from .model import HazardModel, ModelConfig, SamplingError, check_sampling
from .optim import DivergenceError, convergence_probe, fitted_loglog_slope, probe_table
from .tensor import NonFiniteError, Tensor
from .training import (
    HAZARD_PROMPT,
    CheckpointError,
    Predictor,
    TrainConfig,
    apply_checkpoint,  # noqa: F401 (patched by the benchmark tracer)
    evaluate,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


# Library config fields no config key sets: the vocabulary size comes from
# the data, and the log path is a flag.
_NOT_CONFIGURABLE = {"vocab_size", "log_path"}
# keys only the command line reads: (name, type, default)
_CLI_ONLY = [
    ("val_fraction", "float", 0.2),
    ("top_p", "float", 0.9),
    ("temperature", "float", 0.95),
    ("synth_n", "int", 250),
    ("max_samples", "int", 0),  # 0 means no cap
]


def _run_config_fields() -> list[tuple[str, str, object]]:
    """(name, type, default) of the library configs' fields, then the
    CLI-only keys; a name two configs type or default differently fails."""
    merged: dict[str, tuple[str, object]] = {}
    for source in (ModelConfig, TrainConfig, SynthConfig):
        for f in dataclasses.fields(source):
            if f.name in _NOT_CONFIGURABLE:
                continue
            spec = merged.setdefault(f.name, (f.type, f.default))
            if spec != (f.type, f.default):
                raise TypeError(
                    f"{source.__name__}.{f.name} is {(f.type, f.default)}, another config has {spec}"
                )
    return [(name, type_, default) for name, (type_, default) in merged.items()] + _CLI_ONLY


def _as_text(self) -> str:
    return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self))


# Every tunable, with defaults; serialized as flat key = value text.
RunConfig = dataclasses.make_dataclass(
    "RunConfig", _run_config_fields(), namespace={"as_text": _as_text, "__module__": __name__}
)


def config_for(cls, cfg, **extra):
    """An instance of library config ``cls`` with its fields taken from the
    run config ``cfg``; ``extra`` supplies the non-configurable ones."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in _NOT_CONFIGURABLE]
    try:
        return cls(**{name: getattr(cfg, name) for name in names}, **extra)
    except ValueError as exc:  # a value the library's validation rejects
        raise UsageError(f"bad config: {exc}") from exc


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_COERCE = {"int": int, "float": float, "str": str}

REPORTED_HPARAMS = {
    "lora_rank": 8,
    "base_lr": 1e-4,
    "warmup_start_lr": 3e-5,
    "epochs": 3,
    "batch_size": 1,
    "grad_accum_steps": 8,
    "clip_max_norm": 1.0,
    "top_p": 0.9,
    "temperature": 0.95,
    "max_samples": 250,
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, raw in file_values.items():
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _COERCE[_FIELD_TYPES[key]](raw))
        except (ValueError, KeyError) as exc:
            raise UsageError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    if getattr(args, "reported_hparams", False):
        for key, value in REPORTED_HPARAMS.items():
            setattr(cfg, key, value)
    # flags win over the file
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    if not 0 <= cfg.seed < 2**64:  # seeds numpy and a checkpoint's u64 field
        raise UsageError(f"seed must be in [0, 2**64), got {cfg.seed}")
    # the CLI-only keys, written as `not <valid>` so that NaN fails
    if not 0 < cfg.val_fraction < 1:
        raise UsageError(f"val_fraction must be in (0, 1), got {cfg.val_fraction}")
    if not cfg.synth_n >= 1:
        raise UsageError(f"synth_n must be at least 1, got {cfg.synth_n}")
    if not cfg.max_samples >= 0:
        raise UsageError(f"max_samples must be >= 0 (0: no cap), got {cfg.max_samples}")
    try:
        check_sampling(cfg.top_p, cfg.temperature)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config_for(TrainConfig, cfg)  # its checks, before any work
    return cfg


def _check_image_shape(shape: tuple[int, ...], geometry, what: str) -> None:
    """``geometry`` is the run config or a checkpoint's model config."""
    expected = (geometry.channels, geometry.image_size, geometry.image_size)
    if shape != expected:
        raise DataError(f"{what} shape {shape} does not match configured {expected}")


def _load_samples(path: str, geometry):
    """The dataset's samples. DataError when a record is invalid, there is
    no sample, or an image does not have the geometry's shape."""
    samples, errors = load_dataset(path)
    if errors:
        for err in errors:
            print(str(err), file=sys.stderr)
        raise DataError(f"{len(errors)} invalid record(s) in {path}")
    if not samples:
        raise DataError(f"no samples in {path}")
    for i, sample in enumerate(samples):
        _check_image_shape(sample.image.shape, geometry, f"{path}, sample {i + 1}: image")
    return samples


def _vocab_path(checkpoint: str | Path) -> Path:
    return Path(str(checkpoint) + ".vocab")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = build_run_config(args)
    out = Path(args.out)
    if out.exists() and not args.force:
        raise DataError(f"{out} exists; pass --force to overwrite")
    samples = synth_generate(cfg.synth_n, config_for(SynthConfig, cfg), seed=cfg.seed)
    save_dataset(samples, out)
    print(f"wrote {len(samples)} samples to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_run_config(args)
    log_path = args.log or str(Path(args.out).with_suffix(".csv"))
    # checked before any work: the log opens at step 0, the checkpoint and
    # vocabulary are written only after the whole run
    for what, path in (("--out", args.out), ("log", log_path), ("vocabulary", _vocab_path(args.out))):
        if Path(path).is_dir():
            raise UsageError(f"{what} path {path} is a directory")
        if not Path(path).parent.is_dir():
            raise UsageError(f"{what} path {path} is not in an existing directory")
    if cfg.mode == "lora":
        if not args.init_from:
            raise UsageError("--init-from <base checkpoint> is required for lora mode")
        # token ids must line up with the base embeddings, so the base
        # run's vocabulary is reused; unseen tokens map to <unk>
        model, vocab = _restore_model(args.init_from, None, lora_rank=cfg.lora_rank)
        model.enable_lora(seed=cfg.seed)
        # echo the model the run trains: the base's, with the run's rank
        for name in _FIELD_TYPES.keys() & {f.name for f in dataclasses.fields(ModelConfig)}:
            setattr(cfg, name, getattr(model.config, name))
        samples = _load_samples(args.dataset, model.config)
    else:
        samples = _load_samples(args.dataset, cfg)
        vocab = build_vocab([s.caption for s in samples] + [HAZARD_PROMPT])
        model = HazardModel(config_for(ModelConfig, cfg, vocab_size=len(vocab)), seed=cfg.seed)
    d_train, d_val = split(samples, cfg.val_fraction, seed=cfg.seed)

    max_len = model.config.max_caption_len
    overlong = [i for i, s in enumerate(samples) if len(tokenize(s.caption, vocab)) - 1 > max_len]
    if overlong:
        raise DataError(
            f"{len(overlong)} caption(s) exceed max_caption_len={max_len} "
            f"(first at sample {overlong[0]})"
        )

    train_cfg = config_for(TrainConfig, cfg, log_path=log_path)

    print(cfg.as_text())
    result = train(model, d_train, d_val, vocab, train_cfg)
    save_checkpoint(model, None, args.out, step=len(result.logs), epoch=cfg.epochs, seed=cfg.seed)
    vocab.save(_vocab_path(args.out))

    final = result.val_reports[-1]
    print(f"steps: {len(result.logs)}  final loss: {result.logs[-1].loss_smooth:.4f}")
    print(f"val bleu4={final.bleu4:.4f} rouge1={final.rouge1:.4f} mse={final.mse_pixels:.2f}")
    print(f"checkpoint: {args.out}\nlog: {log_path}")
    return EXIT_OK


def _restore_model(checkpoint: str, vocab_file: str | None, lora_rank: int | None = None):
    """The model a checkpoint's config describes, holding the file's
    tensors, and the vocabulary its token ids index. ``lora_rank`` asks for
    a base checkpoint, for a LoRA run to adapt at that rank."""
    vocab_path = Path(vocab_file) if vocab_file else _vocab_path(checkpoint)
    if not vocab_path.exists():
        raise DataError(f"vocabulary file {vocab_path} not found")
    vocab = Vocabulary.load(vocab_path)
    ckpt = load_checkpoint(checkpoint)
    config = ckpt.config
    if len(vocab) != config.vocab_size:
        raise DataError(
            f"vocabulary {vocab_path} has {len(vocab)} tokens, {checkpoint} was built for {config.vocab_size}"
        )
    if lora_rank is not None:
        if any(name.startswith("lora.") for name in ckpt.tensors):
            raise DataError(f"{checkpoint} holds adapters; --init-from needs a base checkpoint")
        try:
            config = dataclasses.replace(config, lora_rank=lora_rank)
        except ValueError as exc:
            raise UsageError(f"bad config: lora_rank = {lora_rank} over {checkpoint}: {exc}") from exc
    return restore_model(dataclasses.replace(ckpt, config=config)), vocab


def cmd_eval(args) -> int:
    cfg = build_run_config(args)
    model, vocab = _restore_model(args.checkpoint, args.vocab)
    samples = _load_samples(args.dataset, model.config)
    report = evaluate(model, samples, vocab, max_samples=cfg.max_samples)
    print(report.as_text(), end="")
    if args.out:
        Path(args.out).with_suffix(".txt").write_text(report.as_text(), encoding="utf-8")
        Path(args.out).with_suffix(".json").write_text(report.as_json(), encoding="utf-8")
        print(f"report: {Path(args.out).with_suffix('.txt')} / .json")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = build_run_config(args)
    top_p = 0.0 if args.greedy else cfg.top_p
    model, vocab = _restore_model(args.checkpoint, args.vocab)
    try:
        image = load_image(args.image)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _check_image_shape(image.shape, model.config, "image")
    predict = Predictor(model, vocab)
    point, ids = predict(Tensor(image), top_p=top_p, temperature=cfg.temperature, seed=cfg.seed)
    output = f"hazard=({point.x:g}, {point.y:g})\n{detokenize(ids, vocab)}\n"
    print(output, end="")
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    return EXIT_OK


def cmd_probe(args) -> int:
    # a ValueError here is a malformed argument; divergence is a DivergenceError
    try:
        t_list = [int(v) for v in args.t_list.split(",")]
        rows = convergence_probe(
            args.objective, dims=args.dims, t_list=t_list, seeds=range(args.seeds), lr0=args.lr0
        )
    except ValueError as exc:
        raise UsageError(f"probe: {exc}") from exc
    print(probe_table(rows))
    if args.out:
        lines = [f"{t},{v!r}" for t, v in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    slope = fitted_loglog_slope(rows)
    if slope is not None and not -3.0 < slope < 0.0:
        print(f"warning: unexpected trend slope {slope:.3f}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_config_flags(p: _Parser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the run seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="hazardvlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic JSONL dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n", dest="synth_n", type=int, help="number of samples")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a JSONL dataset")
    _add_config_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="CSV log path (default: checkpoint with .csv)")
    p.add_argument("--mode", choices=["pretrain", "lora"], help="training mode")
    p.add_argument("--init-from", help="base checkpoint to adapt (lora mode)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--base-lr", dest="base_lr", type=float)
    p.add_argument("--grad-accum-steps", dest="grad_accum_steps", type=int)
    p.add_argument("--reported-hparams", action="store_true", help="force the reported fine-tuning hyperparameters")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: <checkpoint>.vocab)")
    p.add_argument("--out", help="report path stem (.txt and .json written)")
    p.add_argument("--max-samples", dest="max_samples", type=int)
    p.add_argument("--reported-hparams", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="predict hazard point and caption for one image")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help=".npy image file")
    p.add_argument("--vocab", help="vocabulary file (default: <checkpoint>.vocab)")
    p.add_argument("--greedy", action="store_true", help="deterministic decoding (top_p = 0)")
    p.add_argument("--out", help="also write the prediction to this file")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("probe", help="empirical optimizer convergence trend")
    _add_config_flags(p)
    p.add_argument("--objective", choices=["quadratic", "logistic"], default="quadratic")
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--t-list", default="100,316,1000,3162,10000")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds to average")
    p.add_argument("--lr0", type=float, default=0.3)
    p.add_argument("--out", help="CSV output path for (T, value) records")
    p.set_defaults(fn=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, SamplingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as exc:
        # train reports this as divergence; in eval and predict it is the
        # checkpoint's weights that overflow
        print(f"data error: checkpoint weights overflow: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
