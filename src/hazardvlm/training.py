"""End-to-end fine-tuning loop: shuffled micro-batches, gradient
accumulation and clipping, AdamW with the warmup+cosine schedule, per-step
CSV logging, per-epoch validation, and binary checkpoints.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as tz
from .data import RESERVED, AnnotatedSample, Vocabulary, caption_targets, detokenize, normalize, tokenize
from .localization import grid_to_pixel, hard_argmax, pixel_to_grid, soft_argmax
from .metrics import MetricsReport, corpus_report
from .model import HazardModel, ModelConfig, adapter_shapes, holds_adapters, parameter_specs
from .objective import LossWeights, coord_loss, total_loss
from .optim import AdamWState, DivergenceError, FlatArrays, ScheduleConfig, adamw_step, clip_grad_norm, lr_at
from .tensor import Tape, Tensor

# The text prompt paired with every image. The annotation task never
# defines one, so the synthetic task fixes this instruction string.
HAZARD_PROMPT = "identify the hazard."
# its length in tokens, the same under every vocabulary (an unseen word is
# <unk>); a model's max_caption_len must hold it
PROMPT_TOKENS = len(tokenize(HAZARD_PROMPT, Vocabulary(list(RESERVED))))

# The step log's smoothed loss is an exponential moving average with this
# weight on the newest step; a loss above DIVERGENCE_FACTOR times the first
# micro-batch's raises DivergenceError.
EMA_ALPHA = 0.1
DIVERGENCE_FACTOR = 100.0


@dataclass
class TrainConfig:
    epochs: int = 3
    batch_size: int = 1
    grad_accum_steps: int = 8
    base_lr: float = 1e-4
    warmup_start_lr: float = 3e-5
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_max_norm: float = 1.0
    lambda_coord: float = 1.0
    lambda_text: float = 1.0
    soft_argmax_tau: float = 0.5
    seed: int = 0
    mode: str = "pretrain"  # "pretrain" | "lora"
    log_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ValueError("epochs, batch_size and grad_accum_steps must all be >= 1")
        if not 0 <= self.seed < 2**64:  # the checkpoint stores it as a u64
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in ("pretrain", "lora"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        # written as `not <valid>`, so NaN fails every check
        if not 0 < self.soft_argmax_tau < math.inf:
            raise ValueError(f"soft_argmax_tau must be positive and finite, got {self.soft_argmax_tau}")
        if not 0 <= self.warmup_frac <= 1:
            raise ValueError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        self.schedule(1)  # ScheduleConfig checks warmup_start_lr and base_lr
        if not self.clip_max_norm > 0:
            raise ValueError(f"clip_max_norm must be positive, got {self.clip_max_norm}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        self.loss_weights()  # LossWeights checks lambda_coord and lambda_text

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lambda_coord, self.lambda_text)

    def schedule(self, total_steps: int) -> ScheduleConfig:
        """The learning-rate schedule of a run of ``total_steps`` optimizer
        steps, the first ``warmup_frac`` of them (at most all but one)
        warming up."""
        warmup = min(int(round(self.warmup_frac * total_steps)), total_steps - 1)
        return ScheduleConfig(
            base_lr=self.base_lr, warmup_start_lr=self.warmup_start_lr, warmup_steps=warmup, total_steps=total_steps
        )


@dataclass
class StepLog:
    step: int
    loss: float
    loss_smooth: float
    coord_loss: float
    text_loss: float
    lr: float
    grad_norm: float

    def as_csv_row(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


LOG_HEADER = ",".join(f.name for f in fields(StepLog))


@dataclass
class TrainResult:
    logs: list[StepLog] = field(default_factory=list)
    val_reports: list[MetricsReport] = field(default_factory=list)


def accumulate_gradients(grads: FlatArrays, count: int) -> FlatArrays:
    """Mean of the ``count`` micro-batch gradients summed in ``grads``, which
    is then zeroed for the next group. For mean-reduced losses this equals
    the gradient of the concatenated batch."""
    if count < 1:
        raise ValueError(f"no micro-batch gradients to accumulate (count {count})")
    mean = grads.with_flat(grads.flat / count)
    grads.flat.fill(0)
    return mean


def sample_losses(
    model: HazardModel,
    sample: AnnotatedSample,
    prompt_ids: Sequence[int],
    vocab: Vocabulary,
    tau: float,
    *,
    prompt: Tensor | None = None,
):
    """Forward one sample: (coord loss in grid units, text loss). The
    prompt's projected latent is encoded from ``prompt_ids``, unless a
    caller that shares one over many samples passes it as ``prompt``."""
    feats, amap = model.encode_image(Tensor(sample.image))
    gx, gy = soft_argmax(amap, tau)
    truth = pixel_to_grid(sample.hazard, model.config.patch_size)
    closs = coord_loss((gx, gy), truth)

    if prompt is None:
        prompt = model.project(model.encode_text(prompt_ids), "text")
    fused = model.fuse(model.project(feats, "image"), prompt)
    targets = caption_targets(sample.caption, vocab)
    logits = model.decode_caption_teacher_forced(fused, targets)
    tloss = tz.cross_entropy(logits, targets)
    return closs, tloss


def _batch_breakdown(model, batch, prompt_ids, vocab, cfg: TrainConfig, prompt=None):
    coords, texts = [], []
    for sample in batch:
        c, t = sample_losses(model, sample, prompt_ids, vocab, cfg.soft_argmax_tau, prompt=prompt)
        coords.append(c)
        texts.append(t)
    coord = coords[0]
    text = texts[0]
    for c in coords[1:]:
        coord = tz.add(coord, c)
    for t in texts[1:]:
        text = tz.add(text, t)
    coord = tz.scale(coord, 1.0 / len(batch))
    text = tz.scale(text, 1.0 / len(batch))
    return total_loss(coord, text, cfg.loss_weights())


def _weight_only_work(model: HazardModel, prompt_ids: Sequence[int]) -> tuple[HazardModel, Tensor]:
    """What depends on the weights only, not on a scene: the view with each
    adapter merged (``HazardModel.merged``) and the prompt's projected
    latent."""
    view = model.merged()
    return view, view.project(view.encode_text(prompt_ids), "text")


def _shared_prefix(model: HazardModel, prompt_ids: Sequence[int]):
    """What every micro-batch of an accumulation group shares: the tape
    nodes of ``_weight_only_work``, its view and its latent. A micro-batch's
    tape starts with these nodes, so its backward carries that
    micro-batch's gradient through them to the weights."""
    with Tape() as tape:
        view, prompt = _weight_only_work(model, prompt_ids)
    return tape.nodes, view, prompt


def train(
    model: HazardModel,
    d_train: Sequence[AnnotatedSample],
    d_val: Sequence[AnnotatedSample],
    vocab: Vocabulary,
    cfg: TrainConfig,
) -> TrainResult:
    """Run the fine-tuning loop, updating ``model`` in place, and return its
    step logs and per-epoch validation reports. The caller saves the model.

    One optimizer step per ``grad_accum_steps`` micro-batches (partial
    groups at epoch end still step); the learning rate at optimizer step
    ``i`` is ``lr_at(schedule, i)``. Validation runs after every epoch.
    Backward sums each micro-batch into the trainable tensors' ``grad``,
    views into one flat buffer for the run; on return every ``grad`` is
    None. A non-finite value inside the loop, or a loss past the
    divergence guard, raises ``optim.DivergenceError``.

    The weight-only work, merging the adapters and encoding the prompt,
    runs once per accumulation group (``_shared_prefix``); each micro-batch
    runs the per-scene work on top of it. At batch size 1 the gradients
    have the bits of a forward that redoes it per sample; with more scenes
    per micro-batch, the shared prompt latent sums theirs first.

    Each micro-batch's forward runs without the per-op NaN/Inf guard and
    checks its loss instead; when that is not finite, or a layer norm's
    variance overflows, the shared work and the forward run again with the
    guard on (``tz.rerun_guarded``), so the error names the op. A
    non-finite gradient fails ``clip_grad_norm``'s check.
    """
    if not d_train:
        raise ValueError("empty training set")
    if cfg.mode == "lora" and not model.lora_enabled:
        raise ValueError("lora training mode requires model.enable_lora() first")

    n = len(d_train)
    micro_per_epoch = math.ceil(n / cfg.batch_size)
    steps_per_epoch = math.ceil(micro_per_epoch / cfg.grad_accum_steps)
    sched = cfg.schedule(cfg.epochs * steps_per_epoch)
    state = AdamWState(
        beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps, weight_decay=cfg.weight_decay
    )
    trainable = model.trainable_tensors()
    dtype = np.result_type(*(t.dtype for t in trainable.values()))
    grads = FlatArrays.zeros({name: t.shape for name, t in trainable.items()}, dtype)
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)

    result = TrainResult()
    step = 0
    prefix = None  # recorded at the first micro-batch of each accumulation group
    ema: float | None = None
    initial_raw: float | None = None

    # the log is streamed, so a run that diverges keeps the rows before it
    opened = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else contextlib.nullcontext()
    try:
        for name, t in trainable.items():
            t.grad = grads[name]
        with opened as log:
            if log is not None:
                log.write(LOG_HEADER + "\n")
            for epoch in range(cfg.epochs):
                order = np.random.default_rng((cfg.seed, epoch)).permutation(n)
                group_raw: list[tuple[float, float, float]] = []
                for start in range(0, n, cfg.batch_size):
                    batch = [d_train[i] for i in order[start : start + cfg.batch_size]]

                    def forward():
                        nonlocal prefix
                        # the prefix is kept once the loss passes, so the
                        # guarded rerun of a failed micro-batch records it again
                        shared, prefix = prefix or _shared_prefix(model, prompt_ids), None
                        nodes, view, prompt = shared
                        with Tape(nodes) as tape:
                            breakdown = _batch_breakdown(view, batch, prompt_ids, vocab, cfg, prompt)
                        if not math.isfinite(breakdown.total.item()):
                            raise DivergenceError(f"non-finite loss at epoch {epoch}, step {step}")
                        prefix = shared
                        return tape, breakdown

                    tape, breakdown = tz.rerun_guarded(forward, DivergenceError)
                    coord_v, text_v, raw = breakdown.values()
                    if initial_raw is None:
                        initial_raw = raw
                    elif raw > DIVERGENCE_FACTOR * max(initial_raw, 1e-12):
                        raise DivergenceError(
                            f"loss {raw:.4g} exceeds {DIVERGENCE_FACTOR}x initial {initial_raw:.4g}"
                        )
                    tape.backward(breakdown.total)
                    del tape  # its activations, freed before the next forward
                    group_raw.append((coord_v, text_v, raw))

                    last_micro = start + cfg.batch_size >= n
                    if len(group_raw) == cfg.grad_accum_steps or last_micro:
                        mean = accumulate_gradients(grads, len(group_raw))
                        clipped, pre_norm = clip_grad_norm(mean, cfg.clip_max_norm)
                        lr = lr_at(sched, step)
                        adamw_step(trainable, clipped, state, lr)
                        raw_mean = sum(r for _, _, r in group_raw) / len(group_raw)
                        ema = raw_mean if ema is None else EMA_ALPHA * raw_mean + (1 - EMA_ALPHA) * ema
                        result.logs.append(
                            StepLog(
                                step=step,
                                loss=raw_mean,
                                loss_smooth=ema,
                                coord_loss=sum(c for c, _, _ in group_raw) / len(group_raw),
                                text_loss=sum(t for _, t, _ in group_raw) / len(group_raw),
                                lr=lr,
                                grad_norm=pre_norm,
                            )
                        )
                        if log is not None:
                            log.write(result.logs[-1].as_csv_row() + "\n")
                            log.flush()
                        step += 1
                        group_raw = []
                        prefix = None  # the weights changed
                result.val_reports.append(evaluate(model, d_val, vocab))
    except tz.NonFiniteError as exc:
        raise DivergenceError(f"{exc} at optimizer step {step}") from exc
    finally:
        for t in trainable.values():
            t.zero_grad()
    return result


def infer(
    model: HazardModel, vocab: Vocabulary, images: Tensor, top_p: float = 0.0, temperature: float = 1.0, seed: int = 0
):
    """Hazard point (hard argmax of the attention map) and caption token ids
    of a C x S x S image, from the model prompted with ``HAZARD_PROMPT``;
    of a B x C x S x S stack, run as one batch, a list of them, entry i
    what ``images[i]`` alone gives. top_p 0 decodes greedily.

    The weight-only work (``_weight_only_work``: merged adapters and the
    prompt's latent) runs once per call. Everything runs without the
    per-op NaN/Inf guard and checks each stage's output instead: the
    encoder features and map, the fused latents and each decode step's
    logits. When one is not finite, the same inference runs again with the
    guard on (``tz.rerun_guarded``), so the error names the op.
    """
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    cfg = model.config

    def stages():
        view, latent = _weight_only_work(model, prompt_ids)
        feats, amap = view.encode_image(images)
        tz.check_finite(feats.data, "encoder features")
        tz.check_finite(amap.grid.data, "attention map")
        # every scene shares the prompt; inference only, so no gradient to it
        lead = images.shape[:-3]
        prompt = Tensor(np.broadcast_to(latent.data, (*lead, *latent.shape)))
        fused = view.fuse(view.project(feats, "image"), prompt)
        tz.check_finite(fused.data, "fused latents")
        ids = view.generate(fused, max_len=cfg.max_caption_len, top_p=top_p, temperature=temperature, seed=seed)
        cells = hard_argmax(amap)
        if lead:
            return [(grid_to_pixel(c, cfg.patch_size, cfg.image_size), i) for c, i in zip(cells, ids)]
        return grid_to_pixel(cells, cfg.patch_size, cfg.image_size), ids

    return tz.rerun_guarded(stages)


def evaluate(model: HazardModel, samples: Sequence[AnnotatedSample], vocab: Vocabulary) -> MetricsReport:
    """Greedy decoding plus hard-argmax localization over a sample set,
    run as one batch (``infer`` on the stacked images)."""
    if not samples:
        raise ValueError("empty evaluation set")
    batch = list(samples)
    results = infer(model, vocab, Tensor(np.stack([s.image for s in batch])))
    refs = [normalize(s.caption) for s in batch]
    cands = [detokenize(ids, vocab).split() for _, ids in results]
    truths = [s.hazard for s in batch]
    preds = [point for point, _ in results]
    return corpus_report(refs, truths, cands, preds)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
# Layout (all integers little-endian):
#   magic "INSG" | version u32 | crc32 u32 | length u64 | payload
# where crc32 (zlib's) and length are those of the payload, which is:
#   config | tensor section | metadata
# config is the model's ModelConfig: len u32 | UTF-8 JSON, keys sorted;
# the tensor section is: count u32, then per tensor, each name once:
#   name_len u32 | name utf-8 | rank u32 | dims u64 each | float32 payload
# and metadata is three u64 scalars: step, epoch, seed. Version 2 files
# also held an optimizer-moment section; versions 1 and 2 are not read.

MAGIC = b"INSG"
VERSION = 3


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    step: int
    epoch: int
    seed: int


def save_checkpoint(
    model: HazardModel,
    _unused: object,
    path: str | Path,
    step: int,
    epoch: int,
    seed: int,
) -> None:
    """Atomic binary dump of the model's config and tensors.

    The second parameter is ignored: it once took the optimizer state,
    and the benchmark's set-up (``perfbench/bench_workloads.py``) still
    calls ``save_checkpoint(model, None, path, ...)``."""
    config = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    tensors = model.params.tensors
    chunks: list[bytes] = [struct.pack("<I", len(config)), config, struct.pack("<I", len(tensors))]
    for name, t in tensors.items():
        raw = name.encode("utf-8")
        arr32 = np.ascontiguousarray(t.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr32.ndim))
        chunks.append(struct.pack(f"<{arr32.ndim}Q", *arr32.shape))
        chunks.append(arr32.tobytes())
    chunks.append(struct.pack("<3Q", step, epoch, seed))
    payload = b"".join(chunks)

    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IIQ", VERSION, zlib.crc32(payload), len(payload)))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """A checkpoint's fields in file order, each a view of its bytes."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> memoryview:
        if self.pos + count > len(self.blob):
            raise CheckpointError(f"checkpoint truncated at byte {self.pos} (wanted {count} more)")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def config(self) -> ModelConfig:
        values = json.loads(str(self.take(self.u32()), "utf-8"))
        types = {f.name: f.type for f in fields(ModelConfig)}
        if not isinstance(values, dict) or {k: type(v).__name__ for k, v in values.items()} != types:
            raise ValueError("stored model config does not have ModelConfig's fields and types")
        return ModelConfig(**values)

    def tensors(self) -> dict[str, np.ndarray]:
        entries: dict[str, np.ndarray] = {}
        for _ in range(self.u32()):
            name = str(self.take(self.u32()), "utf-8")
            if name in entries:
                raise ValueError(f"tensor '{name}' stored twice")
            rank = self.u32()
            dims = struct.unpack(f"<{rank}Q", self.take(8 * rank))
            data = np.frombuffer(self.take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
            entries[name] = data.copy()
        return entries


def load_checkpoint(path: str | Path) -> Checkpoint:
    """A checkpoint written by ``save_checkpoint``. Any file that is not
    one, unreadable, corrupt or of another version, is a CheckpointError;
    the checksum is verified before the payload is parsed."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(memoryview(blob))
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    crc, length = struct.unpack("<IQ", r.take(12))
    payload = r.take(length)
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after checkpoint payload")
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: checksum mismatch, the checkpoint is corrupt")
    r = _Reader(payload)
    try:
        config = r.config()
        tensors = r.tensors()
        step, epoch, seed = struct.unpack("<3Q", r.take(24))
    except (ValueError, OverflowError, RecursionError, struct.error) as exc:
        # a corrupted config, name, rank or dimension (UnicodeDecodeError is a ValueError)
        raise CheckpointError(f"{path}: malformed checkpoint payload ({exc})") from exc
    if r.pos != len(payload):
        raise CheckpointError(f"{len(payload) - r.pos} trailing bytes in checkpoint payload")
    return Checkpoint(config=config, tensors=tensors, step=step, epoch=epoch, seed=seed)


def _check_names_and_shapes(tensors: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    """CheckpointError unless each checkpoint tensor's name is one of
    ``expected``'s, with the shape it maps to."""
    for name, arr in tensors.items():
        if name not in expected:
            raise CheckpointError(f"checkpoint tensor '{name}' not present in model")
        if arr.shape != expected[name]:
            raise CheckpointError(f"shape mismatch for '{name}': file {arr.shape}, model {expected[name]}")


def apply_checkpoint(model: HazardModel, ckpt: Checkpoint) -> None:
    """Copy checkpoint tensors into a model by name.

    Every name in the file must exist in the model with a matching shape,
    checked before any tensor is assigned. Model tensors absent from the
    file keep their initialization, so a pretrain checkpoint loads into a
    model with fresh adapters. The program builds models from a file with
    ``restore_model``; the benchmark's set-up loads checkpoints with this.
    """
    _check_names_and_shapes(ckpt.tensors, {name: t.shape for name, t in model.params.tensors.items()})
    for name, arr in ckpt.tensors.items():
        model.params.tensors[name].data = arr.astype(np.float32)


def restore_model(ckpt: Checkpoint) -> HazardModel:
    """The model ``ckpt.config`` describes, holding the checkpoint's arrays
    themselves, with no random init. The file must hold every base
    parameter and either every adapter factor or none, each with the shape
    the config declares; CheckpointError otherwise, raised before any
    parameter is built, so a stored config too large to allocate fails
    here."""
    expected = {name: shape for name, (shape, _) in parameter_specs(ckpt.config).items()}
    if holds_adapters(ckpt.tensors):
        expected |= adapter_shapes(ckpt.config)
    _check_names_and_shapes(ckpt.tensors, expected)
    missing = [name for name in expected if name not in ckpt.tensors]
    if missing:
        raise CheckpointError(f"checkpoint lacks {len(missing)} tensor(s) of its model, first '{missing[0]}'")
    return HazardModel.from_arrays(ckpt.config, ckpt.tensors)
