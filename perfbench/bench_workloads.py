"""The four workloads: seeded inputs, set-up, measured rounds, and the
checks on the program's outputs.

Every input comes from one ``numpy.random.default_rng(seed)``: scene
images, hazard points, captions and the model initialization seed. The
program receives the scenes as a JSONL file it parses itself, and the
checkpoints and ``.npy`` images that set-up builds with its public API.
A round is a fixed list of calls into the program, so every run attempts
whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_stats as bs

from hazardvlm import cli, data, objective, training
from hazardvlm import tensor as tz
from hazardvlm.localization import PixelPoint
from hazardvlm.model import END_ID, HazardModel, ModelConfig

IMAGE_SIZE = 32
PATCH = 8
NOISE_HIGH, BLOB_PEAK, BLOB_SIGMA = 0.3, 0.85, 1.0
# The base model learns the first phrasing. The fine-tune scenes use the
# second, which the frozen base has never produced, so the adapters have
# something to learn on every seed: over the base phrasing alone the loss
# of some seeds' fine-tunes hardly moved in a round.
CAPTION = "the area around ({x}, {y}) should be paid more attention to"
TUNE_CAPTION = "watch the point ({x}, {y}) for a hazard"

# Training recipes. Several epochs over the same scenes, so the first and
# last epoch's mean loss compare the same samples. The base recipe is the
# desk-scale one a fresh model needs on 32x32 scenes; with two epochs
# instead of three, some seeds' base models had not learnt to localize. The
# LoRA recipe keeps the reported grouping of batch 1 and accumulation 8 with
# a rate that moves the adapters in a few steps.
PRETRAIN = dict(epochs=3, batch_size=1, grad_accum_steps=1, base_lr=3e-3, warmup_start_lr=3e-4)
LORA = dict(
    epochs=2, batch_size=1, grad_accum_steps=8, base_lr=3e-2, warmup_start_lr=1e-3, mode="lora"
)

# Scene counts.
N_VAL = 2  # validation scenes train() evaluates after each epoch
N_PRETRAIN = 32  # per pretrain round, and behind every base checkpoint: 96 steps
N_FINETUNE = 64  # per fine-tune round: 16 optimizer steps
N_LORA_SETUP = 16  # LoRA fine-tune behind the eval checkpoint: 4 steps
N_HELDOUT = 16  # scenes per evaluate() call
N_PROBE = 64  # held-out scenes the localization check scores; 16 left it to chance
N_IMAGES = 8  # distinct .npy images per predict round; the first is repeated

# Check thresholds and the worst value seen on seeds 1-10 (see README).
LOSS_DROP = {"pretrain": 0.9, "finetune_lora": 0.92}  # last epoch's mean loss < share x first's
GRAD_REL_TOL = 1e-4
LOGIT_TOL = 1e-4
MIN_HIT_GAIN = 0.2

BASE_STEPS = bs.expected_steps(PRETRAIN["epochs"], N_PRETRAIN, 1, 1)


@dataclass
class Round:
    """One round's work and outputs. ``sample_s`` holds the wall time of
    each timed sample; ``laps`` (seconds per timed call) is filled in by
    the harness; ``fails`` holds this round's check failures."""

    samples: int
    tokens: int
    output: object = None
    failed: int = 0
    fails: list[str] = field(default_factory=list)
    sample_s: list[float] = field(default_factory=list)
    laps: list[float] = field(default_factory=list)


class Stamped(list):
    """A list of samples that notes the time whenever the program takes one
    out, by index or by iteration. A slice shares the parent's stamps.

    ``train`` fetches each micro-batch by index and ``evaluate`` iterates a
    slice, so consecutive stamps bound the work on one sample; the last
    sample of a call has no following stamp and is not timed.
    """

    def __init__(self, items, stamps: list[float] | None = None):
        super().__init__(items)
        self.stamps = [] if stamps is None else stamps

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Stamped(super().__getitem__(index), self.stamps)
        self.stamps.append(time.perf_counter())
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.stamps.append(time.perf_counter())
            yield item

    def intervals(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class Stopwatch:
    """Times one call into the program; tracing is on only inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.laps: list[float] = []

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.laps.append(time.perf_counter() - self._t0)
        if self.tracer is not None:
            self.tracer.active = False
        return False


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def patch_centre(coord: int) -> int:
    return (coord // PATCH) * PATCH + PATCH // 2


def make_scenes(rng: np.random.Generator, n: int, caption: str = CAPTION) -> list[dict]:
    """Uniform noise plus one Gaussian blob whose centre is the hazard; the
    caption names the centre of the blob's patch."""
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    records = []
    for _ in range(n):
        cx, cy = (int(v) for v in rng.integers(0, IMAGE_SIZE, size=2))
        noise = rng.uniform(0.0, NOISE_HIGH, size=(1, IMAGE_SIZE, IMAGE_SIZE))
        blob = BLOB_PEAK * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * BLOB_SIGMA**2))
        image = np.clip(noise + blob[None], 0.0, 1.0)
        records.append(
            {
                "image": np.round(image, 6).tolist(),
                "hazard": [cx, cy],
                "caption": caption.format(x=patch_centre(cx), y=patch_centre(cy)),
            }
        )
    return records


def load_scenes(records: list[dict], path: Path) -> list[data.AnnotatedSample]:
    """Write scenes as JSONL and parse them with the program's loader."""
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    samples, errors = data.load_dataset(path)
    if errors or len(samples) != len(records):
        raise RuntimeError(f"{path}: loader rejected {len(errors)} generated scene(s): {errors[:3]}")
    return samples


def fixed_vocab() -> data.Vocabulary:
    """Every caption the scenes can have plus the prompt, so the vocabulary
    and the model shape do not depend on the seed."""
    centres = range(PATCH // 2, IMAGE_SIZE, PATCH)
    captions = [c.format(x=x, y=y) for c in (CAPTION, TUNE_CAPTION) for x in centres for y in centres]
    return data.build_vocab(captions + [training.HAZARD_PROMPT])


def model_config(vocab: data.Vocabulary) -> ModelConfig:
    # the CLI's defaults, so `predict` rebuilds the same shapes
    return ModelConfig(vocab_size=len(vocab))


def train_base(rng, work: Path, vocab, init_seed: int) -> HazardModel:
    """A base model trained as one pretrain round trains it."""
    scenes = load_scenes(make_scenes(rng, N_PRETRAIN + N_VAL), work / "base.jsonl")
    model = HazardModel(model_config(vocab), seed=init_seed)
    cfg = training.TrainConfig(seed=init_seed, **PRETRAIN)
    training.train(model, scenes[:N_PRETRAIN], scenes[N_PRETRAIN:], vocab, cfg)
    return model


def lora_model(vocab, init_seed: int, base: training.Checkpoint | None = None) -> HazardModel:
    """A model with fresh adapters over ``base`` (or over a fresh init)."""
    model = HazardModel(model_config(vocab), seed=init_seed)
    if base is not None:
        training.apply_checkpoint(model, base)
    model.enable_lora(seed=init_seed)
    return model


def argmax_point(model: HazardModel, image: np.ndarray) -> tuple[float, float]:
    """Hazard pixel from a numpy argmax of the attention map and the
    patch-centre formula, clamped into the image."""
    _, amap = model.encode_image(tz.Tensor(image))
    grid = amap.grid.data
    gy, gx = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return tuple(min(max(g * PATCH + PATCH / 2.0, 0.0), IMAGE_SIZE - 1.0) for g in (gx, gy))


def greedy_replica(model: HazardModel, image: np.ndarray, prompt_ids) -> tuple[list[int], int, list[str]]:
    """Greedy caption ids for one image along the documented inference
    path, the decoder steps it took, and failures of the teacher-forcing
    check: each emitted token (and the end token, if one stopped decoding)
    must be the argmax of the teacher-forced logits for that caption."""
    feats, _ = model.encode_image(tz.Tensor(image))
    text = model.encode_text(prompt_ids)
    fused = model.fuse(model.project(feats, "image"), model.project(text, "text"))
    max_len = model.config.max_caption_len
    ids = model.generate(fused, max_len=max_len, top_p=0.0, temperature=1.0, seed=0)
    targets = ids + [END_ID] if len(ids) < max_len else list(ids)
    logits = model.decode_caption_teacher_forced(fused, targets).data.astype(np.float64)
    failures = []
    for pos, token in enumerate(targets):
        gap = logits[pos].max() - logits[pos, token]
        if gap > LOGIT_TOL * max(1.0, abs(logits[pos].max())):
            failures.append(f"token {pos} ({token}) is {gap:.3g} below the argmax logit")
    return ids, len(targets), failures


def hit_rate(points, samples) -> float:
    hits = sum(math.hypot(px - s.hazard.x, py - s.hazard.y) <= PATCH for (px, py), s in zip(points, samples))
    return hits / len(samples)


def check_train_logs(kind: str, logs, n: int, cfg: training.TrainConfig) -> tuple[list[str], float]:
    """Failures of the step-count, closed-form schedule, finiteness and
    loss-decrease checks, and the last-to-first epoch loss ratio."""
    fails = []
    steps = bs.expected_steps(cfg.epochs, n, cfg.batch_size, cfg.grad_accum_steps)
    if len(logs) != steps:
        return [f"{len(logs)} logged steps, expected {steps}"], math.nan
    lrs = bs.schedule_lrs(steps, cfg.warmup_frac, cfg.base_lr, cfg.warmup_start_lr)
    for entry, lr in zip(logs, lrs):
        if not math.isclose(entry.lr, lr, rel_tol=1e-12, abs_tol=1e-15):
            fails.append(f"step {entry.step}: lr {entry.lr!r}, closed form {lr!r}")
        values = (entry.loss, entry.loss_smooth, entry.coord_loss, entry.text_loss, entry.lr, entry.grad_norm)
        if not all(math.isfinite(v) for v in values):
            fails.append(f"step {entry.step}: non-finite log value {values}")
    k = bs.expected_steps(1, n, cfg.batch_size, cfg.grad_accum_steps)
    first = sum(e.loss for e in logs[:k]) / k
    last = sum(e.loss for e in logs[-k:]) / k
    if not last < LOSS_DROP[kind] * first:
        fails.append(f"last epoch's mean loss {last:.4f} not below {LOSS_DROP[kind]} x the first's {first:.4f}")
    return fails, last / first


def tape_probe(model: HazardModel, samples, vocab) -> Counter:
    """Op counts of the tape recorded around training.sample_losses."""
    prompt_ids = data.tokenize(training.HAZARD_PROMPT, vocab)
    counts: Counter = Counter()
    for s in samples:
        with tz.Tape() as tape:
            training.sample_losses(model, s, prompt_ids, vocab, training.TrainConfig().soft_argmax_tau)
        counts.update(node.op for node in tape.nodes)
    return counts


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Pretrain:
    """A fresh base model trained on the round's scenes with the desk recipe."""

    name = "pretrain"

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.init_seed = int(rng.integers(2**31))
        samples = load_scenes(make_scenes(rng, N_PRETRAIN + N_VAL), work / "base.jsonl")
        self.train, self.val = samples[:N_PRETRAIN], samples[N_PRETRAIN:]
        self.vocab = fixed_vocab()
        self.cfg = training.TrainConfig(seed=self.init_seed, **PRETRAIN)
        # a round passes over the scenes once per epoch
        self.samples = self.cfg.epochs * len(self.train)
        self.tokens = self.cfg.epochs * sum(len(data.tokenize(s.caption, self.vocab)) - 1 for s in self.train)

    def fresh_model(self) -> HazardModel:
        return HazardModel(model_config(self.vocab), seed=self.init_seed)

    def run_round(self, clock: Stopwatch) -> Round:
        model = self.fresh_model()
        stamped = Stamped(self.train)
        with clock:
            result = training.train(model, stamped, self.val, self.vocab, self.cfg)
        fails, self.loss_ratio = check_train_logs(self.name, result.logs, len(self.train), self.cfg)
        return Round(
            samples=self.samples, tokens=self.tokens, output=result.logs, fails=fails,
            sample_s=stamped.intervals(),
        )

    def check(self, rounds: list[Round]) -> list[str]:
        return _same_output(rounds, "training logs") + self._gradient_check()

    def _gradient_check(self) -> list[str]:
        """Tape directional derivative against a central difference on a
        float64 copy of the freshly initialized model."""
        model = self.fresh_model()
        for t in model.params.tensors.values():
            t.data = t.data.astype(np.float64)
        params = model.trainable_tensors()
        prompt_ids = data.tokenize(training.HAZARD_PROMPT, self.vocab)
        sample = self.train[0]

        def loss():
            c, t = training.sample_losses(model, sample, prompt_ids, self.vocab, self.cfg.soft_argmax_tau)
            return objective.total_loss(c, t, self.cfg.loss_weights()).total

        with tz.Tape() as tape:
            root = loss()
        tape.backward(root)
        rng = np.random.default_rng(self.init_seed)
        direction = {n: rng.standard_normal(p.shape) for n, p in params.items()}
        norm = math.sqrt(sum(float((u * u).sum()) for u in direction.values()))
        analytic = sum(float((p.grad * direction[n]).sum()) for n, p in params.items()) / norm
        base = {n: p.data.copy() for n, p in params.items()}
        eps = 1e-4
        sides = []
        for sign in (1.0, -1.0):
            for n, p in params.items():
                p.data = base[n] + sign * eps * direction[n] / norm
            sides.append(loss().item())
        numeric = (sides[0] - sides[1]) / (2 * eps)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        self.grad_rel_err = rel
        if rel > GRAD_REL_TOL:
            return [f"directional derivative {analytic!r} vs central difference {numeric!r} (rel {rel:.2e})"]
        return []

    def tape_nodes(self) -> tuple[Counter, int]:
        probe = self.train[:4]
        return tape_probe(self.fresh_model(), probe, self.vocab), len(probe)


class FinetuneLora:
    """Adapters fine-tuned over a frozen base checkpoint built at set-up."""

    name = "finetune_lora"

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.init_seed = int(rng.integers(2**31))
        self.vocab = fixed_vocab()
        model = train_base(rng, work, self.vocab, self.init_seed)
        path = work / "base.ckpt"
        training.save_checkpoint(
            model, None, path, step=BASE_STEPS, epoch=PRETRAIN["epochs"], seed=self.init_seed
        )
        self.ckpt = training.load_checkpoint(path)
        records = make_scenes(rng, N_FINETUNE + N_VAL, TUNE_CAPTION)
        samples = load_scenes(records, work / "finetune.jsonl")
        self.train, self.val = samples[:N_FINETUNE], samples[N_FINETUNE:]
        self.cfg = training.TrainConfig(seed=self.init_seed, **LORA)
        # a round passes over the scenes once per epoch
        self.samples = self.cfg.epochs * len(self.train)
        self.tokens = self.cfg.epochs * sum(len(data.tokenize(s.caption, self.vocab)) - 1 for s in self.train)

    def fresh_model(self) -> HazardModel:
        return lora_model(self.vocab, self.init_seed, self.ckpt)

    def run_round(self, clock: Stopwatch) -> Round:
        model = self.fresh_model()
        frozen = {n: t.data.copy() for n, t in model.frozen_tensors().items()}
        stamped = Stamped(self.train)
        with clock:
            result = training.train(model, stamped, self.val, self.vocab, self.cfg)
        fails, self.loss_ratio = check_train_logs(self.name, result.logs, len(self.train), self.cfg)
        changed = [n for n, t in model.frozen_tensors().items() if t.data.tobytes() != frozen[n].tobytes()]
        if changed:
            fails.append(f"{len(changed)} frozen tensor(s) changed, e.g. {changed[:3]}")
        c = model.config
        expected = bs.lora_trainable_count(
            c.embed_dim, c.latent_dim, c.ffn_mult, c.encoder_layers, c.decoder_layers, c.lora_rank
        )
        trainable = sum(t.size for t in model.trainable_tensors().values())
        if trainable != expected:
            fails.append(f"{trainable} trainable parameters, r*(d_in+d_out) oracle gives {expected}")
        return Round(
            samples=self.samples, tokens=self.tokens, output=result.logs, fails=fails,
            sample_s=stamped.intervals(),
        )

    def check(self, rounds: list[Round]) -> list[str]:
        return _same_output(rounds, "training logs")

    def tape_nodes(self) -> tuple[Counter, int]:
        probe = self.train[:4]
        return tape_probe(self.fresh_model(), probe, self.vocab), len(probe)


class EvalGreedy:
    """training.evaluate over held-out scenes with a LoRA checkpoint."""

    name = "eval_greedy"

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.init_seed = int(rng.integers(2**31))
        self.vocab = fixed_vocab()
        model = train_base(rng, work, self.vocab, self.init_seed)
        # adapters tuned on the base phrasing, so every seed's greedy
        # captions have the template's length and rounds cost the same
        tune = load_scenes(make_scenes(rng, N_LORA_SETUP + N_VAL), work / "lora.jsonl")
        model.enable_lora(seed=self.init_seed)
        cfg = training.TrainConfig(seed=self.init_seed, **LORA)
        training.train(model, tune[:N_LORA_SETUP], tune[N_LORA_SETUP:], self.vocab, cfg)
        path = work / "lora.ckpt"
        steps = bs.expected_steps(LORA["epochs"], N_LORA_SETUP, LORA["batch_size"], LORA["grad_accum_steps"])
        training.save_checkpoint(model, None, path, step=steps, epoch=LORA["epochs"], seed=self.init_seed)
        self.model = lora_model(self.vocab, self.init_seed)
        training.apply_checkpoint(self.model, training.load_checkpoint(path))
        self.heldout = load_scenes(make_scenes(rng, N_HELDOUT), work / "heldout.jsonl")
        self.probe = load_scenes(make_scenes(rng, N_PROBE), work / "probe.jsonl")
        self.tokens = None  # decoder steps per round, counted by the replica in check()

    def run_round(self, clock: Stopwatch) -> Round:
        stamped = Stamped(self.heldout)
        with clock:
            report = training.evaluate(self.model, stamped, self.vocab)
        return Round(samples=len(self.heldout), tokens=0, output=report, sample_s=stamped.intervals())

    def check(self, rounds: list[Round]) -> list[str]:
        fails = _same_output(rounds, "evaluate() reports")
        report = rounds[0].output
        prompt_ids = data.tokenize(training.HAZARD_PROMPT, self.vocab)
        points, cands, steps = [], [], 0
        for s in self.heldout:
            points.append(argmax_point(self.model, s.image))
            ids, n_steps, tf_fails = greedy_replica(self.model, s.image, prompt_ids)
            fails += tf_fails
            cands.append(data.detokenize(ids, self.vocab).split())
            steps += n_steps
        self.tokens = steps
        mse = sum((px - s.hazard.x) ** 2 + (py - s.hazard.y) ** 2 for (px, py), s in zip(points, self.heldout))
        mse /= len(self.heldout)
        if not math.isclose(report.mse_pixels, mse, rel_tol=1e-12, abs_tol=1e-12):
            fails.append(f"report mse_pixels {report.mse_pixels!r}, argmax recomputation {mse!r}")
        # the replica's captions and points score exactly as evaluate()'s,
        # so the decoder steps it counts are the ones evaluate() took
        replica = training.corpus_report(
            [data.normalize(s.caption) for s in self.heldout],
            [s.hazard for s in self.heldout],
            cands,
            [PixelPoint(px, py) for px, py in points],
        )
        if replica != report:
            fails.append(f"greedy replica scores {replica}, evaluate() reported {report}")
        untrained = lora_model(self.vocab, self.init_seed)
        base_hits = hit_rate([argmax_point(untrained, s.image) for s in self.probe], self.probe)
        hits = hit_rate([argmax_point(self.model, s.image) for s in self.probe], self.probe)
        self.hits = (hits, base_hits)
        if hits < base_hits + MIN_HIT_GAIN:
            fails.append(f"within-one-patch hit rate {hits:.2f}, untrained {base_hits:.2f}")
        for r in rounds:
            r.tokens = steps
        return fails


class PredictCli:
    """`hazardvlm predict --greedy` in process, once per .npy image."""

    name = "predict_cli"

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.init_seed = int(rng.integers(2**31))
        self.vocab = fixed_vocab()
        self.model = train_base(rng, work, self.vocab, self.init_seed)
        self.ckpt = work / "base.ckpt"
        training.save_checkpoint(
            self.model, None, self.ckpt, step=BASE_STEPS, epoch=PRETRAIN["epochs"], seed=self.init_seed
        )
        self.vocab.save(str(self.ckpt) + ".vocab")
        self.images = []
        for i, record in enumerate(make_scenes(rng, N_IMAGES)):
            path = work / f"image{i}.npy"
            np.save(path, np.asarray(record["image"], dtype=np.float32))
            self.images.append(path)
        self.calls = self.images + self.images[:1]
        self.tokens = None

    def run_round(self, clock: Stopwatch) -> Round:
        outputs = []
        for path in self.calls:
            out, err = io.StringIO(), io.StringIO()
            argv = ["predict", "--checkpoint", str(self.ckpt), "--image", str(path), "--greedy"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock:
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        failed = sum(code != 0 for code, _, _ in outputs)
        return Round(
            samples=len(self.calls), tokens=0, output=outputs, failed=failed,
            sample_s=clock.laps,
        )

    def check(self, rounds: list[Round]) -> list[str]:
        fails = []
        prompt_ids = data.tokenize(training.HAZARD_PROMPT, self.vocab)
        expected, steps = [], 0
        for path in self.calls:
            image = np.load(path)
            ids, n_steps, tf_fails = greedy_replica(self.model, image, prompt_ids)
            fails += tf_fails
            steps += n_steps
            expected.append((argmax_point(self.model, image), data.detokenize(ids, self.vocab)))
        self.tokens = steps
        known = set(self.vocab.tokens)
        for r in rounds:
            r.tokens = steps
            for (code, out, err), (point, caption), path in zip(r.output, expected, self.calls):
                if code != 0:
                    fails.append(f"{path.name}: exit {code}: {err.strip()}")
                    continue
                head, _, text = out.partition("\n")
                text = text.rstrip("\n")
                printed = tuple(float(v) for v in head.removeprefix("hazard=(").removesuffix(")").split(","))
                if printed != point:
                    fails.append(f"{path.name}: printed {head}, argmax point {point}")
                if any(tok not in known for tok in text.split()):
                    fails.append(f"{path.name}: caption {text!r} has tokens outside the vocabulary")
                if text != caption:
                    fails.append(f"{path.name}: caption {text!r}, greedy replica {caption!r}")
            if r.output[0] != r.output[-1]:
                fails.append("the repeated image gave a different output")
        return sorted(set(fails))


def _same_output(rounds: list[Round], what: str) -> list[str]:
    """Rounds repeat the same calls on the same inputs, so a deterministic
    program gives equal outputs."""
    if any(r.output != rounds[0].output for r in rounds[1:]):
        return [f"{what} differ between identical rounds"]
    return []


WORKLOADS = {w.name: w for w in (Pretrain, FinetuneLora, EvalGreedy, PredictCli)}
