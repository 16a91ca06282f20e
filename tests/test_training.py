import contextlib
import math
import os
import re
import struct
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hazardvlm import tensor as tz
from hazardvlm.data import SynthConfig, build_vocab, detokenize, normalize, synth_generate, tokenize
from hazardvlm.localization import grid_to_pixel, hard_argmax
from hazardvlm.metrics import corpus_report
from hazardvlm.model import HazardModel, ModelConfig
from conftest import (
    CHECKPOINT_HEADER,
    reference_accumulate,
    reference_adamw,
    reference_backward,
    reference_clip,
    reference_take_grads,
    sealed_checkpoint,
    with_repeated_last_tensor,
)
from hazardvlm.optim import AdamWState, DivergenceError, FlatArrays, ScheduleConfig, lr_at
from hazardvlm.training import (
    HAZARD_PROMPT,
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointError,
    LOG_HEADER,
    StepLog,
    TrainConfig,
    _batch_breakdown,
    _shared_prefix,
    accumulate_gradients,
    apply_checkpoint,
    evaluate,
    infer,
    load_checkpoint,
    restore_model,
    sample_losses,
    save_checkpoint,
    train,
)
from hazardvlm.tensor import Tape, Tensor

SMALL_MODEL = ModelConfig(
    image_size=16,
    patch_size=4,
    embed_dim=16,
    heads=2,
    encoder_layers=1,
    decoder_layers=1,
    latent_dim=8,
    lora_rank=2,
    max_caption_len=16,
)


def make_dataset(n=24, seed=0, image_size=16, patch_size=4):
    cfg = SynthConfig(image_size=image_size, patch_size=patch_size)
    samples = synth_generate(n, cfg, seed=seed)
    vocab = build_vocab([s.caption for s in samples] + [HAZARD_PROMPT])
    return samples, vocab


def small_model(vocab, seed=0):
    cfg = ModelConfig(
        **{**SMALL_MODEL.__dict__, "vocab_size": len(vocab)}
    )
    return HazardModel(cfg, seed=seed)


def quick_cfg(**overrides):
    base = dict(
        epochs=1,
        grad_accum_steps=2,
        base_lr=1e-3,
        warmup_start_lr=1e-4,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

def _summed(micro_grads):
    """A gradient buffer holding the sum of the micro-batch gradients,
    added in the order backward adds them: 0 + g1, then + g2, ..."""
    buffer = FlatArrays.zeros({name: g.shape for name, g in micro_grads[0].items()}, np.float64)
    for grads in micro_grads:
        for name, g in grads.items():
            view = buffer[name]
            view += g
    return buffer


def test_accumulate_identical_grads():
    g = {"w": np.array([1.0, -2.0]), "b": np.array([[0.25], [3.0]])}
    buffer = _summed([g] * 8)
    out = accumulate_gradients(buffer, 8)
    for name in g:
        np.testing.assert_allclose(out[name], g[name])
    # the buffer is zeroed for the next group; the mean is not
    assert not buffer.flat.any()
    np.testing.assert_allclose(out["w"], g["w"])


def test_accumulate_opposite_grads_cancel():
    g = {"w": np.array([0.5, 1.5])}
    out = accumulate_gradients(_summed([g, {"w": -g["w"]}]), 2)
    np.testing.assert_allclose(out["w"], np.zeros(2))


def test_accumulate_matches_the_per_tensor_mean_bitwise():
    rng = np.random.default_rng(4)
    for count in (1, 3, 8):
        micro = [
            {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)} for _ in range(count)
        ]
        out = accumulate_gradients(_summed(micro), count)
        ref = reference_accumulate([{n: 0.0 + g for n, g in grads.items()} for grads in micro])
        for name in ref:
            assert out[name].tobytes() == ref[name].tobytes(), (count, name)


def test_accumulate_rejects_an_empty_group():
    with pytest.raises(ValueError):
        accumulate_gradients(_summed([{"w": np.zeros(2)}]), 0)


def test_accumulated_singletons_equal_one_batch():
    samples, vocab = make_dataset(8)
    model_a = small_model(vocab, seed=1)
    model_b = small_model(vocab, seed=1)

    cfg_a = quick_cfg(epochs=1, batch_size=1, grad_accum_steps=8)
    cfg_b = quick_cfg(epochs=1, batch_size=8, grad_accum_steps=1)
    res_a = train(model_a, samples, samples[:2], vocab, cfg_a)
    res_b = train(model_b, samples, samples[:2], vocab, cfg_b)
    assert len(res_a.logs) == len(res_b.logs) == 1
    for name, tensor in model_a.params.tensors.items():
        np.testing.assert_allclose(
            tensor.data, model_b.params.tensors[name].data, atol=1e-6, err_msg=name
        )


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _per_tensor_train(model, d_train, vocab, cfg):
    """``train`` as it was before the flat step, minus validation: every
    intermediate gets a grad buffer, micro-batch gradients are copied out
    and averaged as a list of dicts, and clipping and AdamW loop over the
    tensors. Each micro-batch encodes the prompt and takes every adapter
    product itself, with no prefix shared over the group. Returns the
    optimizer state, one log tuple per step and the step count."""
    n = len(d_train)
    total = cfg.epochs * math.ceil(math.ceil(n / cfg.batch_size) / cfg.grad_accum_steps)
    sched = ScheduleConfig(
        base_lr=cfg.base_lr,
        warmup_start_lr=cfg.warmup_start_lr,
        warmup_steps=min(int(round(cfg.warmup_frac * total)), total - 1),
        total_steps=total,
    )
    state = AdamWState(beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    trainable = model.trainable_tensors()
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    logs, step = [], 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n)
        micro, values = [], []
        for start in range(0, n, cfg.batch_size):
            batch = [d_train[i] for i in order[start : start + cfg.batch_size]]
            with Tape() as tape:
                breakdown = _batch_breakdown(model, batch, prompt_ids, vocab, cfg)
            reference_backward(tape, breakdown.total)
            micro.append(reference_take_grads(trainable))
            values.append(breakdown.values())
            if len(micro) == cfg.grad_accum_steps or start + cfg.batch_size >= n:
                grads, norm = reference_clip(reference_accumulate(micro), cfg.clip_max_norm)
                lr = lr_at(sched, step)
                reference_adamw(trainable, grads, state, lr)
                coord, text, raw = (sum(v[i] for v in values) / len(values) for i in range(3))
                logs.append((step, raw, coord, text, lr, norm))
                step += 1
                micro, values = [], []
    return state, logs, step


# 11 scenes: groups of 8 and a partial 3. Each cap lies inside the run's
# range of gradient norms, so some steps clip and some do not.
@pytest.mark.parametrize("mode, n, accum, cap", [("pretrain", 8, 1, 1.8), ("lora", 11, 8, 0.13)])
def test_train_matches_the_per_tensor_step_bitwise(tmp_path, mode, n, accum, cap):
    samples, vocab = make_dataset(n)
    models = [_lora_model(vocab) if mode == "lora" else small_model(vocab, seed=2) for _ in range(2)]
    cfg = quick_cfg(epochs=2, mode=mode, grad_accum_steps=accum, base_lr=1e-2, clip_max_norm=cap)
    res = train(models[0], samples, samples[:2], vocab, cfg)
    save_checkpoint(models[0], None, tmp_path / "flat.ckpt", step=len(res.logs), epoch=cfg.epochs, seed=cfg.seed)
    _, logs, step = _per_tensor_train(models[1], samples, vocab, cfg)
    save_checkpoint(models[1], None, tmp_path / "ref.ckpt", step=step, epoch=cfg.epochs, seed=cfg.seed)

    assert [(e.step, e.loss, e.coord_loss, e.text_loss, e.lr, e.grad_norm) for e in res.logs] == logs
    norms = [e.grad_norm for e in res.logs]
    assert min(norms) < cap < max(norms)
    # every parameter, as checkpoint bytes
    assert (tmp_path / "flat.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()
    assert all(t.grad is None for t in models[0].params.tensors.values())


@pytest.mark.parametrize("lora", [False, True])
def test_backward_writes_leaves_only_with_the_bits_of_writing_every_node(lora):
    samples, vocab = make_dataset(2)
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    leaf_grads = []
    for run_backward in (tz.backward, reference_backward):
        model = _lora_model(vocab) if lora else small_model(vocab, seed=1)
        with Tape() as tape:
            closs, tloss = sample_losses(model, samples[0], prompt_ids, vocab, tau=0.5)
            loss = tz.add(closs, tloss)
        run_backward(tape, loss)
        if run_backward is tz.backward:
            assert all(node.output.grad is None for node in tape.nodes)
        leaf_grads.append({n: t.grad for n, t in model.params.tensors.items() if t.requires_grad})
    flat, ref = leaf_grads
    assert flat.keys() == ref.keys()
    for name, g in ref.items():
        assert g is not None and flat[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("lora", [False, True])
def test_micro_batches_sharing_a_prefix_give_the_bits_of_recomputing_it(lora):
    # two micro-batch tapes that start with one prefix's nodes, against two
    # tapes that each encode the prompt and (LoRA) take A.B on every use
    samples, vocab = make_dataset(2)
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    cfg = quick_cfg()
    leaf_grads = []
    for shared in (True, False):
        model = _lora_model(vocab) if lora else small_model(vocab, seed=1)
        nodes, view, prompt = _shared_prefix(model, prompt_ids)
        for sample in samples:
            with Tape(nodes if shared else ()) as tape:
                if shared:
                    loss = _batch_breakdown(view, [sample], prompt_ids, vocab, cfg, prompt).total
                else:
                    loss = _batch_breakdown(model, [sample], prompt_ids, vocab, cfg).total
            tape.backward(loss)
        leaf_grads.append({n: t.grad for n, t in model.params.tensors.items() if t.requires_grad})
    shared, recomputed = leaf_grads
    assert shared.keys() == recomputed.keys()
    for name, g in recomputed.items():
        assert g is not None and shared[name].tobytes() == g.tobytes(), name


def test_train_merges_and_encodes_the_prompt_once_per_accumulation_group(monkeypatch):
    import hazardvlm.model as model_module

    # 7 scenes in groups of 3: 3 groups an epoch, the last one partial
    samples, vocab = make_dataset(7)
    model = _lora_model(vocab)
    merges, prompt_encodes = Counter(), []
    effective_weight, encode_text = model_module.effective_weight, HazardModel.encode_text

    targets = {id(adapter): target for target, adapter in model.params.adapters.items()}

    def counting_effective_weight(w, adapter):
        if tz._TAPE_STACK:  # recorded: not the validation's inference view
            merges[targets[id(adapter)]] += 1
        return effective_weight(w, adapter)

    def counting_encode_text(self, tokens):
        if tz._TAPE_STACK:
            prompt_encodes.append(list(tokens))
        return encode_text(self, tokens)

    monkeypatch.setattr(model_module, "effective_weight", counting_effective_weight)
    monkeypatch.setattr(HazardModel, "encode_text", counting_encode_text)
    res = train(model, samples, samples[:1], vocab, quick_cfg(epochs=2, mode="lora", grad_accum_steps=3))
    assert len(res.logs) == 6
    assert merges == Counter({target: 6 for target in model.params.adapters})
    assert prompt_encodes == [tokenize(HAZARD_PROMPT, vocab)] * 6


def test_non_finite_op_during_training_is_divergence():
    samples, vocab = make_dataset(6)
    model = small_model(vocab)
    cfg = quick_cfg(base_lr=1e30, warmup_start_lr=1e29, grad_accum_steps=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite values produced by op '"):
            train(model, samples, samples[:2], vocab, cfg)
    assert all(t.grad is None for t in model.params.tensors.values())


NAN = float("nan")


def _poisoned(vocab, mode, names, value):
    """A small model, with adapters in LoRA mode, whose tensors ``names``
    hold ``value`` in every entry."""
    model = small_model(vocab)
    if mode == "lora":
        model.enable_lora(seed=1)
    for name in names:
        model.params.tensors[name].data[...] = value
    return model


# (mode, tensors set, value, the op the per-op guard names); the forward
# runs unguarded, so each of these fails its loss check and is run again
# guarded. An adapter is both of its factors: b starts at zero.
POISONED = [
    ("pretrain", ["vis.0.attn.wq"], NAN, "linear"),
    ("pretrain", ["vis.0.attn.wq"], 3e38, "linear"),
    ("pretrain", ["vis.patch_embed.b"], NAN, "linear"),
    ("pretrain", ["txt.0.ln1.g"], NAN, "layer_norm"),
    ("pretrain", ["txt.0.ln1.g"], 3e38, "layer_norm"),
    ("pretrain", ["proj.img.w"], NAN, "linear"),
    ("pretrain", ["proj.txt.b"], NAN, "linear"),
    ("pretrain", ["dec.pos"], NAN, "slice_axis"),
    ("pretrain", ["dec.out.w"], 3e38, "linear"),
    ("lora", ["dec.ln_f.b"], 3e38, "cross_entropy"),
    ("lora", ["dec.embed"], NAN, "take_rows"),
    ("lora", ["txt.embed"], 3e38, "layer_norm"),
    ("lora", ["lora.vis.0.attn.wq.a", "lora.vis.0.attn.wq.b"], NAN, "matmul"),
    ("lora", ["lora.proj.img.w.a", "lora.proj.img.w.b"], 3e38, "matmul"),
    ("lora", ["lora.dec.0.ffn.w2.a", "lora.dec.0.ffn.w2.b"], 3e38, "matmul"),
]


@pytest.mark.parametrize("mode, names, value, op", POISONED)
def test_poisoned_weight_divergence_names_the_op(mode, names, value, op):
    samples, vocab = make_dataset(4)
    model = _poisoned(vocab, mode, names, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        with pytest.raises(DivergenceError) as caught:
            train(model, samples, samples[:1], vocab, quick_cfg(mode=mode, grad_accum_steps=1))
        # the per-op guard is on again
        with pytest.raises(tz.NonFiniteError):
            tz.scale(Tensor(np.full(2, 3e38, np.float32)), 10.0)
    assert str(caught.value) == f"non-finite values produced by op '{op}' at optimizer step 0"
    assert all(t.grad is None for t in model.params.tensors.values())


def test_overflowing_projector_weight_is_divergence_in_training():
    # the untrained image features are small, so a projector weight of
    # 3e38 overflows no op's output. The huge latents enter the decoder's
    # residual stream, where a layer norm's variance overflows to inf;
    # its output would be the bias and the loss finite, so the layer norm
    # itself raises, guarded or not
    samples, vocab = make_dataset(4)
    model = _poisoned(vocab, "pretrain", ["proj.img.w"], 3e38)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as caught:
            train(model, samples, samples[:1], vocab, quick_cfg(grad_accum_steps=1))
    assert str(caught.value) == "non-finite values produced by op 'layer_norm' at optimizer step 0"
    assert all(t.grad is None for t in model.params.tensors.values())


def test_non_finite_loss_the_guarded_rerun_passes_names_the_step(monkeypatch):
    samples, vocab = make_dataset(4)
    model = small_model(vocab)
    calls = []

    def nan_once(*args):
        calls.append(tz._FINITE_CHECKS)
        out = _batch_breakdown(*args)
        if len(calls) == 1:
            out.total = Tensor(np.float32("nan"))
        return out

    monkeypatch.setattr("hazardvlm.training._batch_breakdown", nan_once)
    with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch 0, step 0$"):
        train(model, samples, samples[:1], vocab, quick_cfg(grad_accum_steps=1))
    # the forward ran unguarded, the rerun guarded
    assert calls == [False, True]
    assert all(t.grad is None for t in model.params.tensors.values())


def test_one_step_per_sample_when_accum_is_one():
    samples, vocab = make_dataset(6)
    model = small_model(vocab)
    res = train(model, samples, samples[:2], vocab, quick_cfg(grad_accum_steps=1))
    assert len(res.logs) == 6


def test_step_count_is_ceil_of_micro_batches():
    samples, vocab = make_dataset(10)
    model = small_model(vocab)
    res = train(model, samples, samples[:2], vocab, quick_cfg(epochs=2, grad_accum_steps=4))
    # 10 micro-batches per epoch -> ceil(10/4) = 3 optimizer steps per epoch
    assert len(res.logs) == 6
    assert [entry.step for entry in res.logs] == list(range(6))


def test_logged_lr_matches_schedule():
    samples, vocab = make_dataset(12)
    model = small_model(vocab)
    cfg = quick_cfg(epochs=2, grad_accum_steps=3)
    res = train(model, samples, samples[:2], vocab, cfg)
    total = len(res.logs)
    sched = ScheduleConfig(
        base_lr=cfg.base_lr,
        warmup_start_lr=cfg.warmup_start_lr,
        warmup_steps=min(int(round(cfg.warmup_frac * total)), total - 1),
        total_steps=total,
    )
    for entry in res.logs:
        assert entry.lr == lr_at(sched, entry.step)


def test_deterministic_training_runs():
    samples, vocab = make_dataset(10)
    model_a = small_model(vocab, seed=3)
    model_b = small_model(vocab, seed=3)
    res_a = train(model_a, samples, samples[:2], vocab, quick_cfg(seed=5))
    res_b = train(model_b, samples, samples[:2], vocab, quick_cfg(seed=5))
    for name in model_a.params.tensors:
        assert np.array_equal(
            model_a.params.tensors[name].data, model_b.params.tensors[name].data
        ), name
    assert [entry.as_csv_row() for entry in res_a.logs] == [e.as_csv_row() for e in res_b.logs]


def test_frozen_tensors_bitwise_invariant_in_lora_mode():
    samples, vocab = make_dataset(10)
    model = small_model(vocab, seed=2)
    model.enable_lora(seed=4)
    frozen_before = {n: t.data.copy() for n, t in model.frozen_tensors().items()}
    train(model, samples, samples[:2], vocab, quick_cfg(mode="lora"))
    for name, tensor in model.frozen_tensors().items():
        assert np.array_equal(frozen_before[name], tensor.data), name


def test_coord_loss_trains_alone_when_text_weight_zero():
    samples, vocab = make_dataset(32)
    model = small_model(vocab, seed=0)
    cfg = quick_cfg(epochs=3, grad_accum_steps=1, base_lr=3e-3, lambda_text=0.0)
    res = train(model, samples, samples[:4], vocab, cfg)
    first = np.mean([e.coord_loss for e in res.logs[:8]])
    last = np.mean([e.coord_loss for e in res.logs[-8:]])
    assert last < first


def test_divergence_guard_trips(tmp_path, monkeypatch):
    samples, vocab = make_dataset(6)
    model = small_model(vocab)
    log = tmp_path / "log.csv"
    monkeypatch.setattr("hazardvlm.training.DIVERGENCE_FACTOR", 1e-9)
    # one micro-batch per step, so the first step is logged before the
    # second micro-batch trips the guard
    cfg = quick_cfg(grad_accum_steps=1, log_path=str(log))
    with pytest.raises(DivergenceError):
        train(model, samples, samples[:2], vocab, cfg)
    lines = log.read_text().splitlines()
    assert lines[0] == LOG_HEADER
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_non_finite_gradient_is_the_same_divergence_error():
    # 1e19 in a prompt layer norm's bias leaves the forward and the loss
    # finite; the gradient overflows, and clipping's check ends the run
    samples, vocab = make_dataset(2, image_size=32, patch_size=8)
    model = HazardModel(ModelConfig(vocab_size=len(vocab)), seed=0)
    model.params.tensors["txt.0.ln1.b"].data += 1e19
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match=r"^non-finite gradient before clipping$"):
            train(model, samples, samples[:1], vocab, TrainConfig())
    assert all(t.grad is None for t in model.params.tensors.values())


def test_a_tensor_that_requires_no_gradient_keeps_its_bits():
    samples, vocab = make_dataset(4)
    model = small_model(vocab)
    frozen = model.params.tensors["vis.0.ffn.w1"]
    frozen.requires_grad = False
    before = frozen.data.tobytes()
    assert "vis.0.ffn.w1" not in model.trainable_tensors()
    assert "vis.0.ffn.w1" in model.frozen_tensors()
    # the decoupled decay alone would shrink it at every step
    res = train(model, samples, samples[:1], vocab, quick_cfg(weight_decay=0.5))
    assert len(res.logs) == 2
    assert frozen.data.tobytes() == before


def test_empty_dataset_rejected():
    samples, vocab = make_dataset(4)
    model = small_model(vocab)
    with pytest.raises(ValueError):
        train(model, [], samples, vocab, quick_cfg())
    with pytest.raises(ValueError):
        train(model, samples, samples, vocab, quick_cfg(mode="lora"))  # lora not enabled


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_train_config_rejects_a_seed_a_checkpoint_cannot_store(seed):
    # the checkpoint stores the seed as a u64: refused before step 0, not at the save
    with pytest.raises(ValueError, match=re.escape("seed must be in [0, 2**64)")):
        quick_cfg(seed=seed)
    assert quick_cfg(seed=2**64 - 1).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _EchoModel:
    """Stub implementing the evaluate() surface, which runs the samples as
    one batch: attention collapsed onto each true hazard patch, generation
    echoing each true caption."""

    def __init__(self, config, vocab, samples):
        self.config = config
        self._vocab = vocab
        self._samples = samples
        self._batch = []

    def merged(self):
        return self

    def encode_image(self, images):
        from hazardvlm.localization import AttentionMap
        from hazardvlm.tensor import Tensor

        self._batch = self._samples[: images.shape[0]]
        side = self.config.grid_side
        grids = np.zeros((len(self._batch), side, side), dtype=np.float32)
        for grid, sample in zip(grids, self._batch):
            gx = int(sample.hazard.x) // self.config.patch_size
            gy = int(sample.hazard.y) // self.config.patch_size
            grid[gy, gx] = 1.0
        # inference checks that each stage's output is finite
        return Tensor(np.zeros((len(self._batch), 1, 1), np.float32)), AttentionMap(Tensor(grids))

    def encode_text(self, tokens):
        from hazardvlm.tensor import Tensor

        return Tensor(np.zeros((len(tokens), 1), dtype=np.float32))

    def project(self, features, which):
        return features

    def fuse(self, e_img, e_text):
        return e_img

    def generate(self, fused, max_len, top_p, temperature, seed):
        from hazardvlm.data import tokenize

        return [tokenize(s.caption, self._vocab)[1:-1] for s in self._batch]


def test_evaluate_echo_model_is_perfect():
    # hazards placed exactly at patch centers so argmax localization is exact
    from hazardvlm.data import AnnotatedSample, synth_caption
    from hazardvlm.localization import PixelPoint

    cfg = ModelConfig(**{**SMALL_MODEL.__dict__, "vocab_size": 32})
    img = np.zeros((1, 16, 16), dtype=np.float32)
    samples = [
        AnnotatedSample(img, PixelPoint(x, y), synth_caption(PixelPoint(x, y), cfg.patch_size))
        for x, y in ((2, 2), (6, 10), (14, 6))
    ]
    vocab = build_vocab([s.caption for s in samples] + [HAZARD_PROMPT])
    echoed = _EchoModel(cfg, vocab, samples)
    report = evaluate(echoed, samples, vocab)
    assert report.bleu4 == 1.0
    assert report.rougeL == 1.0
    assert report.mse_pixels == 0.0


def _lora_model(vocab):
    model = small_model(vocab)
    model.enable_lora(seed=0)
    rng = np.random.default_rng(3)
    for adapter in model.params.adapters.values():
        adapter.b.data = rng.normal(0.0, 0.5, adapter.b.shape).astype(np.float32)
    return model


def test_evaluate_merges_each_adapter_and_encodes_the_prompt_once(monkeypatch):
    import hazardvlm.model as model_module

    samples, vocab = make_dataset(5)
    model = _lora_model(vocab)
    # reference: per-use adapter products and the prompt encoded per sample
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    refs, cands, truths, preds = [], [], [], []
    for s in samples:
        feats, amap = model.encode_image(Tensor(s.image))
        fused = model.fuse(model.project(feats, "image"), model.project(model.encode_text(prompt_ids), "text"))
        ids = model.generate(fused, max_len=model.config.max_caption_len, top_p=0.0, temperature=1.0)
        refs.append(normalize(s.caption))
        cands.append(detokenize(ids, vocab).split())
        truths.append(s.hazard)
        preds.append(grid_to_pixel(hard_argmax(amap), model.config.patch_size, model.config.image_size))
    expected = corpus_report(refs, truths, cands, preds)

    merges, prompt_encodes = Counter(), []
    effective_weight, encode_text = model_module.effective_weight, HazardModel.encode_text

    targets = {id(adapter): target for target, adapter in model.params.adapters.items()}

    def counting_effective_weight(w, adapter):
        merges[targets[id(adapter)]] += 1
        return effective_weight(w, adapter)

    def counting_encode_text(self, tokens):
        prompt_encodes.append(list(tokens))
        return encode_text(self, tokens)

    monkeypatch.setattr(model_module, "effective_weight", counting_effective_weight)
    monkeypatch.setattr(HazardModel, "encode_text", counting_encode_text)
    assert evaluate(model, samples, vocab) == expected
    assert merges == Counter(list(model.params.adapters))
    assert prompt_encodes == [prompt_ids]


def _ragged_model(vocab):
    """A LoRA model whose captions end at different steps: every base tensor
    redrawn wide enough that each scene's logits differ, and the end token's
    bias raised into the range of the winning logits."""
    from hazardvlm.model import END_ID

    model = _lora_model(vocab)
    rng = np.random.default_rng(11)
    for name, t in model.params.tensors.items():
        if not name.startswith("lora."):
            t.data = rng.normal(0.0, 0.3, t.shape).astype(np.float32)
    model.params.tensors["dec.out.b"].data[END_ID] += 1.63
    return model


def _scene_batch(model, samples, vocab):
    """Fused latents of each sample, stacked, from per-scene calls."""
    text = model.project(model.encode_text(tokenize(HAZARD_PROMPT, vocab)), "text")
    fused = []
    for s in samples:
        feats, _ = model.encode_image(Tensor(s.image))
        fused.append(model.fuse(model.project(feats, "image"), text).data)
    return Tensor(np.stack(fused))


@pytest.mark.parametrize(
    "top_p, temperature, seed",
    [(0.0, 1.0, 0), (0.9, 0.95, 0), (0.9, 0.95, 7)],
    ids=["greedy", "nucleus_seed0", "nucleus_seed7"],
)
def test_batched_generate_matches_single_calls(monkeypatch, top_p, temperature, seed):
    samples, vocab = make_dataset(8)
    model = _ragged_model(vocab)
    max_len = model.config.max_caption_len
    fused = _scene_batch(model, samples, vocab)
    steps = []
    decoder_states = model._decoder_states

    def recording_decoder_states(*args):
        logits = decoder_states(*args)
        steps.append(logits.data[..., -1, :].reshape(-1, logits.shape[-1]).copy())
        return logits

    monkeypatch.setattr(model, "_decoder_states", recording_decoder_states)
    singles, single_steps = [], []
    for scene in fused.data:
        steps.clear()
        singles.append(model.generate(Tensor(scene), max_len, top_p, temperature, seed))
        single_steps.append([rows[0] for rows in steps])
    steps.clear()
    batched = model.generate(fused, max_len, top_p, temperature, seed)

    assert batched == singles
    # scenes leave the batch at different steps
    assert len({len(ids) for ids in singles}) > 1
    # step t runs the scenes still decoding, in batch order, with the
    # logits each got alone
    assert len(steps) == max(len(s) for s in single_steps)
    for t, rows in enumerate(steps):
        live = [i for i, s in enumerate(single_steps) if len(s) > t]
        np.testing.assert_array_equal(rows, np.stack([single_steps[i][t] for i in live]))


@pytest.mark.parametrize("top_p, seed", [(0.0, 0), (0.9, 7)])
def test_infer_on_a_stack_matches_single_image_calls(top_p, seed):
    samples, vocab = make_dataset(8)
    model = _ragged_model(vocab)
    images = np.stack([s.image for s in samples])
    singles = [infer(model, vocab, Tensor(image), top_p=top_p, temperature=0.95, seed=seed) for image in images]
    assert infer(model, vocab, Tensor(images), top_p=top_p, temperature=0.95, seed=seed) == singles


def _decode_overflows(vocab):
    """A model whose weights overflow only in the decoder's output layer."""
    model = small_model(vocab)
    model.params.tensors["dec.out.w"].data[:] = 3e38
    return model


def test_inference_failing_a_stage_check_reruns_guarded_to_name_the_op():
    samples, vocab = make_dataset(3)
    model = _decode_overflows(vocab)
    images = Tensor(np.stack([s.image for s in samples]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        with pytest.raises(tz.NonFiniteError, match="produced by op 'linear'") as caught:
            infer(model, vocab, images)
        # the per-op guard is on again
        with pytest.raises(tz.NonFiniteError, match="op 'scale'"):
            tz.scale(Tensor(np.full(2, 3e38, np.float32)), 10.0)
    # the unguarded run got through the encoders and stopped at the first
    # decode step's logits
    assert str(caught.value.__context__) == "non-finite values in stage 'decoder logits'"


def test_inference_overflowing_in_the_prompt_encoding_reruns_guarded_to_name_the_op():
    # the weight-only work runs in the unguarded run too
    samples, vocab = make_dataset(2)
    model = small_model(vocab)
    model.params.tensors["txt.0.attn.wq"].data[:] = 3e38  # used only by the prompt
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        with pytest.raises(tz.NonFiniteError, match="produced by op 'linear'") as caught:
            infer(model, vocab, Tensor(samples[0].image))
    assert str(caught.value.__context__) == "non-finite values in stage 'fused latents'"


def test_inference_names_the_stage_when_the_guarded_rerun_passes(monkeypatch):
    samples, vocab = make_dataset(2)
    model = small_model(vocab)  # no adapters: the merged view is the model itself
    generate, calls = model.generate, []

    def fails_once(*args, **kwargs):
        calls.append(tz._FINITE_CHECKS)
        if len(calls) == 1:
            raise tz.NonFiniteError("non-finite values in stage 'decoder logits'")
        return generate(*args, **kwargs)

    monkeypatch.setattr(model, "generate", fails_once)
    with pytest.raises(tz.NonFiniteError, match="stage 'decoder logits'"):
        infer(model, vocab, Tensor(samples[0].image))
    assert calls == [False, True]


def test_batched_greedy_inference_checks_once_per_stage_and_decode_step(monkeypatch):
    samples, vocab = make_dataset(8)
    model = small_model(vocab)  # no adapters: the merged view is the model itself
    images = Tensor(np.stack([s.image for s in samples]))
    decoder_states, steps = model._decoder_states, []

    def counted_step(*args):
        steps.append(1)
        return decoder_states(*args)

    isfinite, checks = np.isfinite, []

    def counted_isfinite(*args, **kwargs):
        checks.append(1)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(model, "_decoder_states", counted_step)
    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    infer(model, vocab, images)
    # encoder features, attention map and fused latents, then one per step
    assert steps and len(checks) <= 3 + len(steps)


@pytest.mark.parametrize("lora", [False, True])
def test_restore_model_builds_the_saved_model_without_a_random_init(tmp_path, monkeypatch, lora):
    samples, vocab = make_dataset(4)
    saved = _lora_model(vocab) if lora else small_model(vocab, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(saved, None, path, step=0, epoch=0, seed=0)
    ckpt = load_checkpoint(path)

    def no_draw(*args, **kwargs):
        raise AssertionError("restore_model drew a random init")

    monkeypatch.setattr(HazardModel, "__init__", no_draw)
    monkeypatch.setattr(HazardModel, "enable_lora", no_draw)
    restored = restore_model(ckpt)
    assert restored.config == saved.config and restored.lora_enabled == lora
    assert list(restored.params.tensors) == list(saved.params.tensors)
    for name, t in saved.params.tensors.items():
        assert restored.params.tensors[name].data.tobytes() == t.data.tobytes()
        assert restored.params.tensors[name].requires_grad == t.requires_grad
    assert list(restored.trainable_tensors()) == list(saved.trainable_tensors())
    assert set(restored.params.adapters) == set(saved.params.adapters)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.pop("dec.out.b"), "lacks 1 tensor(s) of its model, first 'dec.out.b'"),
        (lambda t: t.update({"txt.pos": np.zeros((3, 16), np.float32)}), "shape mismatch for 'txt.pos'"),
        (lambda t: t.update({"extra": np.zeros(3, np.float32)}), "'extra' not present"),
        (lambda t: t.pop("lora.dec.0.self.wq.b"), "first 'lora.dec.0.self.wq.b'"),
    ],
)
def test_restore_model_needs_exactly_the_declared_tensors(tmp_path, edit, message):
    samples, vocab = make_dataset(4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(_lora_model(vocab), None, path, step=0, epoch=0, seed=0)
    ckpt = load_checkpoint(path)
    edit(ckpt.tensors)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        restore_model(ckpt)


def test_evaluate_leaves_lora_training_intact():
    samples, vocab = make_dataset(3)
    model = _lora_model(vocab)
    before = {n: t.data.tobytes() for n, t in model.params.tensors.items()}
    evaluate(model, samples, vocab)
    assert {n: t.data.tobytes() for n, t in model.params.tensors.items()} == before
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    with Tape() as tape:
        closs, tloss = sample_losses(model, samples[0], prompt_ids, vocab, tau=0.5)
        loss = tz.add(closs, tloss)
    tape.backward(loss)
    b_grads = {n: t.grad for n, t in model.params.tensors.items() if n.startswith("lora.") and n.endswith(".b")}
    assert len(b_grads) == len(model.params.adapters)
    for name, grad in b_grads.items():
        assert grad is not None and np.abs(grad).sum() > 0, name


def test_evaluate_report_schema_and_determinism():
    samples, vocab = make_dataset(6)
    model = small_model(vocab)
    r1 = evaluate(model, samples, vocab)
    r2 = evaluate(model, samples, vocab)
    assert r1 == r2
    assert r1.count == 6
    for field in ("bleu4", "rouge1", "rouge2", "rougeL"):
        assert 0.0 <= getattr(r1, field) <= 1.0
    assert r1.mse_pixels >= 0.0


def test_evaluate_rejects_an_empty_set():
    _, vocab = make_dataset(1)
    with pytest.raises(ValueError):
        evaluate(small_model(vocab), [], vocab)


def test_train_streams_log(tmp_path):
    samples, vocab = make_dataset(6)
    model = small_model(vocab)
    log = tmp_path / "log.csv"
    result = train(model, samples, samples[:2], vocab, quick_cfg(log_path=str(log)))
    rows = [entry.as_csv_row() for entry in result.logs]
    assert log.read_text(encoding="utf-8") == "\n".join([LOG_HEADER] + rows) + "\n"
    assert rows[0].startswith("0,")


def test_log_columns_are_the_step_log_fields_in_order():
    assert LOG_HEADER == "step,loss,loss_smooth,coord_loss,text_loss,lr,grad_norm"
    entry = StepLog(step=3, loss=0.1, loss_smooth=2.5, coord_loss=1e-20, text_loss=0.0, lr=3e-05, grad_norm=1.0)
    assert entry.as_csv_row() == "3,0.1,2.5,1e-20,0.0,3e-05,1.0"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    samples, vocab = make_dataset(6)
    model = small_model(vocab, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, None, path, step=7, epoch=2, seed=9)

    ckpt = load_checkpoint(path)
    assert ckpt.config == model.config
    assert (ckpt.step, ckpt.epoch, ckpt.seed) == (7, 2, 9)
    for name, tensor in model.params.tensors.items():
        assert np.array_equal(ckpt.tensors[name], tensor.data)

    restored = small_model(vocab, seed=42)
    apply_checkpoint(restored, ckpt)
    for name, tensor in model.params.tensors.items():
        assert np.array_equal(restored.params.tensors[name].data, tensor.data)


def test_loaded_tensors_are_independent_writable_arrays(tmp_path):
    samples, vocab = make_dataset(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(vocab), None, path, step=0, epoch=0, seed=0)
    tensors = load_checkpoint(path).tensors
    for arr in tensors.values():
        assert arr.flags.writeable and arr.flags.owndata
    first, second = list(tensors.values())[:2]
    first[...] = 5.0
    assert not (second == 5.0).any()


def test_apply_checkpoint_checks_every_tensor_before_it_assigns_any(tmp_path):
    samples, vocab = make_dataset(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(vocab, seed=1), None, path, step=0, epoch=0, seed=0)
    ckpt = load_checkpoint(path)
    last = list(ckpt.tensors)[-1]
    ckpt.tensors[last] = ckpt.tensors[last][:1]
    model = small_model(vocab, seed=2)
    before = {name: t.data.tobytes() for name, t in model.params.tensors.items()}
    with pytest.raises(CheckpointError, match=f"^shape mismatch for '{last}'"):
        apply_checkpoint(model, ckpt)
    assert {name: t.data.tobytes() for name, t in model.params.tensors.items()} == before


def test_checkpoint_save_load_save_idempotent(tmp_path):
    samples, vocab = make_dataset(4)
    model = small_model(vocab, seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, None, p1, step=1, epoch=1, seed=1)
    clone = small_model(vocab, seed=2)
    apply_checkpoint(clone, load_checkpoint(p1))
    save_checkpoint(clone, None, p2, step=1, epoch=1, seed=1)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_corruption_errors_are_distinct(tmp_path):
    samples, vocab = make_dataset(4)
    model = small_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, None, path, step=0, epoch=0, seed=0)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(bad_version)

    # the version 2 layout, sealed: an optimizer-moment section before the metadata
    payload = blob[CHECKPOINT_HEADER:]
    moments = struct.pack("<II3sIQ", 1, 3, b"m.x", 1, 2) + np.ones(2, "<f4").tobytes()
    version2 = tmp_path / "version2.ckpt"
    version2.write_bytes(sealed_checkpoint(payload[:-24] + moments + payload[-24:], version=2))
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(version2)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(truncated)


def test_checkpoint_with_a_repeated_tensor_name_is_an_error(tmp_path):
    samples, vocab = make_dataset(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(vocab), None, path, step=0, epoch=0, seed=0)
    path.write_bytes(with_repeated_last_tensor(path.read_bytes(), 123.0))
    with pytest.raises(CheckpointError, match="tensor 'dec.out.b' stored twice"):
        load_checkpoint(path)


TINY_MODEL = ModelConfig(
    image_size=4, patch_size=2, embed_dim=4, heads=1, encoder_layers=1,
    decoder_layers=1, vocab_size=6, latent_dim=2, lora_rank=1, max_caption_len=4,
)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("tiny") / "tiny.ckpt"
    save_checkpoint(HazardModel(TINY_MODEL, seed=0), None, path, step=0, epoch=0, seed=0)
    return path.read_bytes()


def test_checkpoint_header_bit_flips_raise_only_checkpoint_error(tmp_path, tiny_checkpoint):
    # every single-bit flip anywhere in the file is caught, by the magic,
    # the version, the length or the checksum
    blob = tiny_checkpoint
    flipped = tmp_path / "flipped.ckpt"
    flipped.write_bytes(blob)
    fd = os.open(flipped, os.O_WRONLY)
    try:
        for byte in range(len(blob)):
            for bit in range(8):
                os.pwrite(fd, bytes([blob[byte] ^ 1 << bit]), byte)
                with pytest.raises(CheckpointError):
                    load_checkpoint(flipped)
            os.pwrite(fd, blob[byte : byte + 1], byte)
    finally:
        os.close(fd)


def _reads_or_raises_checkpoint_error(tmp_path, blob: bytes) -> None:
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    with contextlib.suppress(CheckpointError):
        load_checkpoint(path)


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(blob=st.binary(max_size=64))
def test_checkpoint_reader_fuzz_random_bytes(tmp_path, blob):
    _reads_or_raises_checkpoint_error(tmp_path, blob)


@FUZZ
@given(rest=st.binary(max_size=256))
def test_checkpoint_reader_fuzz_after_magic_and_version(tmp_path, rest):
    _reads_or_raises_checkpoint_error(tmp_path, MAGIC + struct.pack("<I", VERSION) + rest)


@FUZZ
@given(
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.binary(min_size=1, max_size=8)), min_size=1, max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_checkpoint_reader_fuzz_resealed_corruptions(tmp_path, tiny_checkpoint, edits, cut):
    # the checksum and length are recomputed, so the corrupt payload reaches the parser
    payload = bytearray(tiny_checkpoint[CHECKPOINT_HEADER:])
    for at, data in edits:
        at %= len(payload)
        payload[at : at + len(data)] = data
    if cut is not None:
        payload = payload[: cut % (len(payload) + 1)]
    _reads_or_raises_checkpoint_error(tmp_path, sealed_checkpoint(bytes(payload)))


def test_pretrain_checkpoint_loads_into_lora_model(tmp_path):
    samples, vocab = make_dataset(8)
    base = small_model(vocab, seed=1)
    train(base, samples, samples[:2], vocab, quick_cfg())
    path = tmp_path / "base.ckpt"
    save_checkpoint(base, None, path, step=4, epoch=1, seed=0)

    finetune = small_model(vocab, seed=1)
    finetune.enable_lora(seed=33)
    fresh_adapters = {
        n: t.data.copy() for n, t in finetune.params.tensors.items() if n.startswith("lora.")
    }
    apply_checkpoint(finetune, load_checkpoint(path))
    # base weights came from the checkpoint...
    for name, tensor in base.params.tensors.items():
        assert np.array_equal(finetune.params.tensors[name].data, tensor.data)
    # ...while adapters kept their fresh initialization
    for name, data in fresh_adapters.items():
        assert np.array_equal(finetune.params.tensors[name].data, data)


def test_unknown_checkpoint_tensor_rejected(tmp_path):
    samples, vocab = make_dataset(4)
    model = small_model(vocab)
    ckpt = Checkpoint(
        config=model.config, tensors={"nonexistent": np.zeros(3, np.float32)}, step=0, epoch=0, seed=0
    )
    with pytest.raises(CheckpointError):
        apply_checkpoint(model, ckpt)

