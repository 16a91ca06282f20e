import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardvlm import tensor as tz
from hazardvlm.data import SynthConfig, build_vocab, synth_generate, tokenize
from hazardvlm.localization import hard_argmax
from hazardvlm.model import (
    MASK_VALUE,
    MAX_PARAMETERS,
    HazardModel,
    LoRAAdapter,
    ModelConfig,
    SamplingError,
    effective_weight,
    lora_target_names,
    nucleus,
    parameter_count,
    parameter_specs,
    patchify,
    probabilities,
)
from hazardvlm.tensor import Tensor, grad_check
from hazardvlm.training import HAZARD_PROMPT, TrainConfig, sample_losses

TINY = ModelConfig(
    image_size=8,
    patch_size=4,
    embed_dim=8,
    heads=2,
    encoder_layers=1,
    decoder_layers=1,
    vocab_size=10,
    latent_dim=4,
    lora_rank=2,
    max_caption_len=6,
)


@pytest.fixture(scope="module")
def tiny_model():
    return HazardModel(TINY, seed=0)


def rand_image(seed, cfg=TINY):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(image_size=30, patch_size=8)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=30, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(lora_rank=0)
    with pytest.raises(ValueError):
        ModelConfig(lora_rank=64, embed_dim=32, latent_dim=16)


def test_a_config_over_the_parameter_cap_is_rejected(monkeypatch):
    count = sum(math.prod(shape) for shape, _ in parameter_specs(ModelConfig()).values())
    assert count * 100 < MAX_PARAMETERS  # the default geometry is far below the cap
    # 32 GiB of float64 draws for the patch embedding alone, never made
    with pytest.raises(ValueError, match="MAX_PARAMETERS"):
        ModelConfig(patch_size=32, embed_dim=4194304, heads=1)
    # the count is the sum of every declared shape's size
    monkeypatch.setattr("hazardvlm.model.MAX_PARAMETERS", count)
    ModelConfig()
    monkeypatch.setattr("hazardvlm.model.MAX_PARAMETERS", count - 1)
    with pytest.raises(ValueError, match="MAX_PARAMETERS"):
        ModelConfig()


def test_parameter_count_is_the_sum_of_the_declared_shapes():
    for enc, dec, projector, ffn_mult in itertools.product((1, 2, 3), (1, 2, 4), ("linear", "mlp"), (1, 4)):
        cfg = ModelConfig(
            image_size=16, patch_size=4, embed_dim=8, heads=2, latent_dim=4, lora_rank=2,
            encoder_layers=enc, decoder_layers=dec, projector=projector, ffn_mult=ffn_mult,
        )
        assert parameter_count(cfg) == sum(math.prod(shape) for shape, _ in parameter_specs(cfg).values())


def test_an_absurd_layer_count_is_rejected_at_once():
    # tiny layers, so walking every declared shape to the cap took 10 s or more
    script = (
        "from hazardvlm.model import ModelConfig\n"
        "for layers in ({'encoder_layers': 10**9}, {'decoder_layers': 10**12}):\n"
        "    try:\n"
        "        ModelConfig(embed_dim=1, heads=1, latent_dim=1, lora_rank=1, ffn_mult=1, **layers)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("MAX_PARAMETERS") == 2, proc.stdout


# ---------------------------------------------------------------------------
# patchify
# ---------------------------------------------------------------------------

def test_patchify_single_patch_is_flattened_image():
    img = Tensor(np.arange(4, dtype=np.float32).reshape(1, 2, 2))
    out = patchify(img, 2)
    assert out.shape == (1, 4)
    np.testing.assert_array_equal(out.data[0], [0, 1, 2, 3])


def test_patchify_row_major_patch_order():
    img = Tensor(np.arange(16, dtype=np.float32).reshape(1, 4, 4))
    out = patchify(img, 2)
    assert out.shape == (4, 4)
    # patch 0 holds pixels (rows 0..1, cols 0..1)
    np.testing.assert_array_equal(out.data[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(out.data[1], [2, 3, 6, 7])


def test_patchify_hot_pixel_lands_in_patch_two():
    img = np.zeros((1, 4, 4), dtype=np.float32)
    img[0, 3, 0] = 7.0  # pixel row 3, col 0 -> patch row 1, patch col 0
    out = patchify(Tensor(img), 2)
    hot_rows = np.nonzero(out.data.sum(axis=1))[0]
    assert hot_rows.tolist() == [2]


def test_patchify_rejects_non_divisible():
    with pytest.raises(tz.ShapeError):
        patchify(Tensor(np.zeros((1, 5, 5), np.float32)), 2)


def test_patchify_is_differentiable():
    img = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32))
    assert grad_check(lambda t: tz.tsum(tz.mul(patchify(t, 2), w)), img) < 1e-3


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def test_constant_image_uniform_attention_under_symmetric_init():
    # with positional embeddings zeroed, all patch tokens are identical and
    # attention is uniform by symmetry
    model = HazardModel(TINY, seed=3)
    model.params.tensors["vis.pos"].data[:] = 0.0
    img = Tensor(np.full((1, 8, 8), 0.37, dtype=np.float32))
    _, amap = model.encode_image(img)
    n = TINY.n_patches
    np.testing.assert_allclose(amap.grid.data, 1.0 / n, atol=1e-4)


def test_attention_map_is_distribution_for_random_images(tiny_model):
    for seed in range(100):
        _, amap = tiny_model.encode_image(rand_image(seed))
        data = amap.grid.data
        assert (data >= 0).all()
        assert abs(float(data.sum()) - 1.0) < 1e-6


def test_encode_image_shape_contract(tiny_model):
    feats, amap = tiny_model.encode_image(rand_image(0))
    assert feats.shape == (TINY.n_patches, TINY.embed_dim)
    assert amap.grid.shape == (TINY.grid_side, TINY.grid_side)
    with pytest.raises(tz.ShapeError):
        tiny_model.encode_image(Tensor(np.zeros((1, 16, 16), np.float32)))


def test_encode_image_gradient_wrt_input(tiny_model):
    img = rand_image(5)
    img.requires_grad = True
    w = Tensor(np.random.default_rng(2).standard_normal((TINY.n_patches, TINY.embed_dim)).astype(np.float32))
    err = grad_check(lambda t: tz.tsum(tz.mul(tiny_model.encode_image(t)[0], w)), img)
    assert err < 1e-3


def test_encode_text_deterministic(tiny_model):
    a = tiny_model.encode_text([1, 4, 5, 2])
    b = tiny_model.encode_text([1, 4, 5, 2])
    assert np.array_equal(a.data, b.data)


def test_encode_text_single_token_shape(tiny_model):
    assert tiny_model.encode_text([3]).shape == (1, TINY.embed_dim)


def test_encode_text_errors(tiny_model):
    with pytest.raises(tz.ShapeError):
        tiny_model.encode_text([])
    with pytest.raises(IndexError):
        tiny_model.encode_text([TINY.vocab_size])
    with pytest.raises(tz.ShapeError):
        tiny_model.encode_text([1] * (TINY.max_caption_len + 1))


def test_encode_text_gradient_wrt_embedding(tiny_model):
    embed = tiny_model.params.tensors["txt.embed"]

    def f(t):
        original = tiny_model.params.tensors["txt.embed"]
        tiny_model.params.tensors["txt.embed"] = t
        try:
            return tz.tsum(tiny_model.encode_text([1, 4, 2]))
        finally:
            tiny_model.params.tensors["txt.embed"] = original

    assert grad_check(f, embed) < 1e-3


# ---------------------------------------------------------------------------
# projector and fusion
# ---------------------------------------------------------------------------

def test_project_zero_input_zero_output(tiny_model):
    out = tiny_model.project(Tensor(np.zeros((3, TINY.embed_dim), np.float32)), "image")
    np.testing.assert_array_equal(out.data, 0.0)


def test_project_width_contract(tiny_model):
    for n in (1, 4, 7):
        out = tiny_model.project(Tensor(np.zeros((n, TINY.embed_dim), np.float32)), "text")
        assert out.shape == (n, TINY.latent_dim)
    with pytest.raises(ValueError):
        tiny_model.project(Tensor(np.zeros((2, TINY.embed_dim), np.float32)), "audio")


def test_project_is_row_wise_linear(tiny_model):
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((2, TINY.embed_dim)).astype(np.float32))
    b = Tensor(rng.standard_normal((3, TINY.embed_dim)).astype(np.float32))
    joint = tiny_model.project(tz.concat([a, b], axis=0), "image")
    separate = np.concatenate(
        [tiny_model.project(a, "image").data, tiny_model.project(b, "image").data]
    )
    np.testing.assert_allclose(joint.data, separate, atol=1e-6)


def test_mlp_projector_variant():
    cfg = ModelConfig(
        image_size=8, patch_size=4, embed_dim=8, heads=2, encoder_layers=1,
        decoder_layers=1, vocab_size=10, latent_dim=4, lora_rank=2,
        max_caption_len=6, projector="mlp",
    )
    model = HazardModel(cfg, seed=0)
    out = model.project(Tensor(np.ones((2, 8), np.float32)), "image")
    assert out.shape == (2, 4)
    assert "proj.img.w2" in lora_target_names(cfg)


def test_fuse_concatenates_image_then_text(tiny_model):
    rng = np.random.default_rng(1)
    e_img = Tensor(rng.standard_normal((4, TINY.latent_dim)).astype(np.float32))
    e_txt = Tensor(rng.standard_normal((3, TINY.latent_dim)).astype(np.float32))
    fused = tiny_model.fuse(e_img, e_txt)
    assert fused.shape == (7, TINY.latent_dim)
    np.testing.assert_array_equal(fused.data[:4], e_img.data)
    np.testing.assert_array_equal(fused.data[4:], e_txt.data)
    with pytest.raises(tz.ShapeError):
        tiny_model.fuse(e_img, Tensor(np.zeros((2, TINY.latent_dim + 1), np.float32)))


def test_fuse_gradient_reaches_both_inputs(tiny_model):
    rng = np.random.default_rng(2)
    e_img = Tensor(rng.standard_normal((2, TINY.latent_dim)).astype(np.float32), requires_grad=True)
    e_txt = Tensor(rng.standard_normal((2, TINY.latent_dim)).astype(np.float32))
    assert grad_check(lambda t: tz.tsum(tiny_model.fuse(t, e_txt)), e_img) < 1e-9


# ---------------------------------------------------------------------------
# LoRA
# ---------------------------------------------------------------------------

def test_effective_weight_zero_a_is_bitwise_identity():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
    adapter = LoRAAdapter(
        a=Tensor(np.zeros((6, 2), np.float32)),
        b=Tensor(rng.standard_normal((2, 4)).astype(np.float32)),
    )
    out = effective_weight(w, adapter)
    assert np.array_equal(out.data, w.data)


def test_effective_weight_zero_base():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((6, 2)).astype(np.float32))
    b = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    out = effective_weight(Tensor(np.zeros((6, 4), np.float32)), LoRAAdapter(a, b))
    np.testing.assert_allclose(out.data, a.data @ b.data, atol=1e-6)


def test_effective_weight_shape_errors():
    w = Tensor(np.zeros((6, 4), np.float32))
    with pytest.raises(tz.ShapeError):
        effective_weight(w, LoRAAdapter(Tensor(np.zeros((5, 2), np.float32)), Tensor(np.zeros((2, 4), np.float32))))
    with pytest.raises(tz.ShapeError):
        effective_weight(w, LoRAAdapter(Tensor(np.zeros((6, 2), np.float32)), Tensor(np.zeros((3, 4), np.float32))))


def test_trainable_parameter_ratio():
    # r (d + k) / (d k) with r=8, d=k=64: 1024 adapter params vs 4096 full
    cfg = ModelConfig(embed_dim=64, latent_dim=64, lora_rank=8, heads=4)
    model = HazardModel(cfg, seed=0)
    model.enable_lora(seed=0)
    adapter = model.params.adapters["proj.img.w"]
    base = model.params.tensors["proj.img.w"]
    assert adapter.delta_params() == 1024
    assert base.size == 4096
    assert adapter.delta_params() / base.size == pytest.approx(8 * (64 + 64) / (64 * 64))


def test_zero_adapter_outputs_bit_identical():
    base = HazardModel(TINY, seed=7)
    adapted = HazardModel(TINY, seed=7)
    adapted.enable_lora(seed=11)  # b = 0 at init, so delta is exactly zero
    img = rand_image(3)
    f_base, a_base = base.encode_image(img)
    f_ad, a_ad = adapted.encode_image(img)
    assert np.array_equal(f_base.data, f_ad.data)
    assert np.array_equal(a_base.grid.data, a_ad.grid.data)
    logits_base = base.decode_caption_teacher_forced(
        base.fuse(base.project(f_base, "image"), base.project(base.encode_text([1, 3, 2]), "text")), [4, 2]
    )
    logits_ad = adapted.decode_caption_teacher_forced(
        adapted.fuse(adapted.project(f_ad, "image"), adapted.project(adapted.encode_text([1, 3, 2]), "text")), [4, 2]
    )
    assert np.array_equal(logits_base.data, logits_ad.data)

    # forcing a = 0 with a trained-looking b keeps the identity too
    for adapter in adapted.params.adapters.values():
        adapter.a.data[:] = 0.0
        adapter.b.data[:] = np.random.default_rng(0).standard_normal(adapter.b.shape).astype(np.float32)
    f_ad2, _ = adapted.encode_image(img)
    assert np.array_equal(f_base.data, f_ad2.data)


def test_lora_trainable_set_is_adapters_plus_projector_biases():
    model = HazardModel(TINY, seed=0)
    model.enable_lora(seed=0)
    trainable = model.trainable_tensors()
    for name in trainable:
        assert name.startswith("lora.") or (name.startswith("proj.") and ".b" in name)
    assert "proj.img.b" in trainable
    # frozen tensors no longer require grad
    assert not model.params.tensors["vis.patch_embed.w"].requires_grad
    assert model.params.tensors["lora.proj.img.w.a"].requires_grad
    with pytest.raises(RuntimeError):
        model.enable_lora(seed=1)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _per_head_attention(model, x, kv, prefix, causal):
    """Reference: attention as a Python loop over heads, each head's
    columns sliced out and the head outputs and maps concatenated."""
    p = model.params.tensors
    h = model.config.heads
    dh = model.config.embed_dim // h
    kv = x if kv is None else kv
    q = tz.add(tz.matmul(x, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
    k = tz.add(tz.matmul(kv, p[f"{prefix}.wk"]), p[f"{prefix}.bk"])
    v = tz.add(tz.matmul(kv, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
    n_q, n_kv = q.shape[0], k.shape[0]
    mask = Tensor(np.triu(np.full((n_q, n_kv), MASK_VALUE, np.float32), k=1))
    heads, maps = [], []
    for i in range(h):
        qh, kh, vh = (tz.slice_axis(t, 1, i * dh, (i + 1) * dh) for t in (q, k, v))
        scores = tz.scale(tz.matmul(qh, tz.permute(kh, (1, 0))), 1.0 / math.sqrt(dh))
        if causal:
            scores = tz.add(scores, mask)
        attn = tz.softmax(scores)
        maps.append(tz.reshape(attn, (1, n_q, n_kv)))
        heads.append(tz.matmul(attn, vh))
    out = tz.add(tz.matmul(tz.concat(heads, axis=1), p[f"{prefix}.wo"]), p[f"{prefix}.bo"])
    return out, tz.concat(maps, axis=0)


@pytest.mark.parametrize(
    "prefix, causal, cross",
    [("vis.0.attn", False, False), ("dec.0.self", True, False), ("dec.0.cross", False, True)],
)
def test_attention_matches_per_head_loop_bitwise(prefix, causal, cross):
    # default geometry: at smaller widths and lengths a gradient that
    # reaches a reduction in another memory layout can still sum to the
    # same bits, and this test would miss it
    cfg = ModelConfig()
    model = HazardModel(cfg, seed=1)
    rng = np.random.default_rng(7)
    n_q, n_kv = cfg.n_patches, (cfg.n_patches + 5 if cross else cfg.n_patches)

    def rand(*shape, grad=False):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=grad)

    x = rand(n_q, cfg.embed_dim, grad=True)
    kv = rand(n_kv, cfg.latent_dim, grad=True) if cross else None
    w_out, w_map = rand(n_q, cfg.embed_dim), rand(cfg.heads, n_q, n_kv)
    leaves = {n: t for n, t in model.params.tensors.items() if n.startswith(f"{prefix}.")}
    leaves["x"] = x
    if cross:
        leaves["kv"] = kv

    results = []
    for attention in (model._attention, lambda *a: _per_head_attention(model, *a)):
        with tz.Tape() as tape:
            out, maps = attention(x, kv, prefix, causal)
            loss = tz.add(tz.tsum(tz.mul(out, w_out)), tz.tsum(tz.mul(maps, w_map)))
        tape.backward(loss)
        results.append((out.data, maps.data, {n: t.grad for n, t in leaves.items()}))
        for t in leaves.values():
            t.zero_grad()

    (out, maps, grads), (ref_out, ref_maps, ref_grads) = results
    assert maps.shape == (cfg.heads, n_q, n_kv)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(maps, ref_maps)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)


def test_training_sample_tape_pin():
    # attention batches its heads: the remaining slices are the text and
    # decoder positional rows, the remaining concat is fuse. Every linear
    # layer is one node, and so is each head split, head merge and
    # attention core: the matmuls left are the 8 products with the values,
    # the softmax left is soft_argmax's. The scales are soft_argmax's 1/tau
    # and the two attention-pool means; the one-scene coordinate loss has none
    samples = synth_generate(1, SynthConfig(), seed=0)
    vocab = build_vocab([s.caption for s in samples] + [HAZARD_PROMPT])
    model = HazardModel(ModelConfig(vocab_size=len(vocab)), seed=0)
    prompt_ids = tokenize(HAZARD_PROMPT, vocab)
    with tz.Tape() as tape:
        sample_losses(model, samples[0], prompt_ids, vocab, TrainConfig().soft_argmax_tau)
    ops = Counter(node.op for node in tape.nodes)
    assert len(tape.nodes) == 161
    assert (ops["matmul"], ops["slice_axis"], ops["softmax"], ops["concat"]) == (8, 2, 1, 1)
    assert (ops["linear"], ops["split_heads"], ops["merge_heads"], ops["attention_weights"]) == (48, 24, 8, 8)
    assert (ops["add"], ops["reshape"], ops["permute"], ops["scale"]) == (18, 2, 0, 3)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def _fused(model, seed=0):
    feats, _ = model.encode_image(rand_image(seed, model.config))
    text = model.encode_text([1, 3, 2])
    return model.fuse(model.project(feats, "image"), model.project(text, "text"))


def test_decoder_logits_shape(tiny_model):
    fused = _fused(tiny_model)
    logits = tiny_model.decode_caption_teacher_forced(fused, [4, 5, 6, 2])
    assert logits.shape == (4, TINY.vocab_size)


def test_decoder_causality(tiny_model):
    fused = _fused(tiny_model)
    targets = [4, 5, 6, 7, 2]
    base = tiny_model.decode_caption_teacher_forced(fused, targets).data
    for t in range(len(targets)):
        mutated = list(targets)
        mutated[t] = (mutated[t] + 1) % TINY.vocab_size
        out = tiny_model.decode_caption_teacher_forced(fused, mutated).data
        np.testing.assert_array_equal(out[: t + 1], base[: t + 1])


def test_decoder_rejects_overlong_targets(tiny_model):
    fused = _fused(tiny_model)
    with pytest.raises(tz.ShapeError):
        tiny_model.decode_caption_teacher_forced(fused, [1] * (TINY.max_caption_len + 1))


def test_decoder_gradient_wrt_params(tiny_model):
    targets = [4, 5, 2]
    w_out = tiny_model.params.tensors["dec.out.w"]

    def f(t):
        original = tiny_model.params.tensors["dec.out.w"]
        tiny_model.params.tensors["dec.out.w"] = t
        try:
            fused = _fused(tiny_model)
            logits = tiny_model.decode_caption_teacher_forced(fused, targets)
            return tz.cross_entropy(logits, targets)
        finally:
            tiny_model.params.tensors["dec.out.w"] = original

    assert grad_check(f, w_out) < 1e-3


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_nucleus_hand_case():
    # temperature 0.95 then top_p 0.9 keeps the first three of
    # [0.5, 0.3, 0.15, 0.05]
    logits = np.log(np.array([[0.5, 0.3, 0.15, 0.05]]))
    keep, probs = nucleus(logits, top_p=0.9, temperature=0.95)
    assert keep[0].tolist() == [0, 1, 2]
    assert probs[0].sum() == pytest.approx(1.0)


def test_nucleus_top_p_zero_is_greedy():
    logits = np.array([[0.1, 2.0, 0.3]])
    keep, probs = nucleus(logits, top_p=0.0, temperature=1.0)
    assert keep[0].tolist() == [1]
    assert probs[0].tolist() == [1.0]


def test_nucleus_top_p_one_keeps_everything():
    logits = np.array([[0.5, 0.25, 0.25]])
    keep, _ = nucleus(logits, top_p=1.0, temperature=1.0)
    assert len(keep[0]) == 3


def reference_nucleus(logits, top_p, temperature):
    """nucleus as it was written for one row at a time: the oracle the
    row-wise version must match bit for bit."""
    z = logits / temperature
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    cut = int(np.searchsorted(csum, top_p, side="left")) + 1
    cut = min(max(cut, 1), len(order))
    keep = order[:cut]
    kept = p[keep]
    return keep, kept / kept.sum()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 19),
    vocab=st.integers(1, 69),
    spread=st.sampled_from([0.05, 1.0, 8.0]),
    ties=st.booleans(),
    top_p=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    temperature=st.sampled_from([0.5, 0.95, 1.0]),
)
def test_rowwise_nucleus_matches_one_row_at_a_time(seed, rows, vocab, spread, ties, top_p, temperature):
    logits = np.random.default_rng(seed).normal(0.0, spread, (rows, vocab))
    if ties:
        logits = np.round(logits, 0 if spread > 1 else 1)
    keep, probs = nucleus(logits, top_p, temperature)
    assert len(keep) == len(probs) == rows
    for row, kept, p in zip(logits, keep, probs):
        want_keep, want_p = reference_nucleus(row, top_p, temperature)
        (one_keep,), (one_p,) = nucleus(row[None], top_p, temperature)
        for got_keep, got_p in ((kept, p), (one_keep, one_p)):
            assert got_keep.tolist() == want_keep.tolist()
            assert got_p.dtype == want_p.dtype and got_p.tobytes() == want_p.tobytes()


def test_nucleus_greedy_takes_the_first_maximum_of_the_probabilities():
    # exp rounds the gap of 1e-17 away: both tokens get the same p, so greedy
    # takes token 0 although token 1 has the larger logit
    logits = np.array([0.0, 1e-17])
    assert logits.argmax() == 1
    keep, probs = nucleus(logits[None], top_p=0.0, temperature=1.0)
    assert keep[0].tolist() == [0] and probs[0].tolist() == [1.0]
    keep, _ = nucleus(np.stack([logits, logits[::-1]]), top_p=0.0, temperature=1.0)
    assert [k.tolist() for k in keep] == [[0], [0]]


def test_generate_seeded_determinism(tiny_model):
    fused = _fused(tiny_model)
    a = tiny_model.generate(fused, max_len=6, top_p=0.9, temperature=0.95, seed=5)
    b = tiny_model.generate(fused, max_len=6, top_p=0.9, temperature=0.95, seed=5)
    assert a == b


def test_generate_greedy_matches_argmax_chain(tiny_model):
    from hazardvlm.model import END_ID, START_ID

    fused = _fused(tiny_model)
    out = tiny_model.generate(fused, max_len=6, top_p=0.0, temperature=1.0, seed=0)
    ids = [START_ID]
    expected = []
    for _ in range(6):
        logits = tiny_model._decoder_states(fused, ids).data[-1]
        tok = int(np.argmax(logits))
        if tok == END_ID:
            break
        expected.append(tok)
        ids.append(tok)
    assert out == expected


def test_generate_validates_arguments(tiny_model):
    fused = _fused(tiny_model)
    with pytest.raises(ValueError):
        tiny_model.generate(fused, max_len=4, top_p=1.5, temperature=0.95)
    for temperature in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            tiny_model.generate(fused, max_len=4, top_p=0.9, temperature=temperature)
    with pytest.raises(ValueError):
        tiny_model.generate(fused, max_len=TINY.max_caption_len + 1, top_p=0.9, temperature=0.95)


def test_generate_rejects_a_temperature_too_small_for_the_logits(tiny_model):
    fused = _fused(tiny_model)
    # positive and finite, but logits / temperature overflows, and its
    # softmax would be NaN
    for top_p in (0.0, 0.9):
        with pytest.raises(SamplingError, match="too small"):
            tiny_model.generate(fused, max_len=4, top_p=top_p, temperature=1e-320)
    assert not issubclass(SamplingError, ValueError)


def test_probabilities_reject_quotients_that_are_not_finite():
    # an overflow at either end of a row, or a NaN
    for rows in ([[1.0, -1.0]], [[0.0, -1.0]], [[-1.0, -2.0]], [[0.5, 0.2], [-3.0, -4.0]]):
        with pytest.raises(SamplingError):
            probabilities(np.array(rows), 1e-320)
    with pytest.raises(SamplingError):
        probabilities(np.array([[0.0, np.nan]]), 1.0)
    # large but finite quotients
    assert probabilities(np.array([[0.0, -1.0]]), 1e-300).tolist() == [[1.0, 0.0]]


class _ScriptedDecoder:
    """Stands in for ``_decoder_states``: random float32 logits for each
    live row, recorded per step. In every other row, two tokens share the
    top logit up to 1e-17, which exp rounds away, so their probabilities
    tie although the later token's logit is larger."""

    def __init__(self, vocab, seed):
        self.vocab = vocab
        self.rng = np.random.default_rng(seed)
        self.steps = []

    def __call__(self, fused, tokens, cache):
        rows = len(tokens)
        logits = self.rng.normal(0.0, 2.0, (rows, self.vocab))
        for r in range(0, rows, 2):
            first, second = np.sort(self.rng.choice(self.vocab, 2, replace=False))
            logits[r] = -np.abs(logits[r]) - 1.0
            logits[r, first], logits[r, second] = 0.0, 1e-17
        logits = logits.astype(np.float32)
        self.steps.append(logits)
        return Tensor(logits[:, None, :])


@pytest.mark.parametrize("temperature", [1.0, 0.5, 0.95])
@pytest.mark.parametrize("seed", range(4))
def test_greedy_generate_picks_the_first_token_nucleus_keeps(tiny_model, monkeypatch, seed, temperature):
    scenes = 7
    fused = Tensor(np.stack([_fused(tiny_model, seed=i).data for i in range(scenes)]))
    decoder = _ScriptedDecoder(TINY.vocab_size, seed)
    monkeypatch.setattr(tiny_model, "_decoder_states", decoder)
    ids = tiny_model.generate(fused, TINY.max_caption_len, top_p=0.0, temperature=temperature)
    # replay the recorded steps, each token being what nucleus keeps at top_p 0
    from hazardvlm.model import END_ID

    want = [[] for _ in range(scenes)]
    live = np.arange(scenes)
    ties = 0
    for logits in decoder.steps:
        assert len(logits) == len(live)
        keep, _ = nucleus(logits.astype(np.float64), 0.0, temperature)
        picks = np.array([k[0] for k in keep])
        ties += int((picks != logits.argmax(axis=1)).sum())
        for scene, token in zip(live, picks):
            if token != END_ID:
                want[scene].append(int(token))
        live = live[picks != END_ID]
    assert ids == want
    assert ties  # the rows where the first maximum of the logits differs


def test_greedy_decoding_builds_no_rng_and_sampling_one_per_scene(tiny_model, monkeypatch):
    from hazardvlm import model as model_module

    fused = Tensor(np.stack([_fused(tiny_model, seed=i).data for i in range(3)]))
    default_rng = np.random.default_rng
    seeds = []

    def refusing_rng(*args, **kwargs):
        raise AssertionError("greedy decoding built an rng")

    def counting_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    with monkeypatch.context() as m:
        m.setattr(model_module.np.random, "default_rng", refusing_rng)
        greedy = tiny_model.generate(fused, TINY.max_caption_len, top_p=0.0, temperature=0.95)
    assert greedy == tiny_model.generate(fused, TINY.max_caption_len, top_p=0.0, temperature=0.95)
    with monkeypatch.context() as m:
        m.setattr(model_module.np.random, "default_rng", counting_rng)
        sampled = tiny_model.generate(fused, TINY.max_caption_len, top_p=0.9, temperature=0.95, seed=11)
    assert seeds == [11, 11, 11]
    for i in range(3):
        alone = tiny_model.generate(Tensor(fused.data[i]), TINY.max_caption_len, top_p=0.9, temperature=0.95, seed=11)
        assert sampled[i] == alone


def _full_recompute_generate(model, fused, max_len, top_p, temperature, seed):
    """Reference: the decoder re-run on the whole prefix for every token.
    Returns (tokens, each step's last-position logits)."""
    from hazardvlm.model import END_ID, START_ID

    rng = np.random.default_rng(seed)
    ids, out, steps = [START_ID], [], []
    for _ in range(max_len):
        logits = model._decoder_states(fused, ids).data[-1].astype(np.float64)
        steps.append(logits)
        (keep,), (probs,) = nucleus(logits[None], top_p, temperature)
        token = int(rng.choice(keep, p=probs))
        if token == END_ID:
            break
        out.append(token)
        ids.append(token)
    return out, steps


@pytest.fixture(scope="module", params=["base", "lora"])
def default_model(request):
    model = HazardModel(ModelConfig(), seed=2)
    if request.param == "lora":
        model.enable_lora(seed=2)
        rng = np.random.default_rng(5)
        for adapter in model.params.adapters.values():
            adapter.b.data = rng.normal(0.0, 0.5, adapter.b.shape).astype(np.float32)
    return model


@pytest.mark.parametrize(
    "top_p, temperature, seed",
    [(0.0, 1.0, 0), (0.9, 0.95, 0), (0.9, 0.95, 7), (1.0, 0.95, 3)],
    ids=["greedy", "nucleus_seed0", "nucleus_seed7", "top_p_one_seed3"],
)
def test_cached_generate_matches_full_recompute(default_model, monkeypatch, top_p, temperature, seed):
    model = default_model
    cfg = model.config
    steps, positions = [], []
    take_rows = tz.take_rows

    def counting_take_rows(table, indices):
        positions.append(len(indices))
        return take_rows(table, indices)

    decoder_states = model._decoder_states

    def recording_decoder_states(*args):
        logits = decoder_states(*args)
        steps.append(logits.data[-1].astype(np.float64))
        return logits

    for scene in range(4):
        fused = _fused(model, seed=scene)
        ref_ids, ref_steps = _full_recompute_generate(model, fused, cfg.max_caption_len, top_p, temperature, seed)
        steps.clear()
        positions.clear()
        with monkeypatch.context() as m:
            m.setattr(tz, "take_rows", counting_take_rows)
            m.setattr(model, "_decoder_states", recording_decoder_states)
            ids = model.generate(fused, cfg.max_caption_len, top_p=top_p, temperature=temperature, seed=seed)
        assert ids == ref_ids
        # one decoder step per emitted token (and the end token), each on
        # the newest position only
        assert positions == [1] * len(ref_steps)
        assert len(steps) == len(ref_steps)
        np.testing.assert_allclose(steps, ref_steps, rtol=0, atol=1e-5)


def test_merged_view_is_bit_identical_and_leaves_the_model_alone(default_model):
    model = default_model
    view = model.merged()
    if not model.lora_enabled:
        assert view is model
        return
    image = rand_image(0, model.config)
    (feats, amap), (view_feats, view_amap) = model.encode_image(image), view.encode_image(image)
    np.testing.assert_array_equal(view_feats.data, feats.data)
    np.testing.assert_array_equal(view_amap.grid.data, amap.grid.data)
    assert not view.params.adapters
    assert model.lora_enabled and model.params.adapters
    # built inside a tape, W + A.B stays on it, with the same bits
    with tz.Tape() as tape:
        recorded = model.merged()
    adapters = len(model.params.adapters)
    assert Counter(node.op for node in tape.nodes) == Counter(add=adapters, matmul=adapters)
    for target in model.params.adapters:
        assert recorded.params.tensors[target].requires_grad
        assert recorded.params.tensors[target].data.tobytes() == view.params.tensors[target].data.tobytes()


# ---------------------------------------------------------------------------
# batched inference
# ---------------------------------------------------------------------------

def _images(cfg, scenes):
    return Tensor(np.stack([rand_image(seed, cfg).data for seed in range(scenes)]))


def test_batched_encode_image_matches_single_calls(default_model):
    # features, maps, points and fused latents of a stack are bitwise
    # those of one call per scene
    model = default_model
    cfg = model.config
    images = _images(cfg, 5)
    text = model.project(model.encode_text([1, 3, 2]), "text")
    feats, amap = model.encode_image(images)
    fused = model.fuse(model.project(feats, "image"), Tensor(np.broadcast_to(text.data, (5, *text.shape))))
    assert feats.shape == (5, cfg.n_patches, cfg.embed_dim)
    assert amap.grid.shape == (5, cfg.grid_side, cfg.grid_side)
    cells = hard_argmax(amap)
    for i in range(5):
        one_feats, one_amap = model.encode_image(Tensor(images.data[i]))
        np.testing.assert_array_equal(feats.data[i], one_feats.data)
        np.testing.assert_array_equal(amap.grid.data[i], one_amap.grid.data)
        assert cells[i] == hard_argmax(one_amap)
        one_fused = model.fuse(model.project(one_feats, "image"), text)
        np.testing.assert_array_equal(fused.data[i], one_fused.data)
