"""Toy hazard-tracking vision-language network.

A patch-based vision encoder that exposes its last layer's attention map,
a text encoder, per-modality projectors into a shared latent space, and a
small causal decoder that cross-attends to the fused latent sequence.
Low-rank adapters can be attached to the attention Q/V weights, the final
decoder feed-forward output weight, and the projector weights; with
adapters enabled the base weights stay frozen.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .data import END_ID, START_ID, check_sizes
from .localization import AttentionMap, aggregate_heads
from .tensor import Tensor

INIT_STD = 0.02
MASK_VALUE = -1e9
# cap on a config's base parameters: 64 MiB of float32 per copy, of which
# training holds about five (weights, gradients, moments, scratch)
MAX_PARAMETERS = 2**24


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    channels: int = 1
    patch_size: int = 8
    embed_dim: int = 32
    heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    vocab_size: int = 32
    latent_dim: int = 16
    lora_rank: int = 4
    max_caption_len: int = 16
    projector: str = "linear"  # "linear" | "mlp"
    ffn_mult: int = 4

    def __post_init__(self):
        check_sizes(self)
        if self.image_size % self.patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must be divisible by heads")
        if not 1 <= self.lora_rank <= min(self.embed_dim, self.latent_dim):
            raise ValueError("need 1 <= lora_rank <= min(embed_dim, latent_dim)")
        if self.projector not in ("linear", "mlp"):
            raise ValueError(f"unknown projector kind {self.projector!r}")
        if parameter_count(self) > MAX_PARAMETERS:
            raise ValueError(f"the model would have more than MAX_PARAMETERS = {MAX_PARAMETERS} base parameters")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side**2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size**2


@dataclass
class LoRAAdapter:
    """Low-rank factors adapting one frozen base weight: delta = a @ b."""

    a: Tensor  # d_in x r
    b: Tensor  # r x d_out

    def delta_params(self) -> int:
        return self.a.size + self.b.size


def effective_weight(w: Tensor, adapter: LoRAAdapter) -> Tensor:
    """w + a @ b, leaving w untouched."""
    d_in, d_out = w.shape
    if adapter.a.shape[0] != d_in or adapter.b.shape[1] != d_out:
        raise tz.ShapeError(
            f"adapter ({adapter.a.shape} x {adapter.b.shape}) does not fit weight {w.shape}"
        )
    if adapter.a.shape[1] != adapter.b.shape[0]:
        raise tz.ShapeError("adapter factors have mismatched rank")
    return tz.add(w, tz.matmul(adapter.a, adapter.b))


def patchify(image: Tensor, patch_size: int) -> Tensor:
    """C x S x S image to (S/p)^2 x (C p^2) patch rows, or a B x C x S x S
    stack to B such row blocks.

    Patches are ordered row-major over the grid (top-left first, rows
    before columns); each output row is one flattened patch.
    """
    if image.data.ndim not in (3, 4):
        raise tz.ShapeError(f"expected C x S x S image or a stack of them, got shape {image.shape}")
    *lead, c, s, s2 = image.shape
    if s != s2:
        raise tz.ShapeError(f"image must be square, got {image.shape}")
    if s % patch_size:
        raise tz.ShapeError(f"size {s} not divisible by patch size {patch_size}")
    g = s // patch_size
    b = len(lead)
    x = tz.reshape(image, (*lead, c, g, patch_size, g, patch_size))
    x = tz.permute(x, (*range(b), *(b + a for a in (1, 3, 0, 2, 4))))  # gy, gx, c, py, px
    return tz.reshape(x, (*lead, g * g, c * patch_size * patch_size))


@dataclass
class ModelParams:
    """Named tensors and adapters keyed by target name."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    adapters: dict[str, LoRAAdapter] = field(default_factory=dict)


def lora_target_names(config: ModelConfig) -> list[str]:
    """Weights that receive adapters: attention Q/V everywhere, the last
    decoder feed-forward output weight, and the projector weight(s)."""
    names = []
    for i in range(config.encoder_layers):
        names += [f"vis.{i}.attn.wq", f"vis.{i}.attn.wv"]
        names += [f"txt.{i}.attn.wq", f"txt.{i}.attn.wv"]
    for i in range(config.decoder_layers):
        names += [f"dec.{i}.self.wq", f"dec.{i}.self.wv"]
        names += [f"dec.{i}.cross.wq", f"dec.{i}.cross.wv"]
    names.append(f"dec.{config.decoder_layers - 1}.ffn.w2")
    if config.projector == "linear":
        names += ["proj.img.w", "proj.txt.w"]
    else:
        names += ["proj.img.w2", "proj.txt.w2"]
    return names


class DecodeCache:
    """What an incremental decode keeps between steps, per decoder layer:
    the cross-attention keys and values of the fused latents, computed
    once, and the self-attention keys and values of the ``length``
    positions decoded so far. Keys are ... x h x dh x n and values
    ... x h x n x dh; with a leading batch axis, each entry is one scene."""

    def __init__(self, cross: list[tuple[Tensor, Tensor]]):
        self.cross = cross
        self.own: list[tuple[Tensor, Tensor] | None] = [None] * len(cross)
        self.length = 0

    def extend(self, layer: int, keys: Tensor, values: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions' self-attention keys and values to layer's;
        return all of them."""
        if self.own[layer] is not None:
            cached_keys, cached_values = self.own[layer]
            keys = tz.concat([cached_keys, keys], axis=-1)
            values = tz.concat([cached_values, values], axis=-2)
        self.own[layer] = (keys, values)
        return keys, values

    def keep(self, live: np.ndarray) -> None:
        """Keep only the scenes where the boolean mask ``live`` is set, by
        plain indexing: the cache is inference state, never on a tape."""
        def pick(pair):
            return tuple(Tensor(t.data[live]) for t in pair)

        self.cross = [pick(pair) for pair in self.cross]
        self.own = [None if pair is None else pick(pair) for pair in self.own]


def _specs(config: ModelConfig, encoder_layers: int, decoder_layers: int):
    """(name, shape, initializer) of every base parameter of ``config``
    with these layer counts, one at a time, in the order the random init
    draws them."""
    d, k = config.embed_dim, config.latent_dim
    hidden = d * config.ffn_mult

    def linear(name, d_in, d_out, suffix=""):
        yield f"{name}.w{suffix}", (d_in, d_out), "normal"
        yield f"{name}.b{suffix}", (d_out,), "zeros"

    def ln(prefix):
        yield f"{prefix}.g", (d,), "ones"
        yield f"{prefix}.b", (d,), "zeros"

    def attn(prefix, kv_dim):
        for w, rows in (("q", d), ("k", kv_dim), ("v", kv_dim), ("o", d)):
            yield from linear(prefix, rows, d, w)

    def ffn(prefix):
        yield from linear(prefix, d, hidden, "1")
        yield from linear(prefix, hidden, d, "2")

    def encoder_block(prefix):
        yield from ln(f"{prefix}.ln1")
        yield from attn(f"{prefix}.attn", d)
        yield from ln(f"{prefix}.ln2")
        yield from ffn(f"{prefix}.ffn")

    yield from linear("vis.patch_embed", config.patch_dim, d)
    yield "vis.pos", (config.n_patches, d), "normal"
    for i in range(encoder_layers):
        yield from encoder_block(f"vis.{i}")

    yield "txt.embed", (config.vocab_size, d), "normal"
    yield "txt.pos", (config.max_caption_len, d), "normal"
    for i in range(encoder_layers):
        yield from encoder_block(f"txt.{i}")

    if config.projector == "linear":
        yield from linear("proj.img", d, k)
        yield from linear("proj.txt", d, k)
    else:
        for which in ("img", "txt"):
            yield from linear(f"proj.{which}", d, d, "1")
            yield from linear(f"proj.{which}", d, k, "2")

    yield "dec.embed", (config.vocab_size, d), "normal"
    yield "dec.pos", (config.max_caption_len, d), "normal"
    for i in range(decoder_layers):
        yield from ln(f"dec.{i}.ln1")
        yield from attn(f"dec.{i}.self", d)
        yield from ln(f"dec.{i}.ln2")
        yield from attn(f"dec.{i}.cross", k)
        yield from ln(f"dec.{i}.ln3")
        yield from ffn(f"dec.{i}.ffn")
    yield from ln("dec.ln_f")
    yield from linear("dec.out", d, config.vocab_size)


def parameter_count(config: ModelConfig) -> int:
    """The number of base parameters, with nothing allocated. Each kind of
    layer is counted once, as what one more of it adds, and multiplied by
    its count, so an absurd layer count costs no more than a small one."""
    def size(encoder_layers, decoder_layers):
        return sum(math.prod(shape) for _, shape, _ in _specs(config, encoder_layers, decoder_layers))

    rest = size(0, 0)
    return (rest + config.encoder_layers * (size(1, 0) - rest)
            + config.decoder_layers * (size(0, 1) - rest))


def parameter_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every base parameter's shape and initializer ("normal", "zeros" or
    "ones"), by name, in the order the random init draws them. Nothing is
    allocated, so the shapes of any valid config can be checked first."""
    specs = _specs(config, config.encoder_layers, config.decoder_layers)
    return {name: (shape, init) for name, shape, init in specs}


def holds_adapters(names) -> bool:
    """Whether the tensor names ``names`` include adapter factors
    (``lora.<target>.a`` or ``.b``)."""
    return any(name.startswith("lora.") for name in names)


def adapter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shapes of the adapter factors ``lora.<target>.a`` (d_in x r) and
    ``.b`` (r x d_out), by name, in the order ``enable_lora`` adds them."""
    specs = parameter_specs(config)
    r = config.lora_rank
    shapes = {}
    for target in lora_target_names(config):
        d_in, d_out = specs[target][0]
        shapes[f"lora.{target}.a"] = (d_in, r)
        shapes[f"lora.{target}.b"] = (r, d_out)
    return shapes


class HazardModel:
    """Parameters plus forward passes; single-threaded with its tape."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng((seed, 0x5EED))
        arrays = {}
        for name, (shape, init) in parameter_specs(config).items():
            if init == "normal":
                arrays[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
            else:
                arrays[name] = (np.zeros if init == "zeros" else np.ones)(shape, np.float32)
        self._hold(config, arrays)

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "HazardModel":
        """A model holding ``arrays``, drawing nothing: the base parameters
        ``parameter_specs(config)`` declares and, for an adapted model,
        every factor ``adapter_shapes(config)`` declares, with those shapes
        (the caller checks them). The model takes the arrays, not copies."""
        model = cls.__new__(cls)
        model._hold(config, {name: arrays[name] for name in parameter_specs(config)})
        if holds_adapters(arrays):
            model._attach_adapters({name: arrays[name] for name in adapter_shapes(config)})
        return model

    def _hold(self, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
        self.config = config
        self.params = ModelParams({n: Tensor(a, requires_grad=True) for n, a in arrays.items()})

    # -- LoRA --------------------------------------------------------------

    @property
    def lora_enabled(self) -> bool:
        """Whether adapters are attached (each use of a target adds A.B)."""
        return bool(self.params.adapters)

    def enable_lora(self, seed: int = 0) -> None:
        """Attach fresh adapters (``a`` drawn, ``b`` zero), freeze the base,
        and mark the fine-tune trainable set (adapter factors plus projector
        biases)."""
        if self.lora_enabled:
            raise RuntimeError("adapters already enabled")
        rng = np.random.default_rng((seed, 0x10BA))
        self._attach_adapters({
            name: rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
            if name.endswith(".a") else np.zeros(shape, np.float32)
            for name, shape in adapter_shapes(self.config).items()
        })

    def _attach_adapters(self, arrays: dict[str, np.ndarray]) -> None:
        for target in lora_target_names(self.config):
            a = Tensor(arrays[f"lora.{target}.a"], requires_grad=True)
            b = Tensor(arrays[f"lora.{target}.b"], requires_grad=True)
            self.params.adapters[target] = LoRAAdapter(a=a, b=b)
            self.params.tensors[f"lora.{target}.a"] = a
            self.params.tensors[f"lora.{target}.b"] = b
        # the base freezes: only the adapter factors and projector biases train
        for name, t in self.params.tensors.items():
            t.requires_grad = name.startswith("lora.") or (
                name.startswith("proj.") and name.rsplit(".", 1)[-1].startswith("b")
            )

    def merged(self) -> "HazardModel":
        """A view of this model with each adapter merged into its base weight
        once (W + A.B, the same bits as on every use). It shares every other
        tensor and has no adapters; rebuild it after the adapters change.
        Built inside a Tape, each merged weight keeps its graph back to its
        adapter, so a backward through the view reaches the adapters.
        Without adapters, the model itself."""
        if not self.lora_enabled:
            return self
        view = copy.copy(self)
        tensors = dict(self.params.tensors)
        for name, adapter in self.params.adapters.items():
            tensors[name] = effective_weight(tensors[name], adapter)
        view.params = ModelParams(tensors=tensors)
        return view

    def trainable_tensors(self) -> dict[str, Tensor]:
        """The tensors that require a gradient, sorted by name."""
        return {n: t for n, t in sorted(self.params.tensors.items()) if t.requires_grad}

    def frozen_tensors(self) -> dict[str, Tensor]:
        """The tensors that require no gradient, in parameter order."""
        return {n: t for n, t in self.params.tensors.items() if not t.requires_grad}

    # -- forward pieces ------------------------------------------------------

    def _w(self, name: str) -> Tensor:
        t = self.params.tensors[name]
        if name in self.params.adapters:
            return effective_weight(t, self.params.adapters[name])
        return t

    def _p(self, name: str) -> Tensor:
        return self.params.tensors[name]

    def _keys_values(self, kv: Tensor, prefix: str) -> tuple[Tensor, Tensor]:
        """Keys (... x h x dh x n) and values (... x h x n x dh) of kv's rows."""
        k = tz.linear(kv, self._w(f"{prefix}.wk"), self._p(f"{prefix}.bk"))
        v = tz.linear(kv, self._w(f"{prefix}.wv"), self._p(f"{prefix}.bv"))
        h = self.config.heads
        return tz.split_heads(k, h, keys=True), tz.split_heads(v, h)

    def _attention(self, x: Tensor, kv, prefix: str, causal: bool):
        """Multi-head scaled dot-product attention of x's rows (... x n_q x d)
        over kv: a row tensor, None for x itself, or a (keys, values) pair
        already in head layout. Returns (output, per-head maps as a
        ... x h x n_q x n_kv tensor)."""
        cfg = self.config
        h, d = cfg.heads, cfg.embed_dim
        q = tz.linear(x, self._w(f"{prefix}.wq"), self._p(f"{prefix}.bq"))
        kh, vh = kv if isinstance(kv, tuple) else self._keys_values(x if kv is None else kv, prefix)
        n_q, n_kv = x.data.shape[-2], kh.data.shape[-1]
        mask = None
        if causal and n_q > 1:
            # query i is position n_kv - n_q + i and sees keys up to it
            mask = np.triu(np.full((n_q, n_kv), MASK_VALUE, np.float32), k=1 + n_kv - n_q)
        # every head (and every scene) in one product
        attn = tz.attention_weights(tz.split_heads(q, h), kh, 1.0 / math.sqrt(d // h), mask)
        out = tz.merge_heads(tz.matmul(attn, vh))
        out = tz.linear(out, self._w(f"{prefix}.wo"), self._p(f"{prefix}.bo"))
        return out, attn

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        hmid = tz.gelu(tz.linear(x, self._w(f"{prefix}.w1"), self._p(f"{prefix}.b1")))
        return tz.linear(hmid, self._w(f"{prefix}.w2"), self._p(f"{prefix}.b2"))

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return tz.layer_norm(x, self._p(f"{prefix}.g"), self._p(f"{prefix}.b"))

    def _encoder_block(self, x: Tensor, prefix: str):
        attn_out, maps = self._attention(self._ln(x, f"{prefix}.ln1"), kv=None, prefix=f"{prefix}.attn", causal=False)
        x = tz.add(x, attn_out)
        x = tz.add(x, self._ffn(self._ln(x, f"{prefix}.ln2"), f"{prefix}.ffn"))
        return x, maps

    # -- public forward ------------------------------------------------------

    def encode_image(self, image: Tensor) -> tuple[Tensor, AttentionMap]:
        """Per-patch features and the aggregated last-layer attention map of
        a C x S x S image, or of each image of a B x C x S x S stack (then
        B x n x d features and a stack of B maps)."""
        cfg = self.config
        if image.data.ndim not in (3, 4) or image.shape[-3:] != (cfg.channels, cfg.image_size, cfg.image_size):
            raise tz.ShapeError(
                f"image shape {image.shape} != configured "
                f"({cfg.channels}, {cfg.image_size}, {cfg.image_size}), with or without a batch axis"
            )
        patches = patchify(image, cfg.patch_size)
        x = tz.linear(patches, self._w("vis.patch_embed.w"), self._p("vis.patch_embed.b"))
        x = tz.add(x, self._p("vis.pos"))
        maps = None
        for i in range(cfg.encoder_layers):
            x, maps = self._encoder_block(x, f"vis.{i}")
        amap = aggregate_heads(maps, grid_shape=(cfg.grid_side, cfg.grid_side))
        return x, amap

    def encode_text(self, tokens) -> Tensor:
        cfg = self.config
        ids = list(tokens)
        if not ids:
            raise tz.ShapeError("encode_text requires at least one token")
        if len(ids) > cfg.max_caption_len:
            raise tz.ShapeError(f"{len(ids)} tokens exceed max length {cfg.max_caption_len}")
        x = tz.take_rows(self._p("txt.embed"), ids)
        x = tz.add(x, tz.slice_axis(self._p("txt.pos"), 0, 0, len(ids)))
        for i in range(cfg.encoder_layers):
            x, _ = self._encoder_block(x, f"txt.{i}")
        return x

    def project(self, features: Tensor, which: str) -> Tensor:
        """Map encoder features (... x n x d) into the shared latent space
        (... x n x k)."""
        if which not in ("image", "text"):
            raise ValueError(f"unknown projector {which!r}")
        name = "proj.img" if which == "image" else "proj.txt"
        if features.shape[-1] != self.config.embed_dim:
            raise tz.ShapeError(f"expected width {self.config.embed_dim}, got {features.shape}")
        if self.config.projector == "linear":
            return tz.linear(features, self._w(f"{name}.w"), self._p(f"{name}.b"))
        mid = tz.gelu(tz.linear(features, self._w(f"{name}.w1"), self._p(f"{name}.b1")))
        return tz.linear(mid, self._w(f"{name}.w2"), self._p(f"{name}.b2"))

    def fuse(self, e_img: Tensor, e_text: Tensor) -> Tensor:
        """Sequence concatenation in latent space: image rows then text rows
        (each scene's, when both carry the same leading batch axis)."""
        k = self.config.latent_dim
        if e_img.shape[-1] != k or e_text.shape[-1] != k:
            raise tz.ShapeError(
                f"latent widths {e_img.shape[-1]}/{e_text.shape[-1]} != {k}"
            )
        if e_img.shape[:-2] != e_text.shape[:-2]:
            raise tz.ShapeError(f"batch axes differ: {e_img.shape} and {e_text.shape}")
        return tz.concat([e_img, e_text], axis=-2)

    def _decoder_states(self, fused: Tensor, input_ids, cache: DecodeCache | None = None) -> Tensor:
        """Logits for input_ids (... x T ids, one row of ids per scene of
        fused). Without a cache they are the whole sequence and attend to
        fused (teacher forcing); with one they are the next positions after
        the cached ones, fused's keys and values come from the cache, and
        the cache grows by them."""
        cfg = self.config
        start = 0 if cache is None else cache.length
        x = tz.take_rows(self._p("dec.embed"), input_ids)
        steps = x.data.shape[-2]
        x = tz.add(x, tz.slice_axis(self._p("dec.pos"), 0, start, start + steps))
        for i in range(cfg.decoder_layers):
            prefix = f"dec.{i}"
            h = self._ln(x, f"{prefix}.ln1")
            own = None if cache is None else cache.extend(i, *self._keys_values(h, f"{prefix}.self"))
            sa, _ = self._attention(h, own, f"{prefix}.self", True)
            x = tz.add(x, sa)
            memory = fused if cache is None else cache.cross[i]
            ca, _ = self._attention(self._ln(x, f"{prefix}.ln2"), memory, f"{prefix}.cross", False)
            x = tz.add(x, ca)
            x = tz.add(x, self._ffn(self._ln(x, f"{prefix}.ln3"), f"{prefix}.ffn"))
        if cache is not None:
            cache.length += steps
        x = self._ln(x, "dec.ln_f")
        return tz.linear(x, self._w("dec.out.w"), self._p("dec.out.b"))

    def decode_caption_teacher_forced(self, fused: Tensor, targets) -> Tensor:
        """Logits (T x V) for predicting `targets`; position t conditions on
        the start token and targets before t only."""
        targets = list(targets)
        if not targets:
            raise tz.ShapeError("empty target sequence")
        if len(targets) > self.config.max_caption_len:
            raise tz.ShapeError(
                f"target length {len(targets)} exceeds max {self.config.max_caption_len}"
            )
        input_ids = [START_ID] + targets[:-1]
        return self._decoder_states(fused, input_ids)

    def generate(
        self,
        fused: Tensor,
        max_len: int,
        top_p: float,
        temperature: float,
        seed: int = 0,
    ):
        """Nucleus sampling; stops at the end token or max_len tokens. Each
        step runs the decoder on the newest token only, over the keys and
        values cached by the steps before it.

        A rank-2 ``fused`` (n x k) gives one list of ids. A B x n x k stack
        decodes its B scenes together, one decoder step for all of them,
        and gives B lists: scene i draws from its own rng seeded ``seed``,
        so its ids are those of a call on ``fused[i]`` alone. A scene that
        emits the end token leaves the batch and its cache rows. Each step's
        logits must be finite (``tz.check_finite``), also when the per-op
        guard is off, and so must logits / temperature (``SamplingError``).
        top_p 0 decodes greedily: each scene takes the first maximum of its
        probabilities, and no rng is built."""
        check_sampling(top_p, temperature)
        if max_len > self.config.max_caption_len:
            raise ValueError(f"max_len {max_len} exceeds max caption length")
        lead = fused.shape[:-2]
        scenes = lead[0] if lead else 1
        greedy = top_p == 0.0
        rngs = None if greedy else [np.random.default_rng(seed) for _ in range(scenes)]
        out: list[list[int]] = [[] for _ in range(scenes)]
        layers = range(self.config.decoder_layers)
        cache = DecodeCache([self._keys_values(fused, f"dec.{i}.cross") for i in layers])
        # one newest token per live scene: ... x 1 ids
        step_shape = (-1, 1) if lead else (-1,)
        live = np.arange(scenes)
        tokens = np.full(scenes, START_ID).reshape(step_shape)
        for _ in range(max_len):
            logits = self._decoder_states(fused, tokens, cache).data[..., -1, :]
            tz.check_finite(logits, "decoder logits")
            rows = logits.reshape(len(live), -1).astype(np.float64)
            if greedy:
                # the token nucleus keeps at top_p 0: the first maximum of the
                # probabilities, which argmax finds without sorting
                drawn = probabilities(rows, temperature).argmax(axis=1)
            else:
                keep, probs = nucleus(rows, top_p, temperature)
                drawn = np.array([rngs[s].choice(k, p=q) for s, k, q in zip(live, keep, probs)])
            going = drawn != END_ID
            for scene, token in zip(live[going], drawn[going]):
                out[scene].append(int(token))
            live, tokens = live[going], drawn[going].reshape(step_shape)
            if not live.size:
                break
            if not going.all():
                cache.keep(going)
        return out if lead else out[0]


class SamplingError(Exception):
    """The logits divided by the temperature are not finite: the
    temperature is too small for them. It is the caller's setting that is
    at fault, not the model."""


def check_sampling(top_p: float, temperature: float) -> None:
    """Raise ValueError unless top_p is in [0, 1] and temperature is
    positive and finite."""
    if not 0.0 <= top_p <= 1.0:
        raise ValueError(f"top_p must be in [0, 1], got {top_p}")
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def probabilities(rows: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of each row of the R x V float64 logits ``rows`` divided by
    ``temperature``: the probabilities ``nucleus`` ranks. SamplingError
    when a quotient is not finite, as a temperature too small for the
    logits makes it; the softmax would be NaN."""
    # every quotient lies between those of the extremes, so checking these
    # two as Python floats (NaN fails too) covers all, before numpy divides
    # and warns of the overflow
    if not (-math.inf < float(rows.min()) / temperature and float(rows.max()) / temperature < math.inf):
        raise SamplingError(f"temperature {temperature} is too small: logits / temperature is not finite")
    z = rows / temperature
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


def nucleus(rows: np.ndarray, top_p: float, temperature: float):
    """Smallest probability-sorted prefix with mass >= top_p, renormalized,
    of each row of an R x V stack of logits, with one softmax, one stable
    sort and one cumulative sum over all the rows.

    Returns (kept token indices, their probabilities): two lists of R
    arrays, one per row. At least one token is always kept, so top_p -> 0
    degenerates to greedy: the first maximum of the probabilities, which
    can differ from the first maximum of the logits when exp rounds two of
    them alike. Raises SamplingError when logits / temperature is not
    finite.
    """
    p = probabilities(rows, temperature)
    order = np.argsort(-p, axis=1, kind="stable")
    ranked = np.take_along_axis(p, order, axis=1)
    # the cumulative sum never falls, so counting the entries below top_p
    # finds its first entry >= top_p
    cut = np.clip((np.cumsum(ranked, axis=1) < top_p).sum(axis=1) + 1, 1, p.shape[1])
    keep = [row[:c] for row, c in zip(order, cut)]
    probs = [row[:c] / row[:c].sum() for row, c in zip(ranked, cut)]
    return keep, probs
