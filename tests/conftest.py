"""Shared helpers: the differentiable-op battery used by the tensor tests
and the acceptance suite, per-tensor reference versions of backward,
gradient accumulation, clipping and AdamW that the flat, whole-model
versions in the library must match bit for bit, and checkpoint writers
for tests that corrupt a payload on purpose."""

import math
import struct
import zlib

import numpy as np

from hazardvlm import tensor as T
from hazardvlm.tensor import Tensor
from hazardvlm.training import MAGIC, VERSION


# magic, then version, crc32 and length; the payload follows
CHECKPOINT_HEADER = len(MAGIC) + struct.calcsize("<IIQ")


def sealed_checkpoint(payload: bytes, version: int = VERSION) -> bytes:
    """A checkpoint file around ``payload`` whose checksum and length
    fields match it, so the reader goes on to parse the payload."""
    return MAGIC + struct.pack("<IIQ", version, zlib.crc32(payload), len(payload)) + payload


def with_repeated_last_tensor(blob: bytes, value: float) -> bytes:
    """``blob``'s checkpoint, resealed with its last tensor stored once
    more after it, every element ``value``."""
    payload = blob[CHECKPOINT_HEADER:]
    count_at = 4 + struct.unpack_from("<I", payload)[0]  # after the config
    (count,) = struct.unpack_from("<I", payload, count_at)
    pos = count_at + 4
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack_from("<I", payload, pos)
        (rank,) = struct.unpack_from("<I", payload, pos + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}Q", payload, pos + 8 + name_len)
        data_at = pos + 8 + name_len + 8 * rank
        pos = data_at + 4 * math.prod(dims)
    repeat = payload[start:data_at] + np.full(dims, value, "<f4").tobytes()
    counted = payload[:count_at] + struct.pack("<I", count + 1) + payload[count_at + 4 : pos]
    return sealed_checkpoint(counted + repeat + payload[pos:])


def away_from_zero(rng, *shape):
    return np.sign(rng.standard_normal(shape)) * (0.5 + np.abs(rng.standard_normal(shape)))


def op_grad_cases(rng):
    """(name, input tensor, scalar-valued function) for every differentiable op."""
    a34 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b42 = Tensor(rng.standard_normal((4, 2)))
    bias = Tensor(rng.standard_normal(4))
    other = Tensor(rng.standard_normal((3, 4)))
    # denominators kept away from zero so central differences stay sane
    denom = Tensor(away_from_zero(rng, 3, 4))
    denom_var = Tensor(away_from_zero(rng, 3, 4), requires_grad=True)
    positive = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.1, requires_grad=True)
    gain = Tensor(rng.standard_normal(4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    w3 = Tensor(rng.standard_normal(3))
    w26 = Tensor(rng.standard_normal((2, 6)))
    w232 = Tensor(rng.standard_normal((2, 3, 2)))
    a234 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    b242 = Tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
    w34 = Tensor(rng.standard_normal((3, 4)))
    w32 = Tensor(rng.standard_normal((3, 2)))
    w64 = Tensor(rng.standard_normal((6, 4)))
    ones34 = Tensor(np.ones((3, 4)))
    # a stack times one shared matrix, and a rank-4 stack (batch x heads)
    shared42 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    a2223 = Tensor(rng.standard_normal((2, 2, 2, 3)), requires_grad=True)
    b2232 = Tensor(rng.standard_normal((2, 2, 3, 2)))
    w2222 = Tensor(rng.standard_normal((2, 2, 2, 2)))
    # the fused ops: a linear layer's weight and bias; the attention core's
    # queries (heads x n_q x dh, with a batch axis in front for rank 4),
    # keys (... x dh x n_kv), a causal mask and the weights of its output;
    # rows and heads for the head split and merge
    lin_w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    lin_b = Tensor(rng.standard_normal(2), requires_grad=True)
    q222 = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
    k223 = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
    q2222 = Tensor(rng.standard_normal((2, 2, 2, 2)), requires_grad=True)
    k2223 = Tensor(rng.standard_normal((2, 2, 2, 3)), requires_grad=True)
    causal = np.triu(np.full((2, 3), -1e9), k=2)
    w223 = Tensor(rng.standard_normal((2, 2, 3)))
    w2223 = Tensor(rng.standard_normal((2, 2, 2, 3)))
    row4 = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    heads232 = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
    heads212 = Tensor(rng.standard_normal((2, 1, 2)), requires_grad=True)
    w2232 = Tensor(rng.standard_normal((2, 2, 3, 2)))
    w212 = Tensor(rng.standard_normal((2, 1, 2)))
    w14 = Tensor(rng.standard_normal((1, 4)))
    # concat's other parts, of unequal widths either side of the input
    c31 = Tensor(rng.standard_normal((3, 1)))
    c32 = Tensor(rng.standard_normal((3, 2)))
    w37 = Tensor(rng.standard_normal((3, 7)))

    def attention(q, k, mask, w):
        return T.tsum(T.mul(T.attention_weights(q, k, 0.7, mask), w))

    attention_cases = []
    for rank, q, k, w in ((3, q222, k223, w223), (4, q2222, k2223, w2223)):
        for masked, mask in (("", None), ("_masked", causal)):
            attention_cases += [
                (f"attention_weights_q_rank{rank}{masked}", q,
                 lambda t, k=k, mask=mask, w=w: attention(t, k, mask, w)),
                (f"attention_weights_k_rank{rank}{masked}", k,
                 lambda t, q=q, mask=mask, w=w: attention(q, t, mask, w)),
            ]
    return [
        ("matmul", a34, lambda t: T.tsum(T.matmul(t, b42))),
        ("add", a34, lambda t: T.tsum(T.add(t, other))),
        ("add_bias_broadcast", a34, lambda t: T.tsum(T.add(t, bias))),
        ("sub", a34, lambda t: T.tsum(T.sub(t, other))),
        ("mul", a34, lambda t: T.tsum(T.mul(t, other))),
        ("div", a34, lambda t: T.tsum(T.div(t, denom))),
        ("div_denominator", denom_var, lambda t: T.tsum(T.div(ones34, t))),
        ("scale", a34, lambda t: T.tsum(T.scale(t, -1.7))),
        ("shift", a34, lambda t: T.tsum(T.shift(t, 0.3))),
        ("log", positive, lambda t: T.tsum(T.log(t))),
        ("gelu", a34, lambda t: T.tsum(T.gelu(t))),
        ("softmax", a34, lambda t: T.tsum(T.mul(T.softmax(t, axis=1), other))),
        ("cross_entropy", a34, lambda t: T.cross_entropy(t, [0, 3, 1])),
        ("sum_axis", a34, lambda t: T.tsum(T.mul(T.tsum(t, axis=0), bias))),
        ("mean", a34, lambda t: T.tsum(T.mul(T.mean(t, axis=1), w3))),
        ("reshape", a34, lambda t: T.tsum(T.mul(T.reshape(t, (2, 6)), w26))),
        ("matmul_batched_left", a234, lambda t: T.tsum(T.mul(T.matmul(t, b242), w232))),
        ("matmul_batched_right", b242, lambda t: T.tsum(T.mul(T.matmul(a234, t), w232))),
        ("matmul_shared_left", a234, lambda t: T.tsum(T.mul(T.matmul(t, shared42), w232))),
        ("matmul_shared_right", shared42, lambda t: T.tsum(T.mul(T.matmul(a234, t), w232))),
        ("matmul_rank4", a2223, lambda t: T.tsum(T.mul(T.matmul(t, b2232), w2222))),
        ("permute", a34, lambda t: T.tsum(T.mul(T.permute(T.reshape(t, (3, 2, 2)), (2, 0, 1)), w232))),
        ("take_rows", a34, lambda t: T.tsum(T.mul(T.take_rows(t, [2, 0, 2]), w34))),
        ("slice_axis", a34, lambda t: T.tsum(T.mul(T.slice_axis(t, 1, 1, 3), w32))),
        ("concat", a34, lambda t: T.tsum(T.mul(T.concat([t, other], axis=0), w64))),
        ("concat_three_axis1", a34, lambda t: T.tsum(T.mul(T.concat([c31, t, c32], axis=1), w37))),
        ("layer_norm_x", a34, lambda t: T.tsum(T.mul(T.layer_norm(t, gain, beta), other))),
        ("layer_norm_gain", gain, lambda t: T.tsum(T.mul(T.layer_norm(a34, t, beta), other))),
        ("layer_norm_bias", beta, lambda t: T.tsum(T.mul(T.layer_norm(a34, gain, t), other))),
        ("linear_x", a34, lambda t: T.tsum(T.mul(T.linear(t, lin_w, lin_b), w32))),
        ("linear_w", lin_w, lambda t: T.tsum(T.mul(T.linear(a34, t, lin_b), w32))),
        ("linear_b", lin_b, lambda t: T.tsum(T.mul(T.linear(a34, lin_w, t), w32))),
        ("linear_shared_x", a234, lambda t: T.tsum(T.mul(T.linear(t, lin_w, lin_b), w232))),
        ("linear_shared_w", lin_w, lambda t: T.tsum(T.mul(T.linear(a234, t, lin_b), w232))),
        ("linear_shared_b", lin_b, lambda t: T.tsum(T.mul(T.linear(a234, lin_w, t), w232))),
        *attention_cases,
        ("split_heads", a34, lambda t: T.tsum(T.mul(T.split_heads(t, 2), w232))),
        ("split_heads_keys", a34, lambda t: T.tsum(T.mul(T.split_heads(t, 2, keys=True), w223))),
        ("split_heads_batched", a234, lambda t: T.tsum(T.mul(T.split_heads(t, 2), w2232))),
        ("split_heads_row", row4, lambda t: T.tsum(T.mul(T.split_heads(t, 2), w212))),
        ("merge_heads", heads232, lambda t: T.tsum(T.mul(T.merge_heads(t), w34))),
        ("merge_heads_row", heads212, lambda t: T.tsum(T.mul(T.merge_heads(t), w14))),
    ]


# ---------------------------------------------------------------------------
# per-tensor references
# ---------------------------------------------------------------------------
# The training step as it was written before the flat versions: a grad
# buffer for every tensor the tape touches, micro-batch gradients copied
# out and summed as a list of dicts, and one loop iteration per tensor in
# clipping and AdamW.

def reference_backward(tape, root):
    """Backward that also writes the gradient of every intermediate."""
    grads = {root: np.ones_like(root.data)}
    for node in reversed(tape.nodes):
        g_out = grads.pop(node.output, None)
        if g_out is None:
            continue
        if node.output.requires_grad:
            node.output.accumulate_grad(g_out)
        for parent, g in zip(node.parents, node.backward_fn(g_out)):
            if g is None or not parent.requires_grad:
                continue
            grads[parent] = grads[parent] + g if parent in grads else g
    for t, g in grads.items():
        if t.requires_grad:
            t.accumulate_grad(g)


def reference_take_grads(trainable):
    grads = {}
    for name, t in trainable.items():
        grads[name] = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        t.zero_grad()
    return grads


def reference_accumulate(micro_grads):
    out = {}
    for name in micro_grads[0]:
        acc = micro_grads[0][name].copy()
        for grads in micro_grads[1:]:
            acc += grads[name]
        out[name] = acc / len(micro_grads)
    return out


def reference_clip(grads, max_norm):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        return {k: g * factor for k, g in grads.items()}, norm
    return dict(grads), norm


def reference_adamw(params, grads, state, lr):
    """AdamW one tensor at a time; ``state`` is an ``AdamWState``."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        m_hat = m / c1
        v_hat = v / c2
        decay = lr * state.weight_decay * p.data
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.data -= decay
