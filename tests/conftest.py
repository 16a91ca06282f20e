"""Shared helpers: the differentiable-op battery used by the tensor tests
and the acceptance suite."""

import numpy as np

from hazardvlm import tensor as T
from hazardvlm.tensor import Tensor


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
        ("exp", a34, lambda t: T.tsum(T.exp(t))),
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
        ("layer_norm_x", a34, lambda t: T.tsum(T.mul(T.layer_norm(t, gain, beta), other))),
        ("layer_norm_gain", gain, lambda t: T.tsum(T.mul(T.layer_norm(a34, t, beta), other))),
        ("layer_norm_bias", beta, lambda t: T.tsum(T.mul(T.layer_norm(a34, gain, t), other))),
    ]
