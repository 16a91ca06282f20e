import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import op_grad_cases
from hazardvlm import tensor as T
from hazardvlm.tensor import Tape, Tensor, grad_check


def randn(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

def test_matmul_identity_exact():
    rng = np.random.default_rng(0)
    m = Tensor(rng.standard_normal((2, 2)))
    eye = Tensor(np.eye(2))
    left = T.matmul(eye, m)
    right = T.matmul(m, eye)
    assert np.array_equal(left.data, m.data)
    assert np.array_equal(right.data, m.data)


def test_matmul_scalar_case():
    out = T.matmul(Tensor([[1.0]]), Tensor([[5.0]]))
    assert out.data.tolist() == [[5.0]]


def test_matmul_hand_expansion():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    # four dot products expanded by hand
    assert out.data.tolist() == [[19.0, 22.0], [43.0, 50.0]]


def test_matmul_shape_mismatch():
    # inner dims, leading dims of a rank-3 pair, mixed ranks other than a
    # stack times one matrix, and inner dims of a stack times one matrix
    for a_shape, b_shape in [
        ((2, 3), (2, 3)),
        ((2, 3, 4), (3, 4, 2)),
        ((3, 4), (2, 4, 2)),
        ((2, 2, 3, 4), (4, 2)),
        ((2, 2, 3, 4), (2, 3, 4, 2)),
        ((2, 3, 4), (5, 2)),
    ]:
        with pytest.raises(T.ShapeError):
            T.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


def test_matmul_batched_is_one_product_per_leading_index():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2, 4)).astype(np.float32)
    b = rng.standard_normal((3, 4, 5)).astype(np.float32)
    out = T.matmul(Tensor(a), Tensor(b)).data
    for i in range(3):
        np.testing.assert_array_equal(out[i], T.matmul(Tensor(a[i]), Tensor(b[i])).data)


@pytest.mark.parametrize("scenes, rows, width, out", [(16, 1, 32, 32), (16, 16, 16, 32), (5, 21, 16, 32), (3, 1, 128, 32)])
def test_matmul_shared_matrix_is_one_product_per_scene(scenes, rows, width, out):
    # the matrix is broadcast over the stack, not flattened into one
    # (scenes * rows) x width product, so each scene's rows keep their bits
    rng = np.random.default_rng(scenes * rows)
    a = rng.standard_normal((scenes, rows, width)).astype(np.float32)
    w = Tensor(rng.standard_normal((width, out)).astype(np.float32))
    stacked = T.matmul(Tensor(a), w).data
    for i in range(scenes):
        np.testing.assert_array_equal(stacked[i], T.matmul(Tensor(a[i]), w).data)


def test_matmul_shared_matrix_gradient_sums_over_the_stack():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    g = rng.standard_normal((3, 2, 5))
    with Tape() as tape:
        loss = T.tsum(T.mul(T.matmul(a, w), Tensor(g)))
    tape.backward(loss)
    assert w.grad.shape == (4, 5)
    np.testing.assert_allclose(w.grad, sum(a.data[i].T @ g[i] for i in range(3)), rtol=1e-12)
    np.testing.assert_allclose(a.grad, g @ w.data.T, rtol=1e-12)


def test_softmax_constant_vector():
    out = T.softmax(Tensor([[1.7, 1.7, 1.7, 1.7]]))
    np.testing.assert_allclose(out.data, 0.25, atol=1e-7)


def test_softmax_single_element():
    out = T.softmax(Tensor([[3.0]]))
    assert out.data.tolist() == [[1.0]]


def test_softmax_log2_case():
    out = T.softmax(Tensor([[0.0, math.log(2.0)]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-7)


def test_cross_entropy_confident_logits_near_zero():
    logits = Tensor([[30.0, 0.0, 0.0, 0.0]])
    assert T.cross_entropy(logits, [0]).item() < 1e-6


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 4)))
    assert T.cross_entropy(logits, [2]).item() == pytest.approx(math.log(4.0), abs=1e-6)


def test_cross_entropy_two_steps():
    # per-step target probabilities 0.5 and 0.25 built via log-probability logits
    p0 = np.array([0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3])
    p1 = np.array([0.25, 0.25, 0.25, 0.25])
    logits = Tensor(np.log(np.stack([p0, p1])))
    expected = (math.log(2.0) + math.log(4.0)) / 2.0
    assert T.cross_entropy(logits, [0, 0]).item() == pytest.approx(expected, abs=1e-6)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_identity_leaf():
    x = Tensor([2.5], requires_grad=True)
    with Tape() as tape:
        pass
    tape.backward(x)
    assert x.grad is not None and x.grad.tolist() == [1.0]


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = T.tsum(T.mul(x, x))
    tape.backward(y)
    # d(x^2)/dx = 2x
    np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)


def test_backward_matmul_matches_finite_differences():
    rng = np.random.default_rng(1)
    b = Tensor(rng.standard_normal((3, 2)))
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    err = grad_check(lambda t: T.tsum(T.matmul(t, b)), a)
    assert err < 1e-3
    # sum(A @ B) gradient has the 1 . B^T pattern
    with Tape() as tape:
        out = T.tsum(T.matmul(a, b))
    tape.backward(out)
    np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T, rtol=1e-5)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = T.scale(x, 2.0)
    with pytest.raises(T.ShapeError):
        tape.backward(y)


def test_backward_fanout_adds():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    c = Tensor(rng.standard_normal(4))

    with Tape() as tape:
        y = T.tsum(T.add(T.mul(x, c), T.mul(x, x)))
    tape.backward(y)
    fanout = x.grad.copy()

    x.zero_grad()
    with Tape() as tape:
        y1 = T.tsum(T.mul(x, c))
    tape.backward(y1)
    g1 = x.grad.copy()
    x.zero_grad()
    with Tape() as tape:
        y2 = T.tsum(T.mul(x, x))
    tape.backward(y2)
    g2 = x.grad.copy()

    np.testing.assert_allclose(fanout, g1 + g2, rtol=1e-6)


def test_repeated_backward_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            y = T.tsum(x)
        tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


# ---------------------------------------------------------------------------
# grad_check oracle cases
# ---------------------------------------------------------------------------

def test_grad_check_linear_is_exact():
    x = Tensor(np.linspace(-2, 2, 7), requires_grad=True)
    assert grad_check(T.tsum, x) < 1e-9


def test_grad_check_softmax_dot():
    rng = np.random.default_rng(3)
    x = randn(rng, 1, 6)
    err = grad_check(lambda t: T.tsum(T.mul(T.softmax(t), t)), x)
    assert err < 1e-3


def test_grad_check_cross_entropy():
    rng = np.random.default_rng(4)
    x = randn(rng, 3, 5)
    err = grad_check(lambda t: T.cross_entropy(t, [1, 4, 0]), x)
    assert err < 1e-3


def test_grad_check_non_finite_perturbation_raises():
    # log is finite at x and x + eps but -inf at x - eps = 0
    x = Tensor(np.array([0.1]))
    with np.errstate(divide="ignore"):
        with pytest.raises(T.NonFiniteError):
            grad_check(lambda t: T.tsum(T.log(t)), x, eps=0.1)
    assert T._FINITE_CHECKS


# ---------------------------------------------------------------------------
# per-op gradient battery: 20 seeds each, inputs from N(0,1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_every_op_gradient_battery(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, x, f in op_grad_cases(rng):
        err = grad_check(f, x, eps=1e-3)
        assert err < 1e-3, f"op {name} failed grad check at seed {seed}: {err}"


# ---------------------------------------------------------------------------
# fused ops: the bits of the ops they replace
# ---------------------------------------------------------------------------

def _split_composed(x, heads, keys=False):
    *lead, n, d = x.shape
    lead, dh = tuple(lead), d // heads
    if n == 1:
        return T.reshape(x, lead + ((heads, dh, 1) if keys else (heads, 1, dh)))
    b = len(lead)
    axes = (b + 1, b + 2, b) if keys else (b + 1, b, b + 2)
    return T.permute(T.reshape(x, lead + (n, heads, dh)), tuple(range(b)) + axes)


def _merge_composed(x):
    *lead, h, n, dh = x.shape
    if n > 1:
        b = len(lead)
        x = T.permute(x, tuple(range(b)) + (b + 1, b, b + 2))
    return T.reshape(x, tuple(lead) + (n, h * dh))


def _attention_composed(q, k, scale, mask=None):
    scores = T.scale(T.matmul(q, k), scale)
    if mask is not None:
        scores = T.add(scores, Tensor(mask))
    return T.softmax(scores)


_CAUSAL = np.triu(np.full((4, 5), -1e9, np.float32), k=2)

# (name, fused op, composed ops, input shapes)
FUSED = [
    ("linear", T.linear, lambda x, w, b: T.add(T.matmul(x, w), b), [(5, 8), (8, 6), (6,)]),
    ("linear_shared", T.linear, lambda x, w, b: T.add(T.matmul(x, w), b), [(3, 5, 8), (8, 6), (6,)]),
    *[
        (f"split_heads_{shape}_keys{keys}", lambda x, keys=keys: T.split_heads(x, 2, keys),
         lambda x, keys=keys: _split_composed(x, 2, keys), [shape])
        for shape in [(5, 8), (3, 5, 8), (1, 8), (3, 1, 8)]
        for keys in (False, True)
    ],
    *[
        (f"merge_heads_{shape}", T.merge_heads, _merge_composed, [shape])
        for shape in [(2, 5, 4), (3, 2, 5, 4), (2, 1, 4), (3, 2, 1, 4)]
    ],
    *[
        (f"attention_weights_{lead}_mask{mask is not None}",
         lambda q, k, mask=mask: T.attention_weights(q, k, 0.35, mask),
         lambda q, k, mask=mask: _attention_composed(q, k, 0.35, mask),
         [(*lead, 4, 3), (*lead, 3, 5)])
        for lead in [(2,), (3, 2)]
        for mask in (None, _CAUSAL)
    ],
]


@pytest.mark.parametrize("name, fused, composed, shapes", FUSED, ids=[case[0] for case in FUSED])
def test_fused_op_gives_the_bits_of_the_composed_ops(name, fused, composed, shapes):
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    results = []
    for op in (fused, composed):
        parents = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = op(*parents)
            weights = Tensor(np.random.default_rng(8).standard_normal(out.shape).astype(np.float32))
            loss = T.tsum(T.mul(out, weights))
        tape.backward(loss)
        results.append((out.data, [p.grad for p in parents]))
    (out, grads), (ref_out, ref_grads) = results
    assert out.dtype == np.float32 and out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


def test_attention_weights_guard_checks_the_scores_before_the_softmax():
    # a score of -inf has weight 0 and leaves its row finite; the guard
    # still names the op, as it named the product before the fusion
    q = Tensor(np.array([[[1.0, -3e38], [1.0, 1.0]]], np.float32))
    k = Tensor(np.array([[[1.0, 1.0], [1.0, 3e38]]], np.float32))
    with np.errstate(over="ignore"):
        with T.finite_checks(False):
            rows = T.attention_weights(q, k, 1.0)
        assert np.isfinite(rows.data).all()
        with pytest.raises(T.NonFiniteError, match="op 'attention_weights'"):
            T.attention_weights(q, k, 1.0)


def test_fused_op_shape_errors():
    with pytest.raises(T.ShapeError):
        T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    with pytest.raises(T.ShapeError):
        T.linear(Tensor(np.ones((2, 2, 2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4)))
    with pytest.raises(T.ShapeError):
        T.split_heads(Tensor(np.ones((2, 6))), 4)
    with pytest.raises(T.ShapeError):
        T.merge_heads(Tensor(np.ones((2, 6))))
    with pytest.raises(T.ShapeError):
        T.attention_weights(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 5))), 1.0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12), st.floats(-50, 50))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(values, const):
    # float64 input so the shift itself is exact; in float32 the *addition*
    # already rounds the logit gaps by more than 1e-6 at magnitude ~60
    x = Tensor(np.array([values], dtype=np.float64))
    out = T.softmax(x)
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert (out.data >= 0).all()
    shifted = T.softmax(T.shift(x, const))
    np.testing.assert_allclose(out.data, shifted.data, atol=1e-6)


def test_softmax_shift_invariant_float32_exact_inputs():
    x = Tensor(np.array([[1.0, 3.0, -2.0, 7.0]], dtype=np.float32))
    out = T.softmax(x)
    shifted = T.softmax(T.shift(x, 64.0))  # integer shift stays exact
    np.testing.assert_allclose(out.data, shifted.data, atol=1e-6)
    assert abs(float(shifted.data.sum()) - 1.0) < 1e-6


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_matmul_identity_bit_exact(n, m, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, m)).astype(np.float32))
    out = T.matmul(a, Tensor(np.eye(m, dtype=np.float32)))
    assert np.array_equal(out.data, a.data)


def _layer_norm_by_mean_and_var(x, gain, bias, g, eps=1e-5):
    """layer_norm's output and gradients (x, gain, bias) for an upstream
    gradient g, written with np.mean and np.var."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv
    d = x.shape[-1]
    gy = g * gain
    dx = inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))
    return y * gain + bias, dx, (g * y).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


@given(
    st.sampled_from([np.float32, np.float64]),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 40),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_layer_norm_bits_match_mean_and_var(dtype, lead, width, magnitude, seed):
    # ranks 2-4: a sequence, a batch of sequences, a batch of heads
    rng = np.random.default_rng(seed)
    shape = (*lead, width)
    x = (rng.standard_normal(shape) * 10.0**magnitude + rng.standard_normal()).astype(dtype)
    gain, bias = rng.standard_normal((2, width)).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    with Tape() as tape:
        out = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gain), Tensor(bias))
    got = (out.data, *tape.nodes[-1].backward_fn(g))
    for name, a, b in zip(("out", "dx", "dgain", "dbias"), got, _layer_norm_by_mean_and_var(x, gain, bias, g)):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("guard", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_raises_when_a_finite_row_overflows_its_variance(guard, dtype):
    # (c*c) overflows, so 1/sqrt(var) would be 0 and the row its bias
    huge = np.finfo(dtype).max / 1.2
    x = np.array([[1.0, 2.0, 3.0, 4.0], [huge, -huge, huge / 3, 0.0]], dtype)
    gain, bias = Tensor(np.ones(4, dtype)), Tensor(np.arange(4, dtype=dtype))
    with T.finite_checks(guard), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(T.NonFiniteError, match=r"^non-finite values produced by op 'layer_norm'$"):
            T.layer_norm(Tensor(x), gain, bias)


def test_layer_norm_of_no_rows_is_empty():
    gain, bias = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
    out = T.layer_norm(Tensor(np.zeros((0, 4), np.float32)), gain, bias)
    assert out.shape == (0, 4)


def test_layer_norm_leaves_a_non_finite_row_to_the_guard():
    # a NaN that reaches the norm was produced upstream; without the guard
    # it flows on, for the caller's check and guarded re-run to name its op
    x = Tensor(np.array([[1.0, np.nan, 3.0]], np.float32))
    gain, bias = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))
    with T.finite_checks(False):
        assert np.isnan(T.layer_norm(x, gain, bias).data).all()
    with pytest.raises(T.NonFiniteError, match="op 'layer_norm'"):
        T.layer_norm(x, gain, bias)


@given(st.integers(1, 5), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_permute_gives_the_bits_of_np_transpose_with_argsort(rank, random, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 4, rank))
    axes = tuple(random.sample(range(rank), rank))
    x = rng.standard_normal(shape).astype(np.float32)
    with Tape() as tape:
        out = T.permute(Tensor(x, requires_grad=True), axes)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (dx,) = tape.nodes[-1].backward_fn(g)
    assert out.data.tobytes() == np.transpose(x, axes).copy().tobytes()
    ref = np.ascontiguousarray(np.transpose(g, tuple(np.argsort(axes))))
    assert dx.shape == x.shape and dx.flags.c_contiguous and dx.tobytes() == ref.tobytes()


def _gelu64(v):
    v = v.astype(np.float64)
    return 0.5 * v * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def test_gelu_is_within_two_ulps_of_a_float64_gelu():
    # |v| >= 10 included, where the cube term dominates the tanh argument
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.uniform(-12.0, 12.0, 1 << 16), rng.standard_normal(1 << 14),
                        np.linspace(-40.0, 40.0, 8001)]).astype(np.float32)
    out = T.gelu(Tensor(v)).data
    err = np.abs(out.astype(np.float64) - _gelu64(v))
    # the absolute error is on the scale of the input; for v >= 0, where
    # the output is at least v/2, that is a few ulps of the output too
    assert out.dtype == np.float32
    assert (err <= 2 * np.spacing(np.abs(v)).astype(np.float64)).all()
    pos = v >= 0
    assert (err[pos] <= 4 * np.spacing(out[pos]).astype(np.float64)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_output_is_bitwise_the_cube_by_multiplication(dtype):
    # the documented formula, cube as v * v * v: a change of how the cube
    # rounds changes every output bit downstream
    rng = np.random.default_rng(1)
    v = (rng.standard_normal(4096) * 4.0).astype(dtype)
    c = math.sqrt(2.0 / math.pi)
    want = 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * (v * v * v))))
    got = T.gelu(Tensor(v)).data
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e13), (np.float32, 3e38), (np.float64, 1e103)])
def test_gelu_of_an_input_whose_cube_overflows_is_v_or_zero(dtype, big):
    v = np.array([big, -big, 2.0], dtype)
    with np.errstate(over="ignore"):
        out = T.gelu(Tensor(v)).data
    assert out[0] == v[0] and out[1] == 0.0 and np.isfinite(out).all()


def test_non_finite_guard():
    big = Tensor([[1e38, 1e38]])
    with np.errstate(over="ignore"):
        with pytest.raises(T.NonFiniteError):
            T.mul(big, big)
        with T.finite_checks(False):
            out = T.mul(big, big)
    assert np.isinf(out.data).all()


def test_default_dtype_is_float32():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert T.add(Tensor([1.0]), Tensor([2.0])).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scalar_op_results_are_0d_arrays(dtype):
    # numpy returns a scalar, not an array, for arithmetic on 0-d arrays
    x = Tensor(np.array(2.0, dtype), requires_grad=True)
    for out in (T.scale(x, 3.0), T.add(x, x), T.mul(x, x), T.shift(x, 1.0)):
        assert type(out.data) is np.ndarray and out.shape == () and out.dtype == dtype
