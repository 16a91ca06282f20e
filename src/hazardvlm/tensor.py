"""Minimal dense-tensor library with tape-based reverse-mode differentiation.

Tensors wrap row-major numpy float arrays (float32 by default). Operations
record themselves on the active ``Tape`` when any input requires gradients;
``Tape.backward`` replays the tape in reverse and accumulates gradients into
the ``grad`` buffers of the leaves that require them: the tensors no op on
that tape produced, such as parameters and inputs. GELU is the only
activation provided (smooth everywhere, which keeps finite-difference
checks clean).

A tape and the tensors recorded on it belong to one logical thread;
tensors are not mutated after creation except their grad buffers. Pure
stateless ops on disjoint data are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

# NaN/Inf guard at op outputs, on by default. Training and inference turn
# it off (`finite_checks(False)`) and check their losses or stage outputs
# instead, rerunning with it on to name the op when a check fails.
_FINITE_CHECKS = True

_TAPE_STACK: list["Tape"] = []


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared at an operation boundary."""


class finite_checks:
    """Context manager toggling the NaN/Inf guard."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def __enter__(self):
        global _FINITE_CHECKS
        self.prev = _FINITE_CHECKS
        _FINITE_CHECKS = self.enabled
        return self

    def __exit__(self, *exc):
        global _FINITE_CHECKS
        _FINITE_CHECKS = self.prev
        return False


class Tensor:
    """Dense row-major float array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            data = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.floating)):
            # keep float32/float64 as-is (numpy scalars included, so 0-d op
            # results don't get silently downcast)
            data = np.asarray(data)
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(DEFAULT_DTYPE)
        else:
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data: np.ndarray = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class TapeNode:
    """One recorded op: parents, output, and the backward rule."""

    __slots__ = ("op", "parents", "output", "backward_fn")

    def __init__(
        self,
        op: str,
        parents: tuple[Tensor, ...],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ):
        self.op = op
        self.parents = parents
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record; construction order is the topological order.

    A tape can start with ``nodes`` recorded on another, such as work that
    several tapes share: a backward on this tape then passes through them
    too, and their outputs are intermediates here, not leaves."""

    def __init__(self, nodes: Sequence[TapeNode] = ()):
        self.nodes: list[TapeNode] = list(nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape contexts exited out of order"
        return False

    def backward(self, root: Tensor) -> None:
        backward(self, root)


def recording() -> bool:
    """Whether a Tape is active, so ops on tensors that require gradients
    are being recorded."""
    return bool(_TAPE_STACK)


def _record(op: str, parents: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    # runs once per op, so it does without Python-level dispatch: the
    # ndarray method, not np.all, and no Tensor.__init__, whose dtype
    # normalization float operands never need (a numpy scalar result
    # still becomes a 0-d array)
    if _FINITE_CHECKS and not np.isfinite(out_data).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    requires = False
    for p in parents:
        if p.requires_grad:
            requires = True
            break
    out = Tensor.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out.requires_grad = requires
    out.grad = None
    if requires and _TAPE_STACK:
        _TAPE_STACK[-1].nodes.append(TapeNode(op, parents, out, backward_fn))
    return out


def backward(tape: Tape, root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into the ``grad`` buffer of every leaf
    that requires gradients: a tensor no node on this tape produced
    (parameters, inputs). Intermediates get no buffer; each one's gradient
    lives only until its producing node has passed it to the node's parents.

    Fan-out adds gradient contributions; repeated backward calls keep
    accumulating into ``grad`` until ``zero_grad``, and a buffer that
    already exists is added to in place.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    grads: dict[Tensor, np.ndarray] = {root: np.ones_like(root.data)}
    for node in reversed(tape.nodes):
        g_out = grads.pop(node.output, None)
        if g_out is None:
            continue
        for parent, g in zip(node.parents, node.backward_fn(g_out)):
            if g is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + g
            else:
                grads[parent] = g
    # what is left was produced by no node on this tape: the leaves
    for t, g in grads.items():
        if t.requires_grad:
            t.accumulate_grad(g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 operands, of two stacks of matrices
    (rank 3 or 4) with equal leading dims, or of a rank-3 stack and one
    rank-2 matrix shared by every entry. Each leading index is its own
    product, so a stack gives the bits of one product per entry."""
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    shared = x.ndim == 3 and y.ndim == 2
    if not shared and (x.ndim != y.ndim or not 2 <= x.ndim <= 4):
        raise ShapeError(
            f"matmul expects equal-rank operands of rank 2-4 or a rank-3 stack times a matrix, "
            f"got {x.shape} and {y.shape}"
        )
    if x.shape[-1] != y.shape[-2] or not shared and x.shape[:-2] != y.shape[:-2]:
        raise ShapeError(f"matmul dims differ: {x.shape} x {y.shape}")

    def bwd(g):
        gb = a.data.swapaxes(-1, -2) @ g
        # a shared matrix's gradient sums over the stack
        return g @ b.data.swapaxes(-1, -2), gb.sum(axis=0) if shared else gb

    return _record("matmul", (a, b), x @ y, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, with the bits of ``add(matmul(x, w), b)``
    forward and backward: x is n x d_in rows or a stack of them, w one
    d_in x d_out matrix and b d_out biases. A parent that requires no
    gradient gets none computed."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd = x.data, w.data
    if xd.ndim not in (2, 3) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.shape != wd.shape[1:]:
        raise ShapeError(f"linear expects rows (or a stack) x d_in, d_in x d_out and d_out, got "
                         f"{xd.shape}, {wd.shape} and {b.shape}")

    def bwd(g):
        gx = g @ wd.swapaxes(-1, -2) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = xd.swapaxes(-1, -2) @ g
            # the shared matrix's gradient sums over the stack
            gw = gw.sum(axis=0) if xd.ndim == 3 else gw
        return gx, gw, _unbroadcast(g, b.shape) if b.requires_grad else None

    return _record("linear", (x, w, b), xd @ wd + b.data, bwd)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), a.data * b.data, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _record("div", (a, b), a.data / b.data, bwd)


def scale(x: Tensor, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _record("scale", (x,), x.data * s, bwd)


def shift(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        return (g,)

    return _record("shift", (x,), x.data + float(c), bwd)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        return (g / x.data,)

    return _record("log", (x,), np.log(x.data), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    The cube is ``v * v * v``, two rounded products. numpy runs a float32
    ``v**3`` through its scalar ``pow`` loop, about 100x slower, and
    neither it nor ``v * v * v`` is the correctly rounded cube. The
    float64 cube rounded to float32 comes nearer it, but costs several
    times ``v * v * v`` and moves the output no nearer a float64 GELU:
    with any of the three the error stays within two float32 ulps of
    ``|v|``. A cube that overflows still gives ``v`` for a positive input
    and 0 for a negative one."""
    x = _as_tensor(x)
    v = x.data
    inner = _GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    out = 0.5 * v * (1.0 + t)

    def bwd(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
        dx = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
        return (g * dx,)

    return _record("gelu", (x,), out, bwd)


def softmax(x: Tensor) -> Tensor:
    """Max-stabilized softmax along the last axis; rows sum to 1 within 1e-6."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", (x,), out, bwd)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of `targets` under row-wise softmax.

    logits: T x V; targets: T integer token indices. Returns a scalar.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects T x V logits, got {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets length {idx.shape} does not match logits rows {logits.shape[0]}"
        )
    vocab = logits.shape[1]
    if idx.size == 0:
        raise ShapeError("cross_entropy on an empty target sequence")
    if idx.min() < 0 or idx.max() >= vocab:
        raise IndexError(f"target index out of range [0, {vocab})")
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(n), idx]
    out = np.asarray(nll.mean(), dtype=logits.dtype)

    def bwd(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), idx] -= 1.0
        return (float(g) * p / n,)

    return _record("cross_entropy", (logits,), out, bwd)


def tsum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record("sum", (x,), np.asarray(out), bwd)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    return scale(tsum(x, axis=axis), 1.0 / count)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)

    return _record("reshape", (x,), x.data.reshape(shape), bwd)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    # argsort in Python: np.argsort on a tuple costs several times more
    inverse = sorted(range(len(axes)), key=axes.__getitem__)

    def bwd(g):
        # contiguous like the forward output, so downstream reductions sum
        # in the same order whichever layout the gradient arrived in
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _record("permute", (x,), x.data.transpose(axes).copy(), bwd)


def split_heads(x: Tensor, heads: int, keys: bool = False) -> Tensor:
    """... x n x (h*dh) rows to ... x h x n x dh, or ... x h x dh x n for
    keys, as one node with the bits of ``permute(reshape(x, ...), ...)``.
    A single row is already in that layout: a reshape and no permute."""
    x = _as_tensor(x)
    shape = x.data.shape
    if x.data.ndim < 2 or shape[-1] % heads:
        raise ShapeError(f"split_heads: {heads} heads do not divide rows of shape {shape}")
    lead, n = shape[:-2], shape[-2]
    dh = shape[-1] // heads
    if n == 1:
        def bwd(g):
            return (g.reshape(shape),)

        row = (heads, dh, 1) if keys else (heads, 1, dh)
        return _record("split_heads", (x,), x.data.reshape(lead + row), bwd)
    b = len(lead)
    axes = tuple(range(b)) + ((b + 1, b + 2, b) if keys else (b + 1, b, b + 2))
    inverse = sorted(range(len(axes)), key=axes.__getitem__)

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse)).reshape(shape),)

    return _record("split_heads", (x,), x.data.reshape(lead + (n, heads, dh)).transpose(axes).copy(), bwd)


def merge_heads(x: Tensor) -> Tensor:
    """... x h x n x dh heads back to ... x n x (h*dh) rows, as one node
    with the bits of ``reshape(permute(x, ...), ...)``; a single row needs
    the reshape only."""
    x = _as_tensor(x)
    shape = x.data.shape
    if x.data.ndim < 3:
        raise ShapeError(f"merge_heads expects ... x h x n x dh, got {shape}")
    *lead, h, n, dh = shape
    rows = (*lead, n, h * dh)
    if n == 1:
        def bwd(g):
            return (g.reshape(shape),)

        return _record("merge_heads", (x,), x.data.reshape(rows), bwd)
    b = len(lead)
    axes = tuple(range(b)) + (b + 1, b, b + 2)  # swaps two axes: its own inverse
    permuted = (*lead, n, h, dh)

    def bwd(g):
        return (np.ascontiguousarray(g.reshape(permuted).transpose(axes)),)

    return _record("merge_heads", (x,), x.data.transpose(axes).copy().reshape(rows), bwd)


def attention_weights(q: Tensor, k: Tensor, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q @ k * scale + mask)`` over the last axis as one node,
    with the bits of ``matmul``, ``scale``, ``add`` and ``softmax``
    forward and backward. q is ... x n_q x dh and k ... x dh x n_kv with
    equal leading dims; ``mask`` is a constant n_q x n_kv array added to
    every leading entry, or None.

    With the per-op guard on, the scores are checked before the softmax
    too: a score of -inf would leave its row finite."""
    q, k = _as_tensor(q), _as_tensor(k)
    qd, kd = q.data, k.data
    if qd.ndim != kd.ndim or not 2 <= qd.ndim <= 4 or qd.shape[:-2] != kd.shape[:-2] or qd.shape[-1] != kd.shape[-2]:
        raise ShapeError(
            f"attention_weights expects ... x n_q x dh and ... x dh x n_kv, got {qd.shape} and {kd.shape}"
        )
    s = float(scale)
    scores = (qd @ kd) * s
    if mask is not None:
        scores = scores + mask
    if _FINITE_CHECKS and not np.isfinite(scores).all():
        raise NonFiniteError("non-finite values produced by op 'attention_weights'")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        gs = (g - dot) * out * s
        return (
            gs @ kd.swapaxes(-1, -2) if q.requires_grad else None,
            qd.swapaxes(-1, -2) @ gs if k.requires_grad else None,
        )

    return _record("attention_weights", (q, k), out, bwd)


def take_rows(x: Tensor, indices) -> Tensor:
    """Row gather (embedding lookup): the output has the index array's shape
    followed by a row's. Backward scatter-adds into the table."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim < 1:
        raise ShapeError("take_rows expects a sequence of indices")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"row index out of range [0, {x.shape[0]})")

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record("take_rows", (x,), x.data[idx].copy(), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return (gx,)

    return _record("slice_axis", (x,), x.data[sl].copy(), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_as_tensor(p) for p in parts)

    def bwd(g):
        # each part's slice of g, its bounds worked out only when a backward
        # needs them: the decode cache's concats never do
        outs, start = [], 0
        index = [slice(None)] * g.ndim
        for p in parts:
            stop = start + p.data.shape[axis]
            index[axis] = slice(start, stop)
            outs.append(g[tuple(index)])
            start = stop
        return outs

    return _record("concat", parts, np.concatenate([p.data for p in parts], axis=axis), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (1e-5 added to
    the variance), then affine.

    A finite row whose variance overflows raises NonFiniteError, guard on
    or off: its ``1/sqrt(var)`` would be 0 and the row would silently
    become the bias. A row that is already non-finite is left to the guard
    or the caller's check, which name the op that produced it."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    # the sums and divisions np.mean and np.var run, without their dispatch
    mu = x.data.sum(axis=-1, keepdims=True) / d
    c = x.data - mu
    var = (c * c).sum(axis=-1, keepdims=True) / d
    # one value per row, so the check costs a few microseconds; var is
    # never negative, so its max is below inf unless a row is inf or NaN
    if not var.max(initial=0.0) < math.inf and np.isfinite(x.data).all():
        raise NonFiniteError("non-finite values produced by op 'layer_norm'")
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = c * inv
    out = y * gain.data + bias.data

    def bwd(g):
        gy = g * gain.data
        dx = inv * (gy - gy.sum(axis=-1, keepdims=True) / d - y * ((gy * y).sum(axis=-1, keepdims=True) / d))
        ggain = (g * y).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return dx, ggain, gbias

    return _record("layer_norm", (x, gain, bias), out, bwd)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3) -> float:
    """Max relative error between backward() and central differences.

    The function is evaluated with a float64 copy of ``x`` (float32 rounding
    inside the forward would swamp the 1e-3 tolerance). Componentwise error
    is |a-b| / max(|a|, |b|, 1e-8); the max over components is returned.

    The 2 * x.size perturbed evaluations run without the per-op NaN/Inf
    guard (the analytic pass keeps it); a non-finite perturbed value still
    raises NonFiniteError, once, after the loop.
    """
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    with Tape() as tape:
        out = f(x64)
    if out.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    tape.backward(out)
    analytic = x64.grad if x64.grad is not None else np.zeros_like(x64.data)

    flat = x64.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with finite_checks(False):
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(x64).item()
            flat[i] = orig - eps
            lo = f(x64).item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
    if not np.isfinite(numeric).all():
        raise NonFiniteError("non-finite value in a finite-difference evaluation")
    numeric = numeric.reshape(x64.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
