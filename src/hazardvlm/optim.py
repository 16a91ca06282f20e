"""AdamW with decoupled weight decay, warmup+cosine schedule, gradient
clipping, and an empirical probe of the min-gradient-norm decay rate.

Clipping and AdamW run over all tensors at once: a name-to-array mapping
is packed into one flat array (``FlatArrays``) and each step is a fixed
sequence of whole-array numpy ops, each the op a per-tensor loop would
run, so every element gets the same bits."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import DEFAULT_DTYPE, Tensor


class DivergenceError(RuntimeError):
    """An optimization run diverged: it produced a non-finite value (a
    loss, an op's output or a gradient), or ``training.train``'s loss
    grew past its divergence guard."""


class _Layout:
    """Where each of a sequence of named arrays sits in one flat array:
    back to back, in name order."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        bounds = list(itertools.accumulate(sizes, initial=0))
        self.size = bounds[-1]
        self.slices = {name: slice(a, b) for name, a, b in zip(self.shapes, bounds, bounds[1:])}
        # each run of neighbours of one size, as (span, count, size)
        self.runs = []
        start = 0
        for size, run in itertools.groupby(sizes):
            count = len(list(run))
            self.runs.append((slice(start, start + count * size), count, size))
            start += count * size


class FlatArrays(Mapping[str, np.ndarray]):
    """Named arrays stored back to back, in name order, in one 1-D array
    ``flat``. Each item is a view into ``flat`` (made on access), so an op
    over every array at once is one numpy call on ``flat``."""

    def __init__(self, flat: np.ndarray, layout: _Layout):
        if flat.shape != (layout.size,):
            raise ValueError(f"flat array of shape {flat.shape} does not hold {layout.size} elements")
        self.flat = flat
        self.layout = layout

    @classmethod
    def zeros(cls, shapes: Mapping[str, tuple[int, ...]], dtype) -> "FlatArrays":
        layout = _Layout(shapes)
        return cls(np.zeros(layout.size, dtype), layout)

    def with_flat(self, flat: np.ndarray) -> "FlatArrays":
        """The same names and shapes over another flat array."""
        return FlatArrays(flat, self.layout)

    def rows(self) -> list[np.ndarray]:
        """``flat`` as 2-D views with one array per row: one view per run
        of neighbouring arrays of equal size, in name order."""
        return [self.flat[span].reshape(count, size) for span, count, size in self.layout.runs]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.flat[self.layout.slices[name]].reshape(self.layout.shapes[name])

    def __iter__(self):
        return iter(self.layout.shapes)

    def __len__(self) -> int:
        return len(self.layout.shapes)


def _flatten(arrays: Mapping[str, np.ndarray], shapes: Mapping[str, tuple[int, ...]], dtype) -> FlatArrays:
    """The gradients of ``shapes``' names, in that order and of those
    shapes, as one FlatArrays of ``dtype``: ``arrays`` itself when it
    already is exactly that, else a packed copy. A missing or misshapen
    entry raises ValueError naming it."""
    if (
        isinstance(arrays, FlatArrays)
        and arrays.flat.dtype == dtype
        and list(arrays.layout.shapes.items()) == list(shapes.items())
    ):
        return arrays
    values = []
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"no gradient for '{name}'")
        values.append(np.asarray(arrays[name]))
        if values[-1].shape != shape:
            raise ValueError(f"gradient shape {values[-1].shape} != param shape {shape} for '{name}'")
    layout = _Layout(shapes)
    packed = FlatArrays(np.empty(layout.size, dtype), layout)
    _pack(values, packed.flat)
    return packed


def _pack(arrays: Sequence[np.ndarray], out: np.ndarray) -> None:
    """Write the arrays' elements back to back into the 1-D ``out``."""
    if arrays:
        np.concatenate(arrays, axis=None, out=out)


@dataclass
class AdamWState:
    """Moment estimates plus shared hyperparameters.

    ``m`` and ``v`` map each parameter name to its moment array. They start
    empty (zero moments); the first step replaces them with FlatArrays in
    the parameters' layout, which later steps update in place. They live
    for one run: checkpoints do not store them."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    t: int = 0
    m: Mapping[str, np.ndarray] = field(default_factory=dict)
    v: Mapping[str, np.ndarray] = field(default_factory=dict)
    # (layout, array, views): the array the update runs in and a view of it
    # per parameter for the write-back, kept for the moments' layout
    _scratch: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _check_moments(state: AdamWState, shapes: Mapping[str, tuple[int, ...]], dtype) -> None:
    """ValueError unless ``state.m`` and ``state.v`` are FlatArrays of
    ``dtype`` over ``shapes``' names and shapes, in that order."""
    wanted = list(shapes.items())
    for what, moments in (("m", state.m), ("v", state.v)):
        if not isinstance(moments, FlatArrays):
            raise ValueError(f"moment {what} is a {type(moments).__name__}, not the FlatArrays of an earlier step")
        held = list(moments.layout.shapes.items())
        if held != wanted:
            name = next((a or b)[0] for a, b in itertools.zip_longest(held, wanted) if a != b)
            raise ValueError(f"moment {what} does not fit the parameters at '{name}'")
        if moments.flat.dtype != dtype:
            raise ValueError(f"moment {what} is {moments.flat.dtype}, the parameters {dtype}")


def adamw_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamWState,
    lr: float,
) -> None:
    """One AdamW update, in place.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2; both bias-corrected by
    (1 - b^t). The decay term -lr*wd*theta is applied to the parameter
    directly (decoupled), not folded into the gradient.

    The update runs over all parameters at once, on flat arrays in the
    parameters' common dtype, and then writes each parameter in place;
    every element gets the bits of updating its tensor alone. Empty moments
    start from zeros; otherwise they must be the FlatArrays an earlier step
    made over the same names, shapes and dtype. A learning rate that is
    negative or not finite, a missing or misshapen gradient, or moments
    made for other parameters raise ValueError before anything, the state
    included, has changed.
    """
    # written as `not <valid>`, so NaN fails too
    if not 0 <= lr < math.inf:
        raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
    data = [p.data for p in params.values()]
    shapes = dict(zip(params, (d.shape for d in data)))
    dtype = np.result_type(*data) if data else DEFAULT_DTYPE
    g = _flatten(grads, shapes, dtype)
    if state.m or state.v:
        _check_moments(state, shapes, dtype)
    else:
        state.m, state.v = FlatArrays.zeros(shapes, dtype), FlatArrays.zeros(shapes, dtype)
    m, v = state.m, state.v
    kept = state._scratch
    if kept is None or kept[0] is not m.layout:
        out = np.empty_like(m.flat)
        kept = state._scratch = (m.layout, out, list(m.with_flat(out).values()))
    _, a, out_views = kept
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    g, m, v = g.flat, m.flat, v.flat
    b = np.empty_like(a)  # not kept: memory between steps stays at m, v and a
    # each line is one op of the per-tensor update, in its order:
    # m += (1 - b1) * (g - m);  v += (1 - b2) * (g * g - v)
    np.subtract(g, m, out=a)
    np.multiply(a, 1.0 - state.beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(g, g, out=a)
    np.subtract(a, v, out=a)
    np.multiply(a, 1.0 - state.beta2, out=a)
    np.add(v, a, out=v)
    # step = lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(m, c1, out=a)
    np.multiply(a, lr, out=a)
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    np.add(b, state.eps, out=b)
    np.divide(a, b, out=a)
    # theta - step - (lr * wd) * theta, the decay taken from the pre-update theta
    _pack(data, b)
    np.subtract(b, a, out=a)
    np.multiply(b, lr * state.weight_decay, out=b)
    np.subtract(a, b, out=a)
    for d, new in zip(data, out_views):
        d[...] = new


@dataclass
class ScheduleConfig:
    """Linear warmup into half-cosine decay over a fixed horizon."""

    base_lr: float
    warmup_start_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        # written as `not <valid>`, so NaN fails too
        if not 0 <= self.warmup_start_lr <= self.base_lr < math.inf:
            raise ValueError(
                f"need 0 <= warmup_start_lr <= base_lr < inf, got {self.warmup_start_lr} and {self.base_lr}"
            )


def lr_at(sched: ScheduleConfig, t: int) -> float:
    """Learning rate at step t: linear ramp for t < W, cosine decay after."""
    if not 0 <= t <= sched.total_steps:
        raise ValueError(f"step {t} outside [0, {sched.total_steps}]")
    w = sched.warmup_steps
    if t < w:
        return sched.warmup_start_lr + (sched.base_lr - sched.warmup_start_lr) * t / w
    span = sched.total_steps - w
    return sched.base_lr * 0.5 * (1.0 + math.cos((t - w) / span * math.pi))


def clip_grad_norm(
    grads: Mapping[str, np.ndarray], max_norm: float = 1.0
) -> tuple[Mapping[str, np.ndarray], float]:
    """Scale all grads so their global L2 norm is at most max_norm.

    Returns (clipped grads, pre-clip norm). Scaling is uniform across
    tensors, preserving gradient direction. The clipped grads are a
    FlatArrays in the grads' common dtype, scaled in place: a FlatArrays
    argument is itself scaled and returned, and any other mapping is first
    packed into a new one, leaving its arrays as they were.
    """
    if isinstance(grads, FlatArrays):
        flat = grads
    else:
        arrays = {name: np.asarray(g) for name, g in grads.items()}
        dtype = np.result_type(*arrays.values()) if arrays else DEFAULT_DTYPE
        flat = _flatten(arrays, {name: a.shape for name, a in arrays.items()}, dtype)
    if not np.isfinite(flat.flat).all():
        raise DivergenceError("non-finite gradient before clipping")
    total = 0.0
    # one float64 sum per tensor, added in name order as Python floats:
    # a sum over the whole flat array would add in another order. A row of
    # a 2-D array sums in the order of the same values as a 1-D array.
    for rows in flat.rows():
        for row_sum in np.square(rows, dtype=np.float64).sum(axis=1).tolist():
            total += row_sum
    norm = math.sqrt(total)
    if norm > max_norm:
        np.multiply(flat.flat, max_norm / norm, out=flat.flat)
    return flat, norm


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------
# The probe runs AdamW with the decaying schedule lr0/sqrt(t+1) (the
# infinite-horizon regime the sublinear min-grad-norm bound is stated for;
# the finite-horizon cosine schedule above does not satisfy it) and records
# the running minimum of the squared gradient norm. Each step's gradient
# carries Gaussian noise of scale GRAD_NOISE: the sublinear rate is a
# statement about stochastic gradients in expectation, and the noise-free
# trajectory converges much faster.

GRAD_NOISE = 0.5
# Bounds on a probe's size, checked before any allocation: the dimension of
# an objective, and the steps of all trajectories (seeds x largest horizon).
MAX_PROBE_DIMS = 2**16
MAX_PROBE_STEPS = 2**20

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def quadratic_objective(dims: int, seed: int) -> tuple[Objective, np.ndarray]:
    """f(theta) = 0.5 * ||theta - target||^2 with a random target and start."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dims)
    theta0 = target + rng.standard_normal(dims)

    def f(theta: np.ndarray) -> tuple[float, np.ndarray]:
        d = theta - target
        return 0.5 * float(d @ d), d

    return f, theta0


def logistic_objective(dims: int, seed: int) -> tuple[Objective, np.ndarray]:
    """Mean logistic loss on a random linearly separable-ish problem of 64 points."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, dims))
    w_true = rng.standard_normal(dims)
    y = np.sign(x @ w_true + 0.1 * rng.standard_normal(len(x)))
    theta0 = rng.standard_normal(dims)

    def f(theta: np.ndarray) -> tuple[float, np.ndarray]:
        margins = -y * (x @ theta)
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        sig = 1.0 / (1.0 + np.exp(-margins))
        grad = (x * (-y * sig)[:, None]).mean(axis=0)
        return loss, grad

    return f, theta0


OBJECTIVES: dict[str, Callable[[int, int], tuple[Objective, np.ndarray]]] = {
    "quadratic": quadratic_objective,
    "logistic": logistic_objective,
}


def convergence_probe(
    objective: str | Callable[[int, int], tuple[Objective, np.ndarray]],
    dims: int,
    t_list: Sequence[int],
    seeds: Sequence[int],
    lr0: float = 0.3,
) -> list[tuple[int, float]]:
    """Seed-averaged running-min squared gradient norm at each horizon in t_list.

    One trajectory per seed is run to max(t_list) with lr_t = lr0/sqrt(t+1)
    and weight decay 0 (decay shifts the stationary point away from the
    objective's). Steps use the objective's gradient plus Gaussian noise of
    scale GRAD_NOISE; the recorded norm is of the exact gradient at the
    iterate.
    Divergence raises DivergenceError.
    """
    if isinstance(objective, str):
        objective = OBJECTIVES[objective]
    checkpoints = sorted(set(int(t) for t in t_list))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("t_list must contain horizons >= 1")
    if not 1 <= dims <= MAX_PROBE_DIMS:
        raise ValueError(f"dims must be in [1, MAX_PROBE_DIMS = {MAX_PROBE_DIMS}], got {dims}")
    if not 0 <= lr0 < math.inf:
        raise ValueError(f"lr0 must be finite and non-negative, got {lr0}")
    if len(seeds) * checkpoints[-1] > MAX_PROBE_STEPS:
        raise ValueError(
            f"{len(seeds)} seed(s) x {checkpoints[-1]} steps exceed MAX_PROBE_STEPS = {MAX_PROBE_STEPS}"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    sums = {t: 0.0 for t in checkpoints}
    for seed in seeds:
        f, theta0 = objective(dims, seed)
        rng = np.random.default_rng((seed, 0xC0FFEE))
        theta = Tensor(theta0.astype(np.float32))
        state = AdamWState(weight_decay=0.0)
        min_sq = math.inf
        mark = 0
        for t in range(checkpoints[-1]):
            loss, grad = f(theta.data.astype(np.float64))
            if not math.isfinite(loss):
                raise DivergenceError(f"objective diverged at step {t} (seed {seed})")
            min_sq = min(min_sq, float(grad @ grad))
            step_grad = grad + GRAD_NOISE * rng.standard_normal(grad.shape)
            # overflow in a diverging run surfaces as a non-finite loss above
            with np.errstate(over="ignore", invalid="ignore"):
                adamw_step(
                    {"theta": theta}, {"theta": step_grad.astype(np.float32)}, state, lr0 / math.sqrt(t + 1)
                )
            if t + 1 == checkpoints[mark]:
                sums[checkpoints[mark]] += min_sq
                mark += 1
    return [(t, sums[t] / len(seeds)) for t in checkpoints]


def fitted_loglog_slope(rows: Sequence[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(min grad norm^2) against log(T); None
    when the rows hold fewer than two distinct horizons, which fit no line."""
    if len({r[0] for r in rows}) < 2:
        return None
    t = np.log([r[0] for r in rows])
    v = np.log([max(r[1], 1e-300) for r in rows])
    return float(np.polyfit(t, v, 1)[0])


def probe_table(rows: Sequence[tuple[int, float]], slope: float | None) -> str:
    """Plain-text table plus one machine-readable `T value` record per line,
    then ``slope``, the rows' ``fitted_loglog_slope``."""
    lines = [f"{'T':>10}  {'min |grad|^2':>14}"]
    for t, v in rows:
        lines.append(f"{t:>10d}  {v:>14.6e}")
    lines.append("")
    lines.append(f"fitted log-log slope: {'n/a' if slope is None else f'{slope:.4f}'}")
    return "\n".join(lines)
