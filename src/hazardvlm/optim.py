"""AdamW with decoupled weight decay, warmup+cosine schedule, gradient
clipping, and an empirical probe of the min-gradient-norm decay rate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import Tensor


class DivergenceError(RuntimeError):
    """An optimization run produced a non-finite value."""


@dataclass
class AdamWState:
    """Per-parameter moment estimates plus shared hyperparameters."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


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
    """
    if lr < 0:
        raise ValueError(f"negative learning rate {lr}")
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for '{name}'")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        m_hat = m / c1
        v_hat = v / c2
        # decay displacement is taken from the pre-update parameter, so it is
        # independent of the gradient magnitude
        decay = lr * state.weight_decay * p.data
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.data -= decay


@dataclass
class ScheduleConfig:
    """Linear warmup into half-cosine decay over a fixed horizon."""

    base_lr: float = 1e-4
    warmup_start_lr: float = 3e-5
    warmup_steps: int = 0
    total_steps: int = 300

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        if self.warmup_start_lr > self.base_lr:
            raise ValueError("warmup_start_lr must not exceed base_lr")


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
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all grads so their global L2 norm is at most max_norm.

    Returns (clipped grads, pre-clip norm). Scaling is uniform across
    tensors, preserving gradient direction.
    """
    total = 0.0
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient before clipping")
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        clipped = {k: g * factor for k, g in grads.items()}
    else:
        clipped = dict(grads)
    return clipped, norm


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------
# The probe runs AdamW with the decaying schedule lr0/sqrt(t+1) (the
# infinite-horizon regime the sublinear min-grad-norm bound is stated for;
# the finite-horizon cosine schedule above does not satisfy it) and records
# the running minimum of the squared gradient norm.

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


def logistic_objective(dims: int, seed: int, n_points: int = 64) -> tuple[Objective, np.ndarray]:
    """Mean logistic loss on a random linearly separable-ish problem."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_points, dims))
    w_true = rng.standard_normal(dims)
    y = np.sign(x @ w_true + 0.1 * rng.standard_normal(n_points))
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
    grad_noise: float = 0.5,
) -> list[tuple[int, float]]:
    """Seed-averaged running-min squared gradient norm at each horizon in t_list.

    One trajectory per seed is run to max(t_list) with lr_t = lr0/sqrt(t+1)
    and weight decay 0 (decay shifts the stationary point away from the
    objective's). Steps use the objective's gradient plus Gaussian noise of
    scale ``grad_noise`` (the sublinear rate is a statement about stochastic
    gradients in expectation; the noise-free trajectory converges much
    faster); the recorded norm is of the exact gradient at the iterate.
    Divergence raises DivergenceError.
    """
    if isinstance(objective, str):
        objective = OBJECTIVES[objective]
    checkpoints = sorted(set(int(t) for t in t_list))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("t_list must contain horizons >= 1")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
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
            step_grad = grad + grad_noise * rng.standard_normal(grad.shape)
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


def probe_table(rows: Sequence[tuple[int, float]]) -> str:
    """Plain-text table plus one machine-readable `T value` record per line."""
    lines = [f"{'T':>10}  {'min |grad|^2':>14}"]
    for t, v in rows:
        lines.append(f"{t:>10d}  {v:>14.6e}")
    lines.append("")
    slope = fitted_loglog_slope(rows)
    lines.append(f"fitted log-log slope: {'n/a' if slope is None else f'{slope:.4f}'}")
    return "\n".join(lines)
