"""The benchmark's own arithmetic: quantiles, the ten-beyond percentile
rule, span self time, and the closed-form oracles its checks compare the
program against (learning-rate schedule, step count, LoRA trainable count).

Nothing here imports hazardvlm, so these formulas stay independent of the
code they check.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

# Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def inclusive_quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Inclusive-method lower and upper quartile, which stay inside the
    data range for any sample count (a single value is its own quartile)."""
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q1), float(q3)


def tail_percentile(n: int) -> int | None:
    """Highest percentile in TAIL_PERCENTILES with at least ten of ``n``
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: int) -> float:
    """Inclusive-method percentile ``p`` (0 < p < 100) of ``values``."""
    if p == 50:
        return median(values)
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def self_times(spans: Iterable[tuple[int, float, float, int | None]]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` holds (span id, start, end, parent id or None). Children of
    one parent may not overlap in a single-threaded run, but the union is
    taken anyway so an overlap is not subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, float] = {}
    for sid, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def expected_steps(epochs: int, n: int, batch_size: int, grad_accum_steps: int) -> int:
    """Optimizer steps of a training run: epochs * ceil(n / (batch * accum))."""
    return epochs * math.ceil(n / (batch_size * grad_accum_steps))


def schedule_lrs(
    total_steps: int, warmup_frac: float, base_lr: float, warmup_start_lr: float
) -> list[float]:
    """Learning rate at each optimizer step: a linear ramp from
    ``warmup_start_lr`` to ``base_lr`` over W = round(warmup_frac * total)
    steps (at most total - 1), then half-cosine decay from ``base_lr``
    towards 0 at ``total_steps``."""
    warmup = min(int(round(warmup_frac * total_steps)), total_steps - 1)
    lrs = []
    for t in range(total_steps):
        if t < warmup:
            lrs.append(warmup_start_lr + (base_lr - warmup_start_lr) * t / warmup)
        else:
            progress = (t - warmup) / (total_steps - warmup)
            lrs.append(base_lr * 0.5 * (1.0 + math.cos(math.pi * progress)))
    return lrs


def lora_trainable_count(
    embed_dim: int,
    latent_dim: int,
    ffn_mult: int,
    encoder_layers: int,
    decoder_layers: int,
    rank: int,
) -> int:
    """Parameters a LoRA fine-tune trains with linear projectors: r*(d_in +
    d_out) per adapted weight plus the two projector biases.

    Adapted weights: query and value of every vision and text encoder
    attention (d x d); query of every decoder self and cross attention and
    value of self attention (d x d); value of cross attention, which reads
    the latent (k x d); the last decoder feed-forward output (d*ffn x d);
    the image and text projectors (d x k).
    """
    d, k, r = embed_dim, latent_dim, rank
    shapes = [(d, d)] * (4 * encoder_layers)
    shapes += [(d, d), (d, d), (d, d), (k, d)] * decoder_layers
    shapes += [(d * ffn_mult, d), (d, k), (d, k)]
    return sum(r * (d_in + d_out) for d_in, d_out in shapes) + 2 * k
