"""Attention-map to hazard-coordinate conversion.

Inference uses the hard argmax of the map; training uses a differentiable
soft-argmax (re-sharpened by a temperature, then the expectation of the
grid coordinates). Grid cells map to pixels by the patch-center
convention: pixel = g * p + p/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor

LOG_EPS = 1e-8


@dataclass
class AttentionMap:
    """Non-negative spatial weight grid summing to 1 (within 1e-6), or a
    stack of such grids with one leading batch axis."""

    grid: Tensor

    def __post_init__(self):
        if self.grid.data.ndim not in (2, 3):
            raise ValueError(f"attention map must be 2-D or a stack of 2-D grids, got shape {self.grid.shape}")

    @property
    def height(self) -> int:
        return self.grid.shape[-2]

    @property
    def width(self) -> int:
        return self.grid.shape[-1]


@dataclass(frozen=True)
class PixelPoint:
    """Image coordinates: x horizontal (column), y vertical (row)."""

    x: float
    y: float


def aggregate_heads(per_head: Tensor, grid_shape: tuple[int, int]) -> AttentionMap:
    """Reduce h x n x n per-head attention to one mass per key position, or
    each of a B x h x n x n stack to a stack of B maps.

    Mean over heads, then over query positions, renormalized and reshaped
    to the patch grid ``grid_shape``. Stays on the tape, so training
    gradients flow back into the attention weights.
    """
    if per_head.data.ndim not in (3, 4) or per_head.shape[-2] != per_head.shape[-1]:
        raise ValueError(f"expected h x n x n attention or a stack of them, got {per_head.shape}")
    *lead, _, n, _ = per_head.shape
    if grid_shape[0] * grid_shape[1] != n:
        raise ValueError(f"grid {grid_shape} incompatible with {n} positions")
    mass = tz.mean(tz.mean(per_head, axis=-3), axis=-2)
    normalized = tz.div(mass, tz.tsum(mass, axis=-1, keepdims=True))
    return AttentionMap(tz.reshape(normalized, (*lead, *grid_shape)))


def hard_argmax(a: AttentionMap):
    """Grid cell (gx, gy) of the maximum entry, or one such cell per grid of
    a stack; ties take the first row-major occurrence."""
    grids = a.grid.data.reshape(-1, a.height * a.width)
    cells = [divmod(int(flat), a.width)[::-1] for flat in np.argmax(grids, axis=1)]
    return cells if a.grid.data.ndim == 3 else cells[0]


def soft_argmax(a: AttentionMap, tau: float) -> tuple[Tensor, Tensor]:
    """Differentiable surrogate: sharpened-map expectation of grid coords.

    The map is re-sharpened via softmax(log(A + eps)/tau); as tau -> 0 the
    result approaches hard_argmax on unique-max maps. Returns scalar
    tensors (gx, gy) carrying gradients.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    h, w = a.height, a.width
    logits = tz.scale(tz.log(tz.shift(a.grid, LOG_EPS)), 1.0 / tau)
    p = tz.softmax(tz.reshape(logits, (1, h * w)), axis=1)
    grid_x = np.tile(np.arange(w, dtype=np.float32), h).reshape(1, h * w)
    grid_y = np.repeat(np.arange(h, dtype=np.float32), w).reshape(1, h * w)
    gx = tz.tsum(tz.mul(p, Tensor(grid_x)))
    gy = tz.tsum(tz.mul(p, Tensor(grid_y)))
    return gx, gy


def grid_to_pixel(g: tuple[float, float], patch_size: int, image_size: int) -> PixelPoint:
    """Patch-center convention, clamped into the image."""
    gx, gy = g
    px = min(max(gx * patch_size + patch_size / 2.0, 0.0), image_size - 1.0)
    py = min(max(gy * patch_size + patch_size / 2.0, 0.0), image_size - 1.0)
    return PixelPoint(px, py)


def pixel_to_grid(point: PixelPoint, patch_size: int) -> tuple[float, float]:
    """Inverse of the patch-center mapping (continuous, unclamped)."""
    half = patch_size / 2.0
    return (point.x - half) / patch_size, (point.y - half) / patch_size


def predict_hazard(model, image) -> PixelPoint:
    """Hazard location from a model's attention map via hard argmax
    (deterministic)."""
    _, amap = model.encode_image(image)
    return grid_to_pixel(hard_argmax(amap), model.config.patch_size, model.config.image_size)
