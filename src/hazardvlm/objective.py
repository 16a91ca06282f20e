"""Multi-task training objective: coordinate regression + text generation.

The coordinate term is a mean squared error over predicted vs. true
points; the text term is teacher-forced cross-entropy. Both are combined
as lambda_coord * coord + lambda_text * text. During training the
coordinate term is computed in grid units so its scale is comparable to
the text term (pixel-space MSE is an evaluation concern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import tensor as tz
from .tensor import Tensor


@dataclass(frozen=True)
class LossWeights:
    lambda_coord: float = 1.0
    lambda_text: float = 1.0

    def __post_init__(self):
        # written as `not <valid>`, so NaN fails too
        if not (0 <= self.lambda_coord < math.inf and 0 <= self.lambda_text < math.inf):
            raise ValueError(
                "loss weights must be finite and non-negative, got "
                f"lambda_coord = {self.lambda_coord}, lambda_text = {self.lambda_text}"
            )
        if self.lambda_coord == 0 and self.lambda_text == 0:
            raise ValueError("at least one of lambda_coord and lambda_text must be positive")


@dataclass
class LossBreakdown:
    """Scalar tensors for the two task losses and their weighted sum."""

    coord: Tensor
    text: Tensor
    total: Tensor

    def values(self) -> tuple[float, float, float]:
        return self.coord.item(), self.text.item(), self.total.item()


def _as_scalar_pair(point) -> tuple[Tensor, Tensor]:
    if isinstance(point, tuple) and isinstance(point[0], Tensor):
        return point
    # PixelPoint or plain (x, y) numbers become constants
    x, y = (point.x, point.y) if hasattr(point, "x") else (point[0], point[1])
    return Tensor(float(x)), Tensor(float(y))


def coord_loss(preds: Sequence, truths: Sequence) -> Tensor:
    """(1/N) * sum((x_hat - x)^2 + (y_hat - y)^2), differentiable in preds.

    Points may be (Tensor, Tensor) pairs from the soft-argmax path or
    plain PixelPoints/tuples (wrapped as constants).
    """
    if len(preds) != len(truths):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(truths)} truths")
    if not preds:
        raise ValueError("coord_loss over an empty batch")
    terms = []
    for pred, truth in zip(preds, truths):
        px, py = _as_scalar_pair(pred)
        tx, ty = _as_scalar_pair(truth)
        dx = tz.sub(px, tx)
        dy = tz.sub(py, ty)
        terms.append(tz.add(tz.mul(dx, dx), tz.mul(dy, dy)))
    total = terms[0]
    for t in terms[1:]:
        total = tz.add(total, t)
    return tz.scale(total, 1.0 / len(preds))


def total_loss(coord: Tensor, text: Tensor, weights: LossWeights) -> LossBreakdown:
    """Weighted sum, with the parts retained for logging."""
    for name, part in (("coord", coord), ("text", text)):
        if part.size != 1:
            raise ValueError(f"{name} loss must be scalar, got shape {part.shape}")
    combined = tz.add(
        tz.scale(coord, weights.lambda_coord), tz.scale(text, weights.lambda_text)
    )
    return LossBreakdown(coord=coord, text=text, total=combined)
