"""Multi-task training objective: coordinate regression + text generation.

The coordinate term is the squared distance between one scene's predicted
and true point (training averages it over a micro-batch); the text term
is teacher-forced cross-entropy. Both are combined as
lambda_coord * coord + lambda_text * text. During training the
coordinate term is computed in grid units so its scale is comparable to
the text term (pixel-space MSE is an evaluation concern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def coord_loss(pred: tuple[Tensor, Tensor], truth: tuple[float, float]) -> Tensor:
    """(x_hat - x)^2 + (y_hat - y)^2 for one scene, differentiable in the
    soft-argmax point ``pred``; ``truth`` is a constant (x, y) pair."""
    px, py = pred
    dx = tz.sub(px, Tensor(float(truth[0])))
    dy = tz.sub(py, Tensor(float(truth[1])))
    return tz.add(tz.mul(dx, dx), tz.mul(dy, dy))


def total_loss(coord: Tensor, text: Tensor, weights: LossWeights) -> LossBreakdown:
    """Weighted sum, with the parts retained for logging."""
    for name, part in (("coord", coord), ("text", text)):
        if part.size != 1:
            raise ValueError(f"{name} loss must be scalar, got shape {part.shape}")
    combined = tz.add(
        tz.scale(coord, weights.lambda_coord), tz.scale(text, weights.lambda_text)
    )
    return LossBreakdown(coord=coord, text=text, total=combined)
