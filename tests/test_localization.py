import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardvlm import tensor as tz
from hazardvlm.localization import (
    AttentionMap,
    PixelPoint,
    aggregate_heads,
    grid_to_pixel,
    hard_argmax,
    pixel_to_grid,
    predict_hazard,
    soft_argmax,
)
from hazardvlm.tensor import Tensor, grad_check


def amap(rows) -> AttentionMap:
    grid = np.asarray(rows, dtype=np.float32)
    return AttentionMap(Tensor(grid / grid.sum()))


def one_hot_map(h, w, gx, gy) -> AttentionMap:
    grid = np.zeros((h, w), dtype=np.float32)
    grid[gy, gx] = 1.0
    return AttentionMap(Tensor(grid))


# ---------------------------------------------------------------------------
# aggregate_heads
# ---------------------------------------------------------------------------

def test_aggregate_single_trivial_head():
    per_head = Tensor(np.ones((1, 1, 1), dtype=np.float32))
    out = aggregate_heads(per_head, (1, 1))
    assert out.grid.data.tolist() == [[1.0]]


def test_aggregate_two_heads_is_normalized_mean():
    rng = np.random.default_rng(0)
    m = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    n = rng.uniform(0.1, 1.0, (4, 4)).astype(np.float32)
    m /= m.sum(axis=1, keepdims=True)
    n /= n.sum(axis=1, keepdims=True)
    per_head = Tensor(np.stack([m, n]))
    out = aggregate_heads(per_head, (2, 2))
    expected = ((m + n) / 2).mean(axis=0)
    expected /= expected.sum()
    np.testing.assert_allclose(out.grid.data, expected.reshape(2, 2), rtol=1e-6)


def test_aggregate_uniform_heads_give_uniform_map():
    per_head = Tensor(np.full((3, 4, 4), 0.25, dtype=np.float32))
    out = aggregate_heads(per_head, (2, 2))
    np.testing.assert_allclose(out.grid.data, 0.25, atol=1e-7)


def test_aggregate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        aggregate_heads(Tensor(np.ones((2, 3, 4), dtype=np.float32)), (2, 2))
    with pytest.raises(ValueError):
        aggregate_heads(Tensor(np.ones((2, 3, 3), dtype=np.float32)), (2, 2))  # 3 positions, 4 cells


# ---------------------------------------------------------------------------
# hard argmax
# ---------------------------------------------------------------------------

def test_hard_argmax_one_hot():
    assert hard_argmax(one_hot_map(4, 4, gx=2, gy=1)) == (2, 1)


def test_hard_argmax_uniform_tie_break():
    assert hard_argmax(amap(np.ones((3, 3)))) == (0, 0)


def test_hard_argmax_hand_case():
    assert hard_argmax(amap([[0.1, 0.2], [0.3, 0.4]])) == (1, 1)


@given(st.integers(0, 2**32 - 1), st.floats(0.5, 4.0))
@settings(max_examples=50, deadline=None)
def test_hard_argmax_monotone_transform_invariance(seed, power):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.01, 1.0, (4, 4)).astype(np.float64)
    grid /= grid.sum()
    base = AttentionMap(Tensor(grid))
    # strictly monotone transforms preserve the argmax
    for transform in (lambda g: np.exp(g), lambda g: 3.0 * g, lambda g: g**power):
        moved = transform(grid)
        moved = moved / moved.sum()
        assert hard_argmax(AttentionMap(Tensor(moved))) == hard_argmax(base)


# ---------------------------------------------------------------------------
# soft argmax
# ---------------------------------------------------------------------------

def test_soft_argmax_one_hot():
    for tau in (1.0, 0.5, 0.1):
        gx, gy = soft_argmax(one_hot_map(4, 4, gx=2, gy=1), tau)
        assert gx.item() == pytest.approx(2.0, abs=1e-5)
        assert gy.item() == pytest.approx(1.0, abs=1e-5)


def test_soft_argmax_uniform_is_grid_center():
    gx, gy = soft_argmax(amap(np.ones((4, 4))), tau=0.5)
    assert gx.item() == pytest.approx(1.5, abs=1e-6)
    assert gy.item() == pytest.approx(1.5, abs=1e-6)


def test_soft_argmax_two_equal_masses_midpoint():
    grid = np.zeros((4, 4), dtype=np.float32)
    grid[0, 0] = 0.5
    grid[3, 3] = 0.5
    gx, gy = soft_argmax(AttentionMap(Tensor(grid)), tau=1.0)
    assert gx.item() == pytest.approx(1.5, abs=1e-5)
    assert gy.item() == pytest.approx(1.5, abs=1e-5)


def test_soft_argmax_requires_positive_tau():
    # at tau = inf the sharpened map is uniform and no gradient reaches the map
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            soft_argmax(amap(np.ones((2, 2))), tau=tau)


def test_soft_argmax_approaches_hard_argmax():
    rng = np.random.default_rng(3)
    grid = rng.uniform(0.01, 1.0, (5, 5))
    grid[2, 4] = 2.0  # unique max
    a = AttentionMap(Tensor((grid / grid.sum()).astype(np.float32)))
    hx, hy = hard_argmax(a)
    gaps = []
    for tau in (1.0, 0.1, 0.01):
        gx, gy = soft_argmax(a, tau)
        gaps.append(math.hypot(gx.item() - hx, gy.item() - hy))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.5


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_soft_argmax_stays_in_hull(seed, tau):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 1.0, (3, 5))
    grid[1, 2] += 0.1  # never all-zero
    a = AttentionMap(Tensor((grid / grid.sum()).astype(np.float32)))
    gx, gy = soft_argmax(a, tau)
    assert -1e-5 <= gx.item() <= 4 + 1e-5
    assert -1e-5 <= gy.item() <= 2 + 1e-5


def test_soft_argmax_is_differentiable():
    rng = np.random.default_rng(4)
    grid = rng.uniform(0.1, 1.0, (3, 3))
    x = Tensor((grid / grid.sum()).astype(np.float32), requires_grad=True)

    def f(t):
        gx, gy = soft_argmax(AttentionMap(t), tau=0.5)
        return tz.add(gx, gy)

    assert grad_check(f, x) < 1e-3


# ---------------------------------------------------------------------------
# grid <-> pixel
# ---------------------------------------------------------------------------

def test_grid_to_pixel_origin():
    assert grid_to_pixel((0, 0), patch_size=8, image_size=32) == PixelPoint(4.0, 4.0)


def test_grid_to_pixel_fractional():
    assert grid_to_pixel((1.5, 1.5), patch_size=8, image_size=32) == PixelPoint(16.0, 16.0)


def test_grid_to_pixel_clamps_to_image():
    pt = grid_to_pixel((31, 31), patch_size=1, image_size=32)
    assert pt == PixelPoint(31.0, 31.0)
    pt = grid_to_pixel((3, 3), patch_size=8, image_size=32)
    assert 0 <= pt.x <= 31 and 0 <= pt.y <= 31


def test_pixel_to_grid_inverts_grid_to_pixel():
    for g in ((0.0, 0.0), (1.25, 2.75), (3.0, 1.0)):
        pt = grid_to_pixel(g, patch_size=8, image_size=64)
        back = pixel_to_grid(pt, patch_size=8)
        assert back[0] == pytest.approx(g[0], abs=1e-9)
        assert back[1] == pytest.approx(g[1], abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_argmax_pixel_lands_inside_argmax_patch(seed):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.01, 1.0, (4, 4))
    a = AttentionMap(Tensor((grid / grid.sum()).astype(np.float32)))
    gx, gy = hard_argmax(a)
    pt = grid_to_pixel((gx, gy), patch_size=8, image_size=32)
    assert gx * 8 <= pt.x < (gx + 1) * 8
    assert gy * 8 <= pt.y < (gy + 1) * 8


# ---------------------------------------------------------------------------
# predict_hazard
# ---------------------------------------------------------------------------

class _CollapsedAttentionModel:
    """Stub exposing the encode_image surface with a fixed one-hot map."""

    def __init__(self, gx, gy):
        from hazardvlm.model import ModelConfig

        self.config = ModelConfig()
        self._gx, self._gy = gx, gy

    def encode_image(self, image):
        side = self.config.grid_side
        return None, one_hot_map(side, side, self._gx, self._gy)


def test_predict_hazard_composition():
    model = _CollapsedAttentionModel(gx=2, gy=3)
    pt = predict_hazard(model, image=None)
    assert pt == PixelPoint(20.0, 28.0)


def test_predict_hazard_infer_deterministic():
    from hazardvlm.model import HazardModel, ModelConfig

    model = HazardModel(ModelConfig(), seed=0)
    img = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 32, 32)).astype(np.float32))
    assert predict_hazard(model, img) == predict_hazard(model, img)
