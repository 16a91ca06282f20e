import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardvlm import tensor as tz
from hazardvlm.objective import LossWeights, coord_loss, total_loss
from hazardvlm.tensor import Tape, Tensor


def test_coord_loss_zero_at_equality():
    assert coord_loss((Tensor(3.0), Tensor(4.0)), (3.0, 4.0)).item() == 0.0


def test_coord_loss_345_case():
    assert coord_loss((Tensor(3.0), Tensor(4.0)), (0.0, 0.0)).item() == pytest.approx(25.0)


def test_coord_loss_gradient_matches_closed_form():
    # d(total)/d(pred) = lambda_coord * 2 * (pred - truth)
    weights = LossWeights(lambda_coord=0.7, lambda_text=1.0)
    px = Tensor(5.0, requires_grad=True)
    py = Tensor(1.0, requires_grad=True)
    with Tape() as tape:
        closs = coord_loss((px, py), (2.0, 3.0))
        breakdown = total_loss(closs, Tensor(0.0), weights)
    tape.backward(breakdown.total)
    assert px.grad == pytest.approx(0.7 * 2.0 * (5.0 - 2.0), abs=1e-5)
    assert py.grad == pytest.approx(0.7 * 2.0 * (1.0 - 3.0), abs=1e-5)


def test_coord_loss_grad_check():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(2), requires_grad=True)

    def f(t):
        px, py = tz.slice_axis(t, 0, 0, 1), tz.slice_axis(t, 0, 1, 2)
        return coord_loss((tz.reshape(px, ()), tz.reshape(py, ())), (0.3, -0.2))

    assert tz.grad_check(f, x) < 1e-3


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_coord_loss_nonnegative_and_zero_iff_equal(x, y):
    assert coord_loss((Tensor(x), Tensor(y)), (x, y)).item() == 0.0
    assert coord_loss((Tensor(x + 1.0), Tensor(y)), (x, y)).item() > 0.0


def test_total_loss_zero_coord_weight():
    out = total_loss(Tensor(9.0), Tensor(1.5), LossWeights(0.0, 2.0))
    assert out.total.item() == pytest.approx(3.0)


def test_total_loss_unit_weights():
    out = total_loss(Tensor(2.5), Tensor(1.5), LossWeights(1.0, 1.0))
    assert out.total.item() == pytest.approx(4.0)


def test_total_loss_weighted_case():
    out = total_loss(Tensor(4.0), Tensor(1.0), LossWeights(0.5, 2.0))
    assert out.total.item() == pytest.approx(4.0)


def test_breakdown_identity_invariant():
    w = LossWeights(0.3, 1.7)
    out = total_loss(Tensor(2.0), Tensor(5.0), w)
    c, t, total = out.values()
    assert abs(total - (w.lambda_coord * c + w.lambda_text * t)) < 1e-6


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0.01, 5), st.floats(0.01, 5))
@settings(max_examples=80, deadline=None)
def test_total_loss_linear_in_parts(c, t, lc, lt):
    w = LossWeights(lc, lt)
    base = total_loss(Tensor(c), Tensor(t), w).total.item()
    doubled_c = total_loss(Tensor(2 * c), Tensor(t), w).total.item()
    assert doubled_c - base == pytest.approx(lc * c, rel=1e-5, abs=1e-5)


def test_total_loss_rejects_non_finite():
    with pytest.raises(tz.NonFiniteError):
        total_loss(Tensor(float("nan")), Tensor(1.0), LossWeights())


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        LossWeights(-1.0, 1.0)
