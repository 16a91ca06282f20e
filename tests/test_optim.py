import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_adamw, reference_clip
from hazardvlm import optim
from hazardvlm.optim import (
    AdamWState,
    FlatArrays,
    ScheduleConfig,
    adamw_step,
    clip_grad_norm,
    convergence_probe,
    fitted_loglog_slope,
    lr_at,
)
from hazardvlm.model import HazardModel, ModelConfig
from hazardvlm.tensor import Tensor


def test_zero_gradient_step_is_pure_decay():
    p = Tensor(np.array([1.0]))
    state = AdamWState(weight_decay=0.01)
    adamw_step({"p": p}, {"p": np.array([0.0])}, state, lr=0.1)
    assert p.data[0] == pytest.approx(0.999, abs=1e-9)


def test_first_step_sign_behavior():
    # bias correction cancels the (1 - beta) factors at t=1, so the first
    # update is -lr * g/|g| (eps ~ 0)
    p = Tensor(np.array([2.0]))
    state = AdamWState(weight_decay=0.0, eps=0.0)
    adamw_step({"p": p}, {"p": np.array([0.5])}, state, lr=0.01)
    assert p.data[0] == pytest.approx(2.0 - 0.01, abs=1e-9)
    assert state.t == 1


def _textbook_adam(theta, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_matches_textbook_adam_when_decay_is_zero():
    rng = np.random.default_rng(7)
    start = rng.standard_normal(5)
    grads_seq = [rng.standard_normal(5) for _ in range(10)]

    p = Tensor(start.copy(), dtype=np.float64)
    state = AdamWState(weight_decay=0.0)
    for g in grads_seq:
        adamw_step({"p": p}, {"p": g}, state, lr=0.05)

    expected = _textbook_adam(start, grads_seq, lr=0.05)
    np.testing.assert_allclose(p.data, expected, atol=1e-7)


def test_decay_displacement_independent_of_gradient():
    rng = np.random.default_rng(8)
    start = rng.standard_normal(4)
    g = rng.standard_normal(4)

    def displacement(grad):
        with_decay = Tensor(start.copy(), dtype=np.float64)
        without = Tensor(start.copy(), dtype=np.float64)
        adamw_step({"p": with_decay}, {"p": grad}, AdamWState(weight_decay=0.01), lr=0.1)
        adamw_step({"p": without}, {"p": grad}, AdamWState(weight_decay=0.0), lr=0.1)
        return with_decay.data - without.data

    d1 = displacement(g)
    d2 = displacement(10.0 * g)
    np.testing.assert_allclose(d1, d2, atol=1e-12)
    np.testing.assert_allclose(d1, -0.1 * 0.01 * start, atol=1e-12)


def test_moment_invariants():
    p = Tensor(np.ones((2, 3)))
    state = AdamWState()
    adamw_step({"p": p}, {"p": np.full((2, 3), -0.3, dtype=np.float32)}, state, lr=0.01)
    assert state.m["p"].shape == (2, 3)
    assert (state.v["p"] >= 0).all()
    with pytest.raises(ValueError):
        adamw_step({"p": p}, {"p": np.zeros(5, dtype=np.float32)}, state, lr=0.01)


@pytest.mark.parametrize("bad", ["missing", "misshapen", "moments"])
def test_adamw_step_checks_every_gradient_before_changing_anything(bad):
    params = {"a": Tensor(np.ones(3)), "b": Tensor(np.ones((2, 2)))}
    state = AdamWState()
    adamw_step(params, {"a": np.full(3, 0.5), "b": np.full((2, 2), -0.5)}, state, lr=0.1)
    before = (
        {n: p.data.copy() for n, p in params.items()},
        {n: m.copy() for n, m in state.m.items()},
        {n: v.copy() for n, v in state.v.items()},
    )
    grads = {"a": np.full(3, 0.5)}
    if bad != "missing":
        grads["b"] = np.zeros(4)
    # "moments": the right gradients, for other shapes than the moments were made over
    stepped = {"a": params["a"], "b": Tensor(np.ones(4))} if bad == "moments" else params
    with pytest.raises(ValueError, match="'b'"):
        adamw_step(stepped, grads, state, lr=0.1)
    assert (stepped["b"].data == 1.0).all() or stepped is params
    after = (
        {n: p.data for n, p in params.items()},
        dict(state.m),
        dict(state.v),
    )
    assert state.t == 1
    for was, now in zip(before, after):
        assert was.keys() == now.keys()
        for name in was:
            np.testing.assert_array_equal(was[name], now[name])
    # a fresh state gains no moments and no step
    fresh = AdamWState()
    with pytest.raises(ValueError):
        adamw_step(params, grads, fresh, lr=0.1)
    assert fresh.t == 0 and not fresh.m and not fresh.v


@pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
def test_adamw_step_rejects_a_learning_rate_that_is_negative_or_not_finite(lr):
    # NaN made every parameter NaN and inf made it -inf, with no error
    params = {"p": Tensor(np.ones(3))}
    state = AdamWState()
    adamw_step(params, {"p": np.full(3, 0.5)}, state, lr=0.1)
    before = params["p"].data.copy(), state.m.flat.copy(), state.v.flat.copy()
    with pytest.raises(ValueError, match=f"learning rate must be finite and non-negative, got {lr}"):
        adamw_step(params, {"p": np.full(3, 0.5)}, state, lr=lr)
    assert state.t == 1
    for was, now in zip(before, (params["p"].data, state.m.flat, state.v.flat)):
        np.testing.assert_array_equal(was, now)


@pytest.mark.parametrize("lr0", [math.nan, math.inf])
def test_probe_rejects_a_non_finite_lr0_before_building_an_objective(lr0):
    built = []

    def objective(dims, seed):
        built.append(seed)
        return optim.OBJECTIVES["quadratic"](dims, seed)

    with pytest.raises(ValueError, match=f"lr0 must be finite and non-negative, got {lr0}"):
        convergence_probe(objective, dims=2, t_list=[5], seeds=[0], lr0=lr0)
    assert built == []


def _default_model_params():
    """The default model's trainable tensors: 131 float32 tensors in 53
    runs of neighbours of equal size."""
    return HazardModel(ModelConfig(vocab_size=28), seed=0).trainable_tensors()


@pytest.mark.parametrize("scale", [1e-4, 0.1])  # below and above the cap
def test_flat_clip_and_adamw_match_the_per_tensor_versions_bitwise(scale):
    rng = np.random.default_rng(9)
    params = _default_model_params()
    ref_params = {n: Tensor(p.data.copy()) for n, p in params.items()}
    state, ref_state = AdamWState(), AdamWState()
    for step in range(3):
        grads = {n: (scale * rng.standard_normal(p.shape)).astype(np.float32) for n, p in params.items()}
        clipped, norm = clip_grad_norm(grads, max_norm=1.0)
        ref_clipped, ref_norm = reference_clip(grads, 1.0)
        assert norm == ref_norm
        assert (norm > 1.0) == (scale == 0.1)
        for name, g in ref_clipped.items():
            assert clipped[name].tobytes() == g.tobytes(), name
        adamw_step(params, clipped, state, lr=1e-2)
        reference_adamw(ref_params, ref_clipped, ref_state, lr=1e-2)
        assert state.t == ref_state.t == step + 1
        for name, p in ref_params.items():
            assert params[name].data.tobytes() == p.data.tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
    assert list(state.m) == list(ref_state.m) == list(params)


def test_moments_are_the_flat_arrays_the_step_updates():
    params = {"a": Tensor(np.ones(3)), "b": Tensor(np.ones((2, 2)))}
    grads = {"a": np.full(3, 0.5), "b": np.full((2, 2), -0.5)}
    state = AdamWState()
    adamw_step(params, grads, state, lr=0.1)
    m, v = state.m, state.v
    assert isinstance(m, FlatArrays) and isinstance(v, FlatArrays)
    assert list(m) == list(v) == list(params)
    m_before, v_before = m.flat.copy(), v.flat.copy()
    adamw_step(params, grads, state, lr=0.1)
    assert state.m is m and state.v is v  # updated in place
    assert not np.array_equal(m.flat, m_before) and not np.array_equal(v.flat, v_before)
    with pytest.raises(TypeError):
        state.m["a"] = np.zeros(3)


def test_adamw_step_takes_no_moments_but_its_own():
    # moments that no step made, such as plain dicts, are refused
    p = Tensor(np.ones(3))
    state = AdamWState(m={"p": np.zeros(3)}, v={"p": np.zeros(3)})
    with pytest.raises(ValueError, match="moment m is a dict"):
        adamw_step({"p": p}, {"p": np.full(3, 0.5)}, state, lr=0.1)
    assert state.t == 0 and (p.data == 1.0).all()


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def reported_schedule(total=300):
    w = total // 10
    return ScheduleConfig(base_lr=1e-4, warmup_start_lr=3e-5, warmup_steps=w, total_steps=total)


def test_schedule_reported_anchors():
    sched = reported_schedule()
    assert lr_at(sched, 0) == pytest.approx(3e-5, rel=1e-12)
    assert lr_at(sched, sched.warmup_steps) == pytest.approx(1e-4, rel=1e-12)
    assert lr_at(sched, sched.total_steps) <= 1e-10 * sched.base_lr


def test_schedule_cosine_midpoint_and_continuity():
    sched = reported_schedule()
    w, total = sched.warmup_steps, sched.total_steps
    mid = w + (total - w) // 2
    assert lr_at(sched, mid) == pytest.approx(0.5 * sched.base_lr, rel=1e-9)
    # linear segment extrapolated to W meets the cosine segment start
    ramp_at_w = sched.warmup_start_lr + (sched.base_lr - sched.warmup_start_lr) * w / w
    assert abs(ramp_at_w - lr_at(sched, w)) < 1e-12


def test_schedule_domain_errors():
    sched = reported_schedule()
    with pytest.raises(ValueError):
        lr_at(sched, -1)
    with pytest.raises(ValueError):
        lr_at(sched, sched.total_steps + 1)
    with pytest.raises(ValueError):
        ScheduleConfig(base_lr=1e-4, warmup_start_lr=3e-5, warmup_steps=300, total_steps=300)
    # NaN, negative and infinite rates were accepted: lr_at gave nan, -0.5 or inf
    for base_lr, warmup_start_lr in [(math.nan, 3e-5), (1e-4, math.nan), (-1.0, -2.0), (math.inf, 3e-5)]:
        with pytest.raises(ValueError, match="0 <= warmup_start_lr <= base_lr < inf"):
            ScheduleConfig(base_lr=base_lr, warmup_start_lr=warmup_start_lr, warmup_steps=0, total_steps=10)


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_schedule_monotone_after_warmup(t):
    sched = reported_schedule()
    if sched.warmup_steps <= t < sched.total_steps:
        assert lr_at(sched, t) >= lr_at(sched, t + 1)
    assert 0.0 <= lr_at(sched, t) <= sched.base_lr + 1e-18


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def test_clip_below_threshold_unchanged():
    g = {"a": np.array([0.3, 0.4], dtype=np.float32)}
    clipped, norm = clip_grad_norm(g, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(clipped["a"], g["a"])


def test_clip_scales_by_half():
    clipped, norm = clip_grad_norm({"a": np.array([2.0, 0.0])}, max_norm=1.0)
    assert norm == pytest.approx(2.0)
    np.testing.assert_allclose(clipped["a"], [1.0, 0.0])


def test_clip_zero_grads():
    clipped, norm = clip_grad_norm({"a": np.zeros(3)}, max_norm=1.0)
    assert norm == 0.0
    np.testing.assert_array_equal(clipped["a"], np.zeros(3))


def test_clip_rejects_non_finite():
    with pytest.raises(optim.DivergenceError):
        clip_grad_norm({"a": np.array([np.nan])})


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.lists(st.floats(-100, 100), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_clip_norm_bound_property(a, b):
    grads = {"a": np.array(a), "b": np.array(b)}
    clipped, _ = clip_grad_norm(grads, max_norm=1.0)
    norm = math.sqrt(sum(float(np.sum(g**2)) for g in clipped.values()))
    assert norm <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------

def test_probe_zero_gradient_at_optimum():
    def at_optimum(dims, seed):
        target = np.zeros(dims)

        def f(theta):
            d = theta - target
            return 0.5 * float(d @ d), d

        return f, target.copy()

    rows = convergence_probe(at_optimum, dims=3, t_list=[1], seeds=[0])
    assert rows[0][1] == 0.0


def test_probe_quadratic_trend_small():
    rows = convergence_probe("quadratic", dims=8, t_list=[100, 1000], seeds=[0, 1])
    assert rows[1][1] < rows[0][1]


def test_probe_logistic_runs():
    rows = convergence_probe("logistic", dims=4, t_list=[50, 200], seeds=[0])
    assert rows[1][1] <= rows[0][1]


def test_probe_slope_fit_on_synthetic_powerlaw():
    rows = [(10, 1.0), (100, 0.1), (1000, 0.01)]
    assert fitted_loglog_slope(rows) == pytest.approx(-1.0, abs=1e-9)


def test_probe_table_format():
    rows = [(100, 0.5), (1000, 0.05)]
    text = optim.probe_table(rows, fitted_loglog_slope(rows))
    assert "100" in text and "slope" in text
    assert len(text.splitlines()) == 5
