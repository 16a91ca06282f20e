"""The benchmark's own arithmetic, checked against values worked out by hand.

    python3 -m pytest -q perfbench/test_bench_stats.py
"""

import math

import pytest

import bench_stats as bs


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [(0, 0.0, 10.0, None), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0)]
    assert bs.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = [(0, 0.0, 10.0, None), (1, 2.0, 6.0, 0), (2, 4.0, 8.0, 0)]
    assert bs.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_a_child_to_its_parent():
    spans = [(0, 0.0, 5.0, None), (1, 4.0, 7.0, 0)]
    assert bs.self_times(spans)[0] == pytest.approx(4.0)


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert bs.tail_percentile(n) == expected


def test_percentile_interpolates_inclusively():
    values = list(range(1, 102))  # 1..101: percentile p is p + 1
    assert bs.percentile(values, 90) == pytest.approx(91.0)
    assert bs.percentile(values, 50) == 51.0


def test_inclusive_quartiles_stay_inside_the_data():
    assert bs.inclusive_quartiles([7.0]) == (7.0, 7.0)
    assert bs.inclusive_quartiles([1.0, 3.0]) == (1.5, 2.5)
    assert bs.inclusive_quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


def test_relative_spread_is_iqr_over_median():
    q1, q2, q3 = bs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert bs.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# -- oracles -----------------------------------------------------------------

def test_expected_steps_rounds_partial_groups_up():
    assert bs.expected_steps(epochs=2, n=64, batch_size=1, grad_accum_steps=8) == 16
    assert bs.expected_steps(epochs=1, n=65, batch_size=1, grad_accum_steps=8) == 9
    assert bs.expected_steps(epochs=3, n=10, batch_size=3, grad_accum_steps=2) == 6


def test_schedule_warms_up_linearly_then_decays_by_half_cosine():
    # 10 steps, warmup round(0.2 * 10) = 2 steps from 0.1 to 1.0
    lrs = bs.schedule_lrs(10, warmup_frac=0.2, base_lr=1.0, warmup_start_lr=0.1)
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[1] == pytest.approx(0.55)
    assert lrs[2] == pytest.approx(1.0)
    # decay progress (t - 2) / 8: a quarter of the way gives (1 + cos(pi/4)) / 2
    assert lrs[4] == pytest.approx(0.5 * (1 + math.sqrt(0.5)))
    assert lrs[6] == pytest.approx(0.5)
    assert all(a > b for a, b in zip(lrs[2:], lrs[3:]))


def test_schedule_keeps_one_decay_step():
    # warmup_frac 1 would leave no decay; the warmup is cut to total - 1
    lrs = bs.schedule_lrs(4, warmup_frac=1.0, base_lr=1.0, warmup_start_lr=0.0)
    assert lrs == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])


def test_lora_trainable_count_by_hand():
    # default model: d 32, latent 16, ffn x4, 2 + 2 layers, rank 4
    # encoders: 8 (32x32) -> 8 * 4 * 64 = 2048
    # decoder: 2 * (3 * 4 * 64 + 4 * (16 + 32)) = 1920
    # last ffn out (128x32): 4 * 160 = 640; projectors 2 * 4 * 48 = 384
    # projector biases: 2 * 16
    assert bs.lora_trainable_count(32, 16, 4, 2, 2, 4) == 2048 + 1920 + 640 + 384 + 32


def test_lora_trainable_count_rank_one_single_layers():
    # d 2, latent 1, ffn x1, one layer each, rank 1:
    # encoders 4 * 4; decoder 3 * 4 + (1 + 2); ffn out 4; projectors 2 * 3; biases 2
    assert bs.lora_trainable_count(2, 1, 1, 1, 1, 1) == 16 + 15 + 4 + 6 + 2
