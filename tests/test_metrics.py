import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardvlm.localization import PixelPoint
from hazardvlm.metrics import MetricsReport, _lcs_length, _ngrams, bleu4, corpus_report, pixel_mse, rouge_l, rouge_n

tokens = st.lists(st.sampled_from("abcdef"), min_size=0, max_size=10)


# ---------------------------------------------------------------------------
# BLEU-4
# ---------------------------------------------------------------------------

def test_bleu_identical_long_enough():
    seq = "a b c d e".split()
    assert bleu4(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_bleu_empty_candidate():
    assert bleu4([], "a b".split()) == 0.0


def test_bleu_empty_reference_is_error():
    with pytest.raises(ValueError):
        bleu4("a b".split(), [])


def test_bleu_worked_example():
    # p1=4/5, p2=3/4, p3=2/3, p4=1/2, BP=1 -> 0.2 ** 0.25
    cand = "a b c d e".split()
    ref = "a b c d f".split()
    assert bleu4(cand, ref) == pytest.approx(0.2**0.25, abs=1e-9)


def test_bleu_brevity_penalty():
    cand = "a b c d".split()
    ref = "a b c d e f g h".split()
    expected_bp = np.exp(1 - 8 / 4)
    assert bleu4(cand, ref) == pytest.approx(expected_bp, abs=1e-9)


def test_bleu_smoothing_inert_on_positive_counts():
    # every n-gram order matches, so the score is the unsmoothed mean of the
    # clipped precisions; the longer candidate takes no brevity penalty
    cand = "a b c d a b".split()
    ref = "a b c d".split()
    assert bleu4(cand, ref) == pytest.approx((4 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25, abs=1e-12)


def test_bleu_smoothing_handles_zero_fourgrams():
    # p1 = 2/3, p2 = 1/2; no 3-gram matches and there is no 4-gram, so
    # each takes a half count over max(total, 1) = 1
    cand = "a b c".split()
    ref = "a b d".split()
    assert bleu4(cand, ref) == pytest.approx((2 / 3 * 1 / 2 * 1 / 2 * 1 / 2) ** 0.25, abs=1e-12)


def test_bleu_clipping_counts_repeats():
    # candidate repeats a token beyond its reference count
    cand = "a a a".split()
    ref = "a b".split()
    score = bleu4(cand, ref)
    assert 0.0 < score < 0.5


# ---------------------------------------------------------------------------
# ROUGE
# ---------------------------------------------------------------------------

def test_rouge_n_identical():
    seq = "a b c".split()
    assert rouge_n(seq, seq, 1) == 1.0
    assert rouge_n(seq, seq, 2) == 1.0


def test_rouge_n_disjoint():
    assert rouge_n("a b".split(), "c d".split(), 1) == 0.0


def test_rouge_1_worked_example():
    assert rouge_n("a b c".split(), "a c d".split(), 1) == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_l_identical():
    assert rouge_l("a b c d".split(), "a b c d".split()) == 1.0


def test_rouge_l_worked_example():
    # LCS("a b c d", "a c d") = 3 -> R=1, P=3/4, F1=6/7
    assert rouge_l("a b c d".split(), "a c d".split()) == pytest.approx(6 / 7, abs=1e-9)


def test_rouge_l_reversed_sequence():
    cand = "a b c d".split()
    assert rouge_l(cand, list(reversed(cand))) == pytest.approx(1 / 4, abs=1e-12)


def test_rouge_l_bigram_equal_multiset_counterexample():
    # "a b a" vs "b a b" share the same bigram multiset (ROUGE-2 F1 = 1)
    # yet differ as sequences; the LCS is 2, so ROUGE-L is 2/3.
    cand, ref = "a b a".split(), "b a b".split()
    assert rouge_n(cand, ref, 2) == 1.0
    assert rouge_l(cand, ref) == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_l_empty_sides():
    assert rouge_l([], "a".split()) == 0.0
    assert rouge_l("a".split(), []) == 0.0


# ---------------------------------------------------------------------------
# pixel MSE
# ---------------------------------------------------------------------------

def test_pixel_mse_zero():
    pts = [PixelPoint(1, 2), PixelPoint(3, 4)]
    assert pixel_mse(pts, pts) == 0.0


def test_pixel_mse_345_case():
    assert pixel_mse([PixelPoint(3, 4)], [PixelPoint(0, 0)]) == pytest.approx(25.0)


def test_pixel_mse_errors():
    with pytest.raises(ValueError):
        pixel_mse([PixelPoint(0, 0)], [])
    with pytest.raises(ValueError):
        pixel_mse([], [])


# ---------------------------------------------------------------------------
# corpus report
# ---------------------------------------------------------------------------

def _perfect_corpus(n):
    refs = [f"the area around ({i}, {i}) looks risky".split() for i in range(n)]
    pts = [PixelPoint(float(i), float(i)) for i in range(n)]
    return refs, pts


def test_corpus_all_perfect():
    refs, pts = _perfect_corpus(4)
    report = corpus_report(refs, pts, refs, pts)
    assert (report.bleu4, report.rouge1, report.rouge2, report.rougeL) == (1.0, 1.0, 1.0, 1.0)
    assert report.mse_pixels == 0.0
    assert report.count == 4


def test_corpus_macro_average():
    refs = ["a b c d".split(), "a b c d".split()]
    cands = ["a b c d".split(), []]  # BLEU 1.0 and 0.0
    pts = [PixelPoint(0, 0), PixelPoint(0, 0)]
    report = corpus_report(refs, pts, cands, pts)
    assert report.bleu4 == pytest.approx(0.5)


def test_corpus_misalignment_error():
    refs, pts = _perfect_corpus(3)
    with pytest.raises(ValueError):
        corpus_report(refs, pts[:2], refs, pts)


def test_report_validation_and_serialization():
    report = MetricsReport(bleu4=0.5, rouge1=0.6, rouge2=0.4, rougeL=0.6, mse_pixels=12.5, count=10)
    text = report.as_text()
    assert "bleu4 = 0.5" in text and "mse_pixels = 12.5" in text
    parsed = json.loads(report.as_json())
    assert parsed["count"] == 10
    with pytest.raises(ValueError):
        MetricsReport(bleu4=1.5, rouge1=0, rouge2=0, rougeL=0, mse_pixels=0, count=1)
    with pytest.raises(ValueError):
        MetricsReport(bleu4=0, rouge1=0, rouge2=0, rougeL=0, mse_pixels=-1, count=1)
    with pytest.raises(ValueError):
        MetricsReport(bleu4=0, rouge1=0, rouge2=0, rougeL=0, mse_pixels=0, count=0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(tokens, tokens)
@settings(max_examples=150, deadline=None)
def test_metrics_bounded(cand, ref):
    if ref:
        assert 0.0 <= bleu4(cand, ref) <= 1.0
    assert 0.0 <= rouge_n(cand, ref, 1) <= 1.0
    assert 0.0 <= rouge_n(cand, ref, 2) <= 1.0
    assert 0.0 <= rouge_l(cand, ref) <= 1.0


@given(tokens, tokens, st.permutations(list("abcdef")))
@settings(max_examples=120, deadline=None)
def test_metrics_invariant_under_relabeling(cand, ref, permuted):
    relabel = dict(zip("abcdef", permuted))
    cand2 = [relabel[t] for t in cand]
    ref2 = [relabel[t] for t in ref]
    if ref:
        assert bleu4(cand, ref) == pytest.approx(bleu4(cand2, ref2), abs=1e-12)
    assert rouge_n(cand, ref, 1) == pytest.approx(rouge_n(cand2, ref2, 1), abs=1e-12)
    assert rouge_n(cand, ref, 2) == pytest.approx(rouge_n(cand2, ref2, 2), abs=1e-12)
    assert rouge_l(cand, ref) == pytest.approx(rouge_l(cand2, ref2), abs=1e-12)


@given(tokens)
@settings(max_examples=80, deadline=None)
def test_identical_sequences_score_one(seq):
    if not seq:
        return
    assert rouge_n(seq, seq, 1) == 1.0
    assert rouge_l(seq, seq) == 1.0
    if len(seq) >= 4:  # shorter sequences have no 4-grams to match
        assert bleu4(seq, seq) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the counting implementation against the per-gram formulation
# ---------------------------------------------------------------------------

def _reference_ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _reference_clipped_overlap(cand, ref):
    # a Python min for every candidate n-gram
    return sum(min(count, ref[gram]) for gram, count in cand.items())


def _reference_bleu4(candidate, reference):
    if len(candidate) == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand = _reference_ngrams(candidate, n)
        total = sum(cand.values())
        overlap = _reference_clipped_overlap(cand, _reference_ngrams(reference, n))
        p = overlap / total if overlap > 0 else 1.0 / (2.0 * max(total, 1))
        log_sum += math.log(p)
    return min(1.0, math.exp(1.0 - len(reference) / len(candidate))) * math.exp(log_sum / 4.0)


def _reference_rouge_n(candidate, reference, n):
    cand, ref = _reference_ngrams(candidate, n), _reference_ngrams(reference, n)
    overlap = _reference_clipped_overlap(cand, ref)
    cand_total, ref_total = sum(cand.values()), sum(ref.values())
    if overlap == 0 or cand_total == 0 or ref_total == 0:
        return 0.0
    precision, recall = overlap / cand_total, overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def _reference_lcs(a, b):
    """The O(len(a) * len(b)) dynamic program over the LCS table, one
    rolling row: the oracle for rouge_l's bit-parallel update."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def _reference_rouge_l(candidate, reference):
    lcs = _reference_lcs(candidate, reference)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(candidate), lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


nonempty = st.lists(st.sampled_from("abcd"), min_size=1, max_size=12)


@given(st.lists(st.sampled_from("abcd"), max_size=12), nonempty)
@settings(max_examples=200, deadline=None)
def test_bleu4_and_rouge_n_give_the_bits_of_per_gram_clipping(cand, ref):
    assert bleu4(cand, ref) == _reference_bleu4(cand, ref)
    for n in (1, 2, 3):
        assert rouge_n(cand, ref, n) == _reference_rouge_n(cand, ref, n)


@given(st.lists(st.tuples(st.lists(st.sampled_from("abcd"), max_size=12), nonempty), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_corpus_report_gives_the_bits_of_per_metric_calls(pairs):
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    pts = [PixelPoint(float(i), 2.0 * i) for i in range(len(pairs))]
    preds = [PixelPoint(1.5 * i, 0.5) for i in range(len(pairs))]
    report = corpus_report(refs, pts, cands, preds)
    b = r1 = r2 = rl = 0.0
    for cand, ref in pairs:
        b += _reference_bleu4(cand, ref)
        r1 += _reference_rouge_n(cand, ref, 1)
        r2 += _reference_rouge_n(cand, ref, 2)
        rl += _reference_rouge_l(cand, ref)
    n = len(pairs)
    assert (report.bleu4, report.rouge1, report.rouge2, report.rougeL) == (b / n, r1 / n, r2 / n, rl / n)


# str and int tokens from small alphabets, so sequences repeat tokens;
# either side may be empty
def _token_lists(min_size=0):
    alphabet = st.one_of(st.just("ab"), st.just(("a", "b", "c", 1, 2)), st.just((0, 1, 2, 3, 4, 5)))
    return alphabet.flatmap(lambda a: st.lists(st.sampled_from(a), min_size=min_size, max_size=20))


@given(_token_lists(), _token_lists(), _token_lists(min_size=1))
@settings(max_examples=300, deadline=None)
def test_metrics_give_the_bits_of_the_reference_implementations(cand, ref, nonempty_ref):
    for n in range(1, 6):
        assert _ngrams(cand, n) == _reference_ngrams(cand, n)
    assert _lcs_length(cand, ref) == _reference_lcs(cand, ref)
    assert rouge_l(cand, ref) == _reference_rouge_l(cand, ref)
    for n in (1, 2):
        assert rouge_n(cand, ref, n) == _reference_rouge_n(cand, ref, n)
    assert bleu4(cand, nonempty_ref) == _reference_bleu4(cand, nonempty_ref)
    refs, cands = [nonempty_ref, nonempty_ref], [cand, ref]
    pts = [PixelPoint(0.0, 1.0), PixelPoint(2.0, 0.5)]
    report = corpus_report(refs, pts, cands, pts)
    n = len(refs)
    want = (
        sum(_reference_bleu4(c, r) for c, r in zip(cands, refs)) / n,
        sum(_reference_rouge_n(c, r, 1) for c, r in zip(cands, refs)) / n,
        sum(_reference_rouge_n(c, r, 2) for c, r in zip(cands, refs)) / n,
        sum(_reference_rouge_l(c, r) for c, r in zip(cands, refs)) / n,
    )
    assert (report.bleu4, report.rouge1, report.rouge2, report.rougeL) == want


@pytest.mark.parametrize("length", [63, 64, 65, 200])
def test_lcs_past_one_machine_word(length):
    # the bit rows are Python ints, so a reference longer than 64 tokens works
    rng = np.random.default_rng(length)
    cand, ref = rng.integers(0, 4, length).tolist(), rng.integers(0, 4, length + 7).tolist()
    assert _lcs_length(cand, ref) == _reference_lcs(cand, ref)
    assert _lcs_length(ref, cand) == _reference_lcs(ref, cand)


def test_corpus_report_rejects_an_empty_reference():
    pts = [PixelPoint(0.0, 0.0)] * 2
    with pytest.raises(ValueError, match="non-empty reference"):
        corpus_report([["a"], []], pts, [["a"], ["b"]], pts)
