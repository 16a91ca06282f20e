"""Text-overlap and localization metrics: BLEU-4, ROUGE-1/2/L, pixel MSE.

All text metrics operate on token sequences and depend only on token
equality. ROUGE scores are reported as F1. BLEU uses clipped n-gram
precision against one reference with a brevity penalty; zero counts are
always smoothed Lin-Och style (half count).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

Token = str | int
Tokens = Sequence[Token]


@dataclass
class MetricsReport:
    bleu4: float
    rouge1: float
    rouge2: float
    rougeL: float
    mse_pixels: float
    count: int

    def __post_init__(self):
        for name in ("bleu4", "rouge1", "rouge2", "rougeL"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.mse_pixels < 0:
            raise ValueError("mse_pixels must be non-negative")
        if self.count < 1:
            raise ValueError("report needs at least one sample")

    def as_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in asdict(self).items()]
        return "\n".join(lines) + "\n"

    def as_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def _ngrams(tokens: Tokens, n: int) -> Counter:
    # the i-th tuple zip yields is tokens[i : i + n]
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(cand: Counter, ref: Counter) -> int:
    """Size of the multiset intersection: min(cand, ref) summed per gram,
    without building the intersection Counter."""
    total = 0
    for gram, count in cand.items():
        other = ref.get(gram)
        if other:
            total += count if count < other else other
    return total


def bleu4(candidate: Tokens, reference: Tokens) -> float:
    """Geometric mean of clipped 1..4-gram precisions times brevity penalty."""
    if len(reference) == 0:
        raise ValueError("bleu4 requires a non-empty reference")
    if len(candidate) == 0:
        return 0.0
    cand_grams = [_ngrams(candidate, n) for n in range(1, 5)]
    ref_grams = [_ngrams(reference, n) for n in range(1, 5)]
    return _bleu4_counts(cand_grams, ref_grams, len(candidate), len(reference))


def _bleu4_counts(
    cand_grams: Sequence[Counter], ref_grams: Sequence[Counter], cand_len: int, ref_len: int
) -> float:
    """BLEU-4 of a non-empty candidate from its and the reference's 1..4-gram
    counts."""
    log_sum = 0.0
    for n, (cand, ref) in enumerate(zip(cand_grams, ref_grams), start=1):
        total = max(cand_len - n + 1, 0)
        overlap = _overlap(cand, ref)
        p = overlap / total if overlap > 0 else 1.0 / (2.0 * max(total, 1))
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    return bp * math.exp(log_sum / 4.0)


def _f1(overlap: float, cand_total: int, ref_total: int) -> float:
    if overlap == 0 or cand_total == 0 or ref_total == 0:
        return 0.0
    precision = overlap / cand_total
    recall = overlap / ref_total
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(candidate: Tokens, reference: Tokens, n: int) -> float:
    """F1 of clipped n-gram overlap; 0 when either side has no n-grams."""
    return _rouge_counts(_ngrams(candidate, n), _ngrams(reference, n), len(candidate), len(reference), n)


def _rouge_counts(cand: Counter, ref: Counter, cand_len: int, ref_len: int, n: int) -> float:
    return _f1(_overlap(cand, ref), max(cand_len - n + 1, 0), max(ref_len - n + 1, 0))


def rouge_l(candidate: Tokens, reference: Tokens) -> float:
    """F1 based on longest-common-subsequence length."""
    m, n = len(candidate), len(reference)
    if m == 0 or n == 0:
        return 0.0
    return _f1(_lcs_length(candidate, reference), m, n)


def _lcs_length(candidate: Tokens, reference: Tokens) -> int:
    """Length of the longest common subsequence, by the bit-parallel row
    update of the LCS table (Allison and Dix 1986; Hyyro 2004).

    Bit j of ``row`` is 1 where the table's current row does not step up
    at reference position j, so the row's last entry, the LCS so far, is
    the number of 0 bits. Each candidate token updates the whole row with
    a few big-int operations, through the mask of the reference positions
    that hold it."""
    masks: dict[Token, int] = {}
    for j, token in enumerate(reference):
        masks[token] = masks.get(token, 0) | 1 << j
    full = (1 << len(reference)) - 1
    row = full
    for token in candidate:
        matched = row & masks.get(token, 0)
        row = ((row + matched) | (row - matched)) & full
    return len(reference) - row.bit_count()


def pixel_mse(preds: Sequence, truths: Sequence) -> float:
    """Mean squared Euclidean distance between point pairs, pixel space."""
    if len(preds) != len(truths):
        raise ValueError(f"length mismatch: {len(preds)} predictions, {len(truths)} truths")
    if not preds:
        raise ValueError("pixel_mse over an empty list")
    total = 0.0
    for p, t in zip(preds, truths):
        total += (p.x - t.x) ** 2 + (p.y - t.y) ** 2
    return total / len(preds)


def corpus_report(
    references: Sequence[Tokens],
    truth_points: Sequence,
    candidates: Sequence[Tokens],
    pred_points: Sequence,
) -> MetricsReport:
    """Macro-average of per-sample metrics over aligned lists."""
    if not (len(references) == len(truth_points) == len(candidates) == len(pred_points)):
        raise ValueError("misaligned metric inputs")
    n = len(references)
    if n == 0:
        raise ValueError("corpus_report over an empty corpus")
    b = r1 = r2 = rl = 0.0
    for ref, cand in zip(references, candidates):
        if len(ref) == 0:
            raise ValueError("bleu4 requires a non-empty reference")
        # each sample's n-grams are counted once, for BLEU and ROUGE alike
        ref_grams = [_ngrams(ref, n) for n in range(1, 5)]
        cand_grams = [_ngrams(cand, n) for n in range(1, 5)]
        if cand:
            b += _bleu4_counts(cand_grams, ref_grams, len(cand), len(ref))
        r1 += _rouge_counts(cand_grams[0], ref_grams[0], len(cand), len(ref), 1)
        r2 += _rouge_counts(cand_grams[1], ref_grams[1], len(cand), len(ref), 2)
        rl += rouge_l(cand, ref)
    return MetricsReport(
        bleu4=b / n,
        rouge1=r1 / n,
        rouge2=r2 / n,
        rougeL=rl / n,
        mse_pixels=pixel_mse(pred_points, truth_points),
        count=n,
    )
