"""ROC AUC via the rank statistic (Mann-Whitney), ties at midrank."""
from __future__ import annotations

import numpy as np


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; equal scores share the mean of their rank block."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], len(s)) - 1  # inclusive; NaNs stand alone
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def roc_auc(scores, positive_mask) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), the area under the ROC curve."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positive_mask, dtype=bool)
    if scores.shape != pos.shape or scores.ndim != 1:
        raise ValueError("scores and positive_mask must be equal-length vectors")
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative")
    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def one_vs_rest_aucs(probs: np.ndarray, labels: np.ndarray,
                     classes) -> dict[str, float]:
    """Per-class AUC of each class's probability column against the rest."""
    return {
        c: roc_auc(probs[:, k], labels == c)
        for k, c in enumerate(classes)
    }
