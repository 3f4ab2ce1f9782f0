"""Binary-classification metrics and the per-subset aggregation protocol.

Scores are probability-of-fake; the fake class is the positive class.
Reports carry one row per subset plus two aggregates: the unweighted mean
over subsets and the pooled overall value (the right headline for
imbalanced collections).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import AGGREGATIONS, LABELS, ScoredPrediction, check_choice
from .errors import InputError, NumericalError

DEFAULT_THRESHOLD = 0.5


def _scores_labels(preds: Sequence[ScoredPrediction]) -> tuple[np.ndarray, np.ndarray]:
    if not preds:
        raise InputError("need at least one prediction")
    scores = np.asarray([p.score for p in preds], dtype=np.float64)
    labels = np.asarray([LABELS.index(p.label) for p in preds], dtype=np.int8)
    return scores, labels


def _confusion(
    scores: np.ndarray, labels: np.ndarray, threshold: float
) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) for the fake class; score >= threshold predicts fake."""
    flagged = scores >= threshold
    fake = labels == 1
    tp = int(np.count_nonzero(flagged & fake))
    fp = int(np.count_nonzero(flagged)) - tp
    fn = int(np.count_nonzero(fake)) - tp
    return tp, fp, fn, len(labels) - tp - fp - fn


def _accuracy(tp: int, fp: int, fn: int, tn: int) -> float:
    return (tp + tn) / (tp + fp + fn + tn)


def _balanced_accuracy(tp: int, fp: int, fn: int, tn: int) -> float:
    n_fake, n_real = tp + fn, tn + fp
    if not n_fake or not n_real:
        raise InputError("balanced accuracy needs both classes")
    return (tp * n_real + tn * n_fake) / (2 * n_fake * n_real)


def _average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    n_pos = int(np.count_nonzero(labels))
    if n_pos == 0:
        raise InputError("average precision needs at least one fake sample")
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    # the last position of each run of tied scores is one threshold
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp = np.cumsum(labels[order], dtype=np.int64)[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    terms = (recall - np.append(0.0, recall[:-1])) * precision
    # cumsum adds left to right, as the step sum is defined; np.sum adds pairwise
    return float(np.cumsum(terms)[-1])


def _precision_recall_f1(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 on the fake class; a zero denominator gives 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return float(precision), float(recall), float(f1)


# The report row that each headline aggregation reads
HEADLINE_ROWS = dict(zip(AGGREGATIONS, ("mean_over_subsets", "overall_pooled")))
# The columns of report.csv, and the keys of each row of report.json
REPORT_COLUMNS = ("subset", "n_real", "n_fake", "acc", "balanced_acc", "ap", "precision",
                  "recall", "f1")


def _subset_row(subset: str, scores: np.ndarray, labels: np.ndarray, threshold: float) -> dict:
    counts = _confusion(scores, labels, threshold)
    tp, fp, fn, tn = counts
    return dict(zip(REPORT_COLUMNS, (
        subset, tn + fp, tp + fn, _accuracy(*counts),
        _balanced_accuracy(*counts) if tp + fn and tn + fp else None,
        _average_precision(scores, labels) if tp + fn else None,
        *_precision_recall_f1(*counts))))


def _mean_or_none(values: list[Optional[float]], what: str) -> Optional[float]:
    present = [v for v in values if v is not None]
    if len(present) < len(values):
        warnings.warn(
            f"{len(values) - len(present)} subset(s) have undefined {what}; "
            "excluded from the subset mean",
            stacklevel=3,
        )
    return float(sum(present) / len(present)) if present else None


def per_subset_report(
    preds: Sequence[ScoredPrediction],
    threshold: float = DEFAULT_THRESHOLD,
    headline: str = "subset-mean",
) -> dict:
    """``subset_report`` of a list of predictions: the same report document."""
    check_choice(headline, "headline", AGGREGATIONS, "per_subset_report: ")
    return subset_report(*_scores_labels(preds), [p.subset for p in preds], threshold, headline)


def subset_report(
    scores: np.ndarray,
    labels: np.ndarray,
    subsets: Sequence[str],
    threshold: float,
    headline: str,
) -> dict:
    """The report document of predictions in columns: float64 scores in [0, 1],
    int8 label codes (real 0, fake 1) and each one's subset name.

    ``report.json`` is this document. It holds the ``threshold``, the
    ``headline`` aggregation, one of AGGREGATIONS, one row per subset in name
    order under ``subsets``, and the ``mean_over_subsets`` and
    ``overall_pooled`` rows; HEADLINE_ROWS names the row the headline reads. A
    row maps REPORT_COLUMNS, in order, to its values, and ``report.csv`` lists
    the rows in that order; a metric that a row's classes leave undefined is
    None, and the subset mean leaves it out, with a warning.
    """
    check_choice(headline, "headline", AGGREGATIONS, "subset_report: ")
    if len(scores) == 0:
        raise InputError("need at least one prediction")
    names = sorted(set(subsets))
    code = {name: c for c, name in enumerate(names)}
    codes = np.fromiter((code[s] for s in subsets), dtype=np.intp, count=len(subsets))
    rows = [_subset_row(name, scores[codes == c], labels[codes == c], threshold)
            for c, name in enumerate(names)]

    def mean(key: str) -> float:
        return float(sum(r[key] for r in rows) / len(rows))

    mean_row = {
        "subset": "mean_over_subsets",
        "n_real": sum(r["n_real"] for r in rows),
        "n_fake": sum(r["n_fake"] for r in rows),
        "acc": mean("acc"),
        "balanced_acc": _mean_or_none([r["balanced_acc"] for r in rows], "balanced_acc"),
        "ap": _mean_or_none([r["ap"] for r in rows], "AP"),
        **{key: mean(key) for key in ("precision", "recall", "f1")},
    }
    return {
        "threshold": threshold,
        "headline": headline,
        "subsets": rows,
        "mean_over_subsets": mean_row,
        "overall_pooled": _subset_row("overall_pooled", scores, labels, threshold),
    }


# --- multi-frame video scoring ------------------------------------------------------


@dataclass(frozen=True)
class FrameScore:
    """Per-frame classifier output for one video."""

    video_id: str
    frame_index: int
    label: str  # one of LABELS
    subset: str
    logit: float


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def select_frame_indices(n_frames: int, t: int) -> list[int]:
    """T uniformly spaced frame positions; T=1 picks the middle frame."""
    if n_frames < 1:
        raise InputError("video has no frames")
    if t < 1:
        raise ValueError("t must be >= 1")
    t = min(t, n_frames)
    raw = [(j + 0.5) * n_frames / t - 0.5 for j in range(t)]
    # raw is >= 0 here, so floor(r + 0.5) is round-half-away-from-zero
    return sorted({min(n_frames - 1, int(math.floor(r + 0.5))) for r in raw})


def video_scores(logits: np.ndarray, starts: np.ndarray, t: int) -> np.ndarray:
    """Each video's score: the clamped sigmoid of the mean logit of T uniformly spaced
    frames. ``logits`` holds video ``v``'s frames in order from ``starts[v]`` on.
    A non-finite logit raises NumericalError."""
    if not np.isfinite(logits).all():
        raise NumericalError(f"non-finite logit {logits[~np.isfinite(logits)][0]}")
    counts = np.diff(np.append(starts, len(logits)))
    scores = np.empty(len(starts))
    for n in set(counts.tolist()):
        videos = np.flatnonzero(counts == n)
        picked = logits[starts[videos, None] + np.array(select_frame_indices(n, t))]
        scores[videos] = [min(1.0, max(0.0, _sigmoid(sum(row) / len(row))))
                          for row in picked.tolist()]
    return scores


def multi_frame_average(frames: Sequence[FrameScore], t: int = 1) -> ScoredPrediction:
    """Average the logits of T uniformly spaced frames into one video score."""
    if not frames:
        raise InputError("video has no frames")
    ordered = sorted(frames, key=lambda f: f.frame_index)
    if len({(f.label, f.subset) for f in ordered}) != 1:
        raise InputError(
            f"video {ordered[0].video_id!r} has inconsistent label or subset tags"
        )
    logits = np.array([f.logit for f in ordered], dtype=np.float64)
    score = float(video_scores(logits, np.zeros(1, dtype=np.intp), t)[0])
    return ScoredPrediction(score, ordered[0].label, ordered[0].subset)


def group_frames(frames: Sequence[FrameScore]) -> dict[str, list[FrameScore]]:
    """Group per-frame scores by video id, preserving first-seen order."""
    grouped: dict[str, list[FrameScore]] = {}
    for f in frames:
        grouped.setdefault(f.video_id, []).append(f)
    return grouped
