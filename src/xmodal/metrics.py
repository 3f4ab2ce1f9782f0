"""Binary-classification metrics and the per-subset aggregation protocol.

Scores are probability-of-fake; the fake class is the positive class.
Reports carry one row per subset plus two aggregates: the unweighted mean
over subsets and the pooled overall value (the right headline for
imbalanced collections).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import Label, ScoredPrediction, csv_text
from .errors import InputError

DEFAULT_THRESHOLD = 0.5


def _scores_labels(preds: Sequence[ScoredPrediction]) -> tuple[np.ndarray, np.ndarray]:
    if not preds:
        raise InputError("need at least one prediction")
    scores = np.asarray([p.score for p in preds], dtype=np.float64)
    labels = np.asarray([p.label.numeric for p in preds], dtype=np.int8)
    return scores, labels


@dataclass(frozen=True)
class PrfResult:
    precision: float
    recall: float
    f1: float
    precision_defined: bool
    recall_defined: bool


# Each metric is a one-line adapter over kernels on the columns ``_scores_labels`` makes.


def accuracy(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Fraction classified correctly; score >= threshold predicts fake."""
    return _accuracy(*_confusion(*_scores_labels(preds), threshold))


def balanced_accuracy(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Mean of per-class recalls; requires both classes present.

    Computed with a single division over integer counts so that on a
    class-balanced input it equals plain accuracy bit-for-bit.
    """
    return _balanced_accuracy(*_confusion(*_scores_labels(preds), threshold))


def average_precision(preds: Sequence[ScoredPrediction]) -> float:
    """Step-sum AP over distinct score thresholds, ties entering together."""
    return _average_precision(*_scores_labels(preds))


def precision_recall_f1(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> PrfResult:
    """Precision/recall/F1 on the fake class; zero denominators flag as 0."""
    return _precision_recall_f1(*_confusion(*_scores_labels(preds), threshold))


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


def _precision_recall_f1(tp: int, fp: int, fn: int, tn: int) -> PrfResult:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfResult(float(precision), float(recall), float(f1), tp + fp > 0, tp + fn > 0)


class Aggregation(Enum):
    MEAN_OVER_SUBSETS = "subset-mean"
    OVERALL_POOLED = "overall"


@dataclass(frozen=True)
class MetricRow:
    subset: str
    n_real: int
    n_fake: int
    acc: float
    balanced_acc: Optional[float]
    ap: Optional[float]
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Per-subset metric rows plus both aggregates, with a fixed column order."""

    rows: tuple[MetricRow, ...]
    mean_over_subsets: MetricRow
    overall_pooled: MetricRow
    threshold: float
    headline: Aggregation

    COLUMNS = tuple(f.name for f in fields(MetricRow))

    def headline_row(self) -> MetricRow:
        if self.headline is Aggregation.MEAN_OVER_SUBSETS:
            return self.mean_over_subsets
        return self.overall_pooled

    def to_csv_text(self) -> str:
        rows = self.rows + (self.mean_over_subsets, self.overall_pooled)
        return csv_text(self.COLUMNS, map(astuple, rows))

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "headline": self.headline.value,
            "subsets": [asdict(r) for r in self.rows],
            "mean_over_subsets": asdict(self.mean_over_subsets),
            "overall_pooled": asdict(self.overall_pooled),
        }


def _subset_row(
    subset: str, scores: np.ndarray, labels: np.ndarray, threshold: float
) -> MetricRow:
    counts = _confusion(scores, labels, threshold)
    tp, fp, fn, tn = counts
    prf = _precision_recall_f1(*counts)
    return MetricRow(subset, tn + fp, tp + fn, _accuracy(*counts),
                     _balanced_accuracy(*counts) if tp + fn and tn + fp else None,
                     _average_precision(scores, labels) if tp + fn else None,
                     prf.precision, prf.recall, prf.f1)


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
    headline: Aggregation = Aggregation.MEAN_OVER_SUBSETS,
) -> EvalReport:
    """Every subset row plus the mean-over-subsets and pooled aggregates."""
    return subset_report(*_scores_labels(preds), [p.subset for p in preds], threshold, headline)


def subset_report(
    scores: np.ndarray,
    labels: np.ndarray,
    subsets: Sequence[str],
    threshold: float,
    headline: Aggregation,
) -> EvalReport:
    """``per_subset_report`` of the predictions in columns: float64 scores in
    [0, 1], int8 label codes (real 0, fake 1) and each one's subset name."""
    if len(scores) == 0:
        raise InputError("need at least one prediction")
    names = sorted(set(subsets))
    code = {name: c for c, name in enumerate(names)}
    codes = np.fromiter((code[s] for s in subsets), dtype=np.intp, count=len(subsets))
    rows = tuple(
        _subset_row(name, scores[codes == c], labels[codes == c], threshold)
        for c, name in enumerate(names)
    )
    mean_row = MetricRow(
        subset="mean_over_subsets",
        n_real=sum(r.n_real for r in rows),
        n_fake=sum(r.n_fake for r in rows),
        acc=float(sum(r.acc for r in rows) / len(rows)),
        balanced_acc=_mean_or_none([r.balanced_acc for r in rows], "balanced_acc"),
        ap=_mean_or_none([r.ap for r in rows], "AP"),
        precision=float(sum(r.precision for r in rows) / len(rows)),
        recall=float(sum(r.recall for r in rows) / len(rows)),
        f1=float(sum(r.f1 for r in rows) / len(rows)),
    )
    pooled = _subset_row("overall_pooled", scores, labels, threshold)
    return EvalReport(rows, mean_row, pooled, threshold, headline)


# --- multi-frame video scoring ------------------------------------------------------


@dataclass(frozen=True)
class FrameScore:
    """Per-frame classifier output for one video."""

    video_id: str
    frame_index: int
    label: Label
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
    frames. ``logits`` holds video ``v``'s frames in order from ``starts[v]`` on."""
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
