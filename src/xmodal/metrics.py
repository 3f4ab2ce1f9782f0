"""Binary-classification metrics and the per-subset aggregation protocol.

Scores are probability-of-fake; the fake class is the positive class.
Reports carry one row per subset plus two aggregates: the unweighted mean
over subsets and the pooled overall value (the right headline for
imbalanced collections).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import Label, ScoredPrediction
from .errors import (
    EmptyInputError,
    EmptyVideoError,
    InvalidSpecError,
    NoPositivesError,
    SingleClassInputError,
)

DEFAULT_THRESHOLD = 0.5


def _scores_labels(preds: Sequence[ScoredPrediction]) -> tuple[np.ndarray, np.ndarray]:
    if not preds:
        raise EmptyInputError("need at least one prediction")
    scores = np.asarray([p.score for p in preds], dtype=np.float64)
    labels = np.asarray([p.label.numeric for p in preds], dtype=np.int8)
    return scores, labels


def accuracy(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Fraction classified correctly; score >= threshold predicts fake."""
    scores, labels = _scores_labels(preds)
    predicted = (scores >= threshold).astype(np.int8)
    return float((predicted == labels).mean())


def balanced_accuracy(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> float:
    """Mean of per-class recalls; requires both classes present.

    Computed with a single division over integer counts so that on a
    class-balanced input it equals plain accuracy bit-for-bit.
    """
    scores, labels = _scores_labels(preds)
    if labels.min() == labels.max():
        raise SingleClassInputError("balanced accuracy needs both classes")
    predicted = (scores >= threshold).astype(np.int8)
    n_fake = int(np.sum(labels == 1))
    n_real = int(np.sum(labels == 0))
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    tn = int(np.sum((predicted == 0) & (labels == 0)))
    return (tp * n_real + tn * n_fake) / (2 * n_fake * n_real)


def average_precision(preds: Sequence[ScoredPrediction]) -> float:
    """Step-sum AP over distinct score thresholds, ties entering together."""
    scores, labels = _scores_labels(preds)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositivesError("average precision needs at least one fake sample")
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    ap = 0.0
    tp = 0
    seen = 0
    prev_recall = 0.0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and scores[j] == scores[i]:
            j += 1
        tp += int(labels[i:j].sum())
        seen += j - i
        recall = tp / n_pos
        precision = tp / seen
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(ap)


@dataclass(frozen=True)
class PrfResult:
    precision: float
    recall: float
    f1: float
    precision_defined: bool
    recall_defined: bool


def precision_recall_f1(
    preds: Sequence[ScoredPrediction], threshold: float = DEFAULT_THRESHOLD
) -> PrfResult:
    """Precision/recall/F1 on the fake class; zero denominators flag as 0."""
    scores, labels = _scores_labels(preds)
    predicted = (scores >= threshold).astype(np.int8)
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    fp = int(np.sum((predicted == 1) & (labels == 0)))
    fn = int(np.sum((predicted == 0) & (labels == 1)))
    precision_defined = (tp + fp) > 0
    recall_defined = (tp + fn) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if recall_defined else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return PrfResult(
        precision=float(precision),
        recall=float(recall),
        f1=float(f1),
        precision_defined=precision_defined,
        recall_defined=recall_defined,
    )


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

    COLUMNS = (
        "subset",
        "n_real",
        "n_fake",
        "acc",
        "balanced_acc",
        "ap",
        "precision",
        "recall",
        "f1",
    )

    def headline_row(self) -> MetricRow:
        if self.headline is Aggregation.MEAN_OVER_SUBSETS:
            return self.mean_over_subsets
        return self.overall_pooled

    def _row_values(self, row: MetricRow) -> list:
        return [
            row.subset,
            row.n_real,
            row.n_fake,
            row.acc,
            row.balanced_acc,
            row.ap,
            row.precision,
            row.recall,
            row.f1,
        ]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for row in self.rows + (self.mean_over_subsets, self.overall_pooled):
            writer.writerow(
                ["" if v is None else repr(v) if isinstance(v, float) else v
                 for v in self._row_values(row)]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        def row_doc(row: MetricRow) -> dict:
            return {col: getattr(row, col) for col in self.COLUMNS}

        return {
            "threshold": self.threshold,
            "headline": self.headline.value,
            "subsets": [row_doc(r) for r in self.rows],
            "mean_over_subsets": row_doc(self.mean_over_subsets),
            "overall_pooled": row_doc(self.overall_pooled),
        }


def _subset_row(
    subset: str, preds: list[ScoredPrediction], threshold: float
) -> MetricRow:
    labels = np.asarray([p.label.numeric for p in preds], dtype=np.int8)
    n_fake = int(labels.sum())
    n_real = len(preds) - n_fake
    try:
        bal = balanced_accuracy(preds, threshold)
    except SingleClassInputError:
        bal = None
    try:
        ap = average_precision(preds)
    except NoPositivesError:
        ap = None
    prf = precision_recall_f1(preds, threshold)
    return MetricRow(
        subset=subset,
        n_real=n_real,
        n_fake=n_fake,
        acc=accuracy(preds, threshold),
        balanced_acc=bal,
        ap=ap,
        precision=prf.precision,
        recall=prf.recall,
        f1=prf.f1,
    )


def _mean_or_none(values: list[Optional[float]], what: str) -> Optional[float]:
    present = [v for v in values if v is not None]
    if len(present) < len(values):
        warnings.warn(
            f"{len(values) - len(present)} subset(s) have undefined {what}; "
            "excluded from the subset mean",
            stacklevel=3,
        )
    if not present:
        return None
    return float(sum(present) / len(present))


def per_subset_report(
    preds: Sequence[ScoredPrediction],
    threshold: float = DEFAULT_THRESHOLD,
    headline: Aggregation = Aggregation.MEAN_OVER_SUBSETS,
) -> EvalReport:
    """Every subset row plus the mean-over-subsets and pooled aggregates."""
    if not preds:
        raise EmptyInputError("need at least one prediction")
    by_subset: dict[str, list[ScoredPrediction]] = {}
    for p in preds:
        by_subset.setdefault(p.subset, []).append(p)
    rows = tuple(
        _subset_row(name, group, threshold)
        for name, group in sorted(by_subset.items())
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
    pooled = _subset_row("overall_pooled", list(preds), threshold)
    return EvalReport(
        rows=rows,
        mean_over_subsets=mean_row,
        overall_pooled=pooled,
        threshold=threshold,
        headline=headline,
    )


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
        raise EmptyVideoError("video has no frames")
    if t < 1:
        raise ValueError("t must be >= 1")
    t = min(t, n_frames)
    raw = [(j + 0.5) * n_frames / t - 0.5 for j in range(t)]
    # raw is >= 0 here, so floor(r + 0.5) is round-half-away-from-zero
    picked = sorted({min(n_frames - 1, int(math.floor(r + 0.5))) for r in raw})
    return picked


def multi_frame_average(frames: Sequence[FrameScore], t: int = 1) -> ScoredPrediction:
    """Average the logits of T uniformly spaced frames into one video score."""
    if not frames:
        raise EmptyVideoError("video has no frames")
    ordered = sorted(frames, key=lambda f: f.frame_index)
    labels = {f.label for f in ordered}
    subsets = {f.subset for f in ordered}
    if len(labels) != 1 or len(subsets) != 1:
        raise InvalidSpecError(
            f"video {ordered[0].video_id!r} has inconsistent label or subset tags"
        )
    picked = [ordered[i] for i in select_frame_indices(len(ordered), t)]
    score = _sigmoid(sum(f.logit for f in picked) / len(picked))
    return ScoredPrediction(
        score=min(1.0, max(0.0, score)),
        label=ordered[0].label,
        subset=ordered[0].subset,
    )


def group_frames(frames: Sequence[FrameScore]) -> dict[str, list[FrameScore]]:
    """Group per-frame scores by video id, preserving first-seen order."""
    grouped: dict[str, list[FrameScore]] = {}
    for f in frames:
        grouped.setdefault(f.video_id, []).append(f)
    return grouped
