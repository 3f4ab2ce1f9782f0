"""The columnar ``evaluate`` path matches the per-record one it replaced, bit for bit.

The ``ref_*`` functions below are the earlier per-record scoring (one
``FrameScore`` per record, videos grouped in a dict, each averaged on its
own) and the earlier ``ScoredPrediction``-list report with its loop AP, kept
as the reference. ``report.json`` and ``report.csv`` written by ``evaluate``
must equal the reference's bytes, and the video scores and AP values must
be ``np.array_equal`` to it.
"""

import json
import math
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import cli
from xmodal.core import LABELS, ScoredPrediction, csv_text
from xmodal.metrics import _average_precision
from xmodal.trainer import ToyModel, forward, save_checkpoint, train_config

# --- reference implementations ----------------------------------------------


@dataclass(frozen=True)
class RefFrame:
    video_id: str
    frame_index: int
    label: str
    subset: str
    logit: float


def ref_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def ref_select(n_frames, t):
    t = min(t, n_frames)
    raw = [(j + 0.5) * n_frames / t - 0.5 for j in range(t)]
    return sorted({min(n_frames - 1, int(math.floor(r + 0.5))) for r in raw})


def ref_video_prediction(frames, t):
    ordered = sorted(frames, key=lambda f: f.frame_index)
    assert len({f.label for f in ordered}) == 1 and len({f.subset for f in ordered}) == 1
    picked = [ordered[i] for i in ref_select(len(ordered), t)]
    score = ref_sigmoid(sum(f.logit for f in picked) / len(picked))
    return ScoredPrediction(min(1.0, max(0.0, score)), ordered[0].label, ordered[0].subset)


def ref_score_feature_records(model, feature_layer, records, t, block=cli.SCORE_BLOCK):
    singles = []
    for first in range(0, len(records), block):
        chunk = records[first : first + block]
        x = np.array([rec["x"] for rec in chunk], dtype=np.float64)
        logits = forward(model, x, feature_layer).logits
        for i, (rec, logit) in enumerate(zip(chunk, logits.tolist()), start=first):
            singles.append(RefFrame(
                video_id=str(rec.get("video_id") or f"__single_{i}"),
                frame_index=rec.get("frame_index") or 0,
                label=rec["label"],
                subset=rec["subset"],
                logit=logit,
            ))
    grouped = {}
    for f in singles:
        grouped.setdefault(f.video_id, []).append(f)
    return [ref_video_prediction(frames, t) for frames in grouped.values()]


def ref_average_precision(scores, labels):
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    ap, tp, seen, prev_recall, i, n = 0.0, 0, 0, 0.0, 0, len(scores)
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


def ref_row(subset, preds, threshold):
    scores = np.asarray([p.score for p in preds], dtype=np.float64)
    labels = np.asarray([LABELS.index(p.label) for p in preds], dtype=np.int8)
    predicted = (scores >= threshold).astype(np.int8)
    n_fake = int(labels.sum())
    n_real = len(preds) - n_fake
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    tn = int(np.sum((predicted == 0) & (labels == 0)))
    fp = int(np.sum((predicted == 1) & (labels == 0)))
    fn = int(np.sum((predicted == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return dict(
        subset=subset,
        n_real=n_real,
        n_fake=n_fake,
        acc=float((predicted == labels).mean()),
        balanced_acc=(tp * n_real + tn * n_fake) / (2 * n_fake * n_real)
        if labels.min() != labels.max() else None,
        ap=ref_average_precision(scores, labels) if n_fake else None,
        precision=float(precision),
        recall=float(recall),
        f1=float(2.0 * precision * recall / (precision + recall)
                 if precision + recall > 0 else 0.0),
    )


def ref_mean(values):
    present = [v for v in values if v is not None]
    return float(sum(present) / len(present)) if present else None


def ref_report(preds, threshold, headline):
    by_subset = {}
    for p in preds:
        by_subset.setdefault(p.subset, []).append(p)
    rows = [ref_row(name, group, threshold) for name, group in sorted(by_subset.items())]
    mean_row = dict(
        subset="mean_over_subsets",
        n_real=sum(r["n_real"] for r in rows),
        n_fake=sum(r["n_fake"] for r in rows),
        acc=float(sum(r["acc"] for r in rows) / len(rows)),
        balanced_acc=ref_mean([r["balanced_acc"] for r in rows]),
        ap=ref_mean([r["ap"] for r in rows]),
        precision=float(sum(r["precision"] for r in rows) / len(rows)),
        recall=float(sum(r["recall"] for r in rows) / len(rows)),
        f1=float(sum(r["f1"] for r in rows) / len(rows)),
    )
    return {"threshold": threshold, "headline": headline, "subsets": rows,
            "mean_over_subsets": mean_row,
            "overall_pooled": ref_row("overall_pooled", list(preds), threshold)}


def ref_csv(report):
    """report.csv of a reference report: every subset row, then both aggregates."""
    rows = [*report["subsets"], report["mean_over_subsets"], report["overall_pooled"]]
    return csv_text(list(rows[0]), [row.values() for row in rows])


# --- random feature files ---------------------------------------------------

D_IN = 6


@st.composite
def feature_docs(draw):
    """Shuffled records of single images and videos, with ties and short videos.

    ``x`` comes from a few base vectors, so distinct records often share a
    logit and videos often share a score. Some videos give their frame 0 a
    null or absent ``frame_index``, and with few records per subset some
    subsets hold one class only.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bases = rng.normal(scale=draw(st.sampled_from([0.5, 3.0])),
                       size=(draw(st.integers(1, 4)), D_IN)).round(3)
    subsets = ["a", "b", "c"][: draw(st.integers(1, 3))]
    records = []
    for v in range(draw(st.integers(1, 12))):
        label = draw(st.sampled_from(["real", "fake"]))
        subset = draw(st.sampled_from(subsets))
        n_frames = draw(st.integers(1, 6))
        video = draw(st.booleans())
        indices = sorted(rng.choice(12, size=n_frames, replace=False).tolist())
        for f in indices:
            rec = {"id": f"v{v}#{f}", "x": bases[rng.integers(len(bases))].tolist(),
                   "label": label, "modality": "video" if video else "image",
                   "subset": subset}
            if video:
                rec["video_id"] = f"vid{v}"
                rec["frame_index"] = f
                if f == 0:  # null and absent both read as frame 0
                    form = draw(st.sampled_from(["given", "null", "absent"]))
                    if form != "given":
                        rec["frame_index"] = None
                    if form == "absent":
                        del rec["frame_index"]
            elif draw(st.booleans()):
                rec["video_id"] = None
            records.append(rec)
            if not video:
                break
    order = rng.permutation(len(records))
    return {"records": [records[i] for i in order]}


def _evaluate_outputs(tmp, doc, argv_extra):
    checkpoint = tmp / "checkpoint.json"
    model = ToyModel.init(D_IN, 16, 8, np.random.default_rng(0))
    save_checkpoint(model, train_config({}), checkpoint)
    features = tmp / "features.json"
    features.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--checkpoint", str(checkpoint), "--features",
                     str(features), "--out", str(tmp / "eval"), *argv_extra]) == 0
    return model, {name: (tmp / "eval" / name).read_bytes()
                   for name in ("report.json", "report.csv")}


@given(
    feature_docs(),
    st.integers(1, 5),
    st.sampled_from(["subset-mean", "overall"]),
    st.sampled_from([0.5, 0.35]),
    st.sampled_from([cli.SCORE_BLOCK, 3]),
)
@settings(max_examples=80, deadline=None)
def test_report_bytes_equal_the_per_record_reference(doc, frames, aggregation, threshold,
                                                    block):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(cli, "SCORE_BLOCK", block):
        warnings.simplefilter("ignore", UserWarning)  # subsets with undefined AP
        tmp = Path(tmp)
        model, written = _evaluate_outputs(
            tmp, doc, ["--frames", str(frames), "--aggregation", aggregation,
                       "--threshold", str(threshold)])
        preds = ref_score_feature_records(model, "projection", doc["records"], frames,
                                          block)
        report = ref_report(preds, threshold, aggregation)
        cli._write_json(tmp / "ref.json", report)
        assert written["report.json"] == (tmp / "ref.json").read_bytes()
        assert written["report.csv"] == ref_csv(report).encode()

        scores, labels, subsets = cli._score_feature_records(
            model, "projection", doc["records"], frames)
        assert np.array_equal(scores, [p.score for p in preds])
        assert labels.tolist() == [LABELS.index(p.label) for p in preds]
        assert subsets == [p.subset for p in preds]


def test_ap_kernel_equals_the_loop():
    rng = np.random.default_rng(12)
    kernel, loop = [], []
    for _ in range(400):
        n = int(rng.integers(1, 300))
        # coarse grids force ties; the continuous draw gives hundreds of thresholds
        grid = int(rng.choice([2, 5, 50, 0]))
        scores = rng.integers(0, grid, n) / (grid - 1) if grid else rng.random(n)
        labels = rng.integers(0, 2, n).astype(np.int8)
        labels[rng.integers(n)] = 1
        kernel.append(_average_precision(scores, labels))
        loop.append(ref_average_precision(scores, labels))
    assert np.array_equal(kernel, loop)


def test_bench_sized_file_scores_equal_the_reference():
    """The benchmark file's layout at a fifth of its size: 1,200 single images and
    600 videos of 8 frames, shuffled, in three subsets."""
    rng = np.random.default_rng(5)
    records = [{"id": f"i{i}", "x": rng.normal(size=D_IN).tolist(),
                "label": "fake" if i % 2 else "real", "subset": f"s{i % 3}"}
               for i in range(1200)]
    shared = rng.normal(size=(600, 1, D_IN))
    xs = shared + rng.normal(size=(600, 8, D_IN))
    records += [{"id": f"v{v}#{f}", "x": xs[v, f].tolist(), "video_id": f"v{v}",
                 "frame_index": f, "label": "fake" if v % 2 else "real",
                 "subset": f"s{v % 3}"}
                for v in range(600) for f in range(8)]
    records = [records[i] for i in rng.permutation(len(records))]
    model = ToyModel.init(D_IN, 16, 8, np.random.default_rng(1))
    for frames in (1, 4, 8):
        preds = ref_score_feature_records(model, "projection", records, frames)
        scores, labels, subsets = cli._score_feature_records(
            model, "projection", records, frames)
        assert np.array_equal(scores, [p.score for p in preds])
        assert labels.tolist() == [LABELS.index(p.label) for p in preds]
        assert subsets == [p.subset for p in preds]
