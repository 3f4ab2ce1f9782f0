"""Classification metrics vs brute-force oracles; aggregation; frame averaging."""

import math

import numpy as np
import pytest

from xmodal.core import ScoredPrediction
from xmodal.errors import InputError, NumericalError
from xmodal.metrics import (
    REPORT_COLUMNS,
    FrameScore,
    _accuracy,
    _average_precision,
    _balanced_accuracy,
    _confusion,
    _precision_recall_f1,
    group_frames,
    multi_frame_average,
    per_subset_report,
    select_frame_indices,
)


def preds(scores, labels, subset="s"):
    return [
        ScoredPrediction(score=s, label="fake" if l else "real", subset=subset)
        for s, l in zip(scores, labels)
    ]


def pooled(scores, labels):
    """The ``overall_pooled`` row of the report document on the predictions."""
    return per_subset_report(preds(scores, labels))["overall_pooled"]


def columns(scores, labels):
    """The kernels' float64 score and int8 label columns."""
    return np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int8)


def counts(scores, labels, threshold=0.5):
    return _confusion(*columns(scores, labels), threshold)


# --- independent oracles (deliberately plain loops, no vectorization) ---------


def oracle_accuracy(scores, labels, threshold=0.5):
    correct = 0
    for s, l in zip(scores, labels):
        predicted = 1 if s >= threshold else 0
        if predicted == l:
            correct += 1
    return correct / len(scores)


def oracle_balanced_accuracy(scores, labels, threshold=0.5):
    recalls = []
    for cls in (0, 1):
        hits = total = 0
        for s, l in zip(scores, labels):
            if l != cls:
                continue
            total += 1
            predicted = 1 if s >= threshold else 0
            if predicted == cls:
                hits += 1
        recalls.append(hits / total)
    return sum(recalls) / 2.0


def oracle_average_precision(scores, labels):
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        flagged = sum(1 for s in scores if s >= t)
        precision = tp / flagged
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def oracle_prf(scores, labels, threshold=0.5):
    tp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 1)
    fp = sum(1 for s, l in zip(scores, labels) if s >= threshold and l == 0)
    fn = sum(1 for s, l in zip(scores, labels) if s < threshold and l == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def random_instance(rng):
    n = int(rng.integers(2, 51))
    # coarse score grid forces plenty of ties
    scores = rng.integers(0, 6, n) / 5.0
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[rng.integers(0, n)] = 1
    if labels.sum() == n:
        labels[rng.integers(0, n)] = 0
    return scores.tolist(), labels.tolist()


class TestAccuracy:
    def test_all_correct(self):
        assert pooled([0.9, 0.1], [1, 0])["acc"] == 1.0

    def test_all_wrong(self):
        assert pooled([0.9, 0.1], [0, 1])["acc"] == 0.0

    def test_tie_goes_to_fake(self):
        assert _accuracy(*counts([0.5], [1])) == 1.0
        assert _accuracy(*counts([0.5], [0])) == 0.0

    def test_empty(self):
        with pytest.raises(InputError, match="need at least one prediction"):
            per_subset_report([])

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores, labels = random_instance(rng)
            assert pooled(scores, labels)["acc"] == oracle_accuracy(scores, labels)


class TestBalancedAccuracy:
    def test_all_real_prediction_on_balanced_set(self):
        assert pooled([0.1] * 4, [0, 0, 1, 1])["balanced_acc"] == 0.5

    def test_perfect(self):
        assert pooled([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0])["balanced_acc"] == 1.0

    def test_imbalance_exposed(self):
        scores = [0.1] * 90 + [0.1] * 10
        labels = [0] * 90 + [1] * 10
        row = pooled(scores, labels)
        assert row["acc"] == pytest.approx(0.9)
        assert row["balanced_acc"] == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="balanced accuracy needs both classes"):
            _balanced_accuracy(*counts([0.5, 0.6], [1, 1]))
        # the report leaves it undefined instead
        with pytest.warns(UserWarning, match="undefined balanced_acc"):
            assert pooled([0.5, 0.6], [1, 1])["balanced_acc"] is None

    def test_duplication_invariance(self):
        scores, labels = [0.8, 0.3, 0.6, 0.2], [1, 0, 0, 1]
        base = pooled(scores, labels)["balanced_acc"]
        doubled = pooled(scores * 2, labels * 2)["balanced_acc"]
        assert base == doubled

    def test_equals_accuracy_on_balanced_sets_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            labels = [0] * n + [1] * n
            scores = (rng.integers(0, 4, 2 * n) / 3.0).tolist()
            row = pooled(scores, labels)
            assert row["balanced_acc"] == row["acc"]
        # counts known to expose one-ulp drift under the two-division formula
        labels = [1, 1, 1, 0, 0, 0]
        scores = [0.9, 0.9, 0.1, 0.1, 0.1, 0.1]  # tp=2, tn=3
        row = pooled(scores, labels)
        assert row["balanced_acc"] == row["acc"] == 5 / 6

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores, labels = random_instance(rng)
            assert pooled(scores, labels)["balanced_acc"] == pytest.approx(
                oracle_balanced_accuracy(scores, labels), abs=1e-12
            )


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert pooled([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0])["ap"] == 1.0

    def test_hand_derived_interleaved(self):
        ap = pooled([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])["ap"]
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_all_tied_equals_prevalence(self):
        ap = pooled([0.5] * 8, [1, 1, 1, 1, 0, 0, 0, 0])["ap"]
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(InputError, match="average precision needs at least one fake"):
            _average_precision(*columns([0.5, 0.6], [0, 0]))

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            base = _average_precision(*columns(scores, labels))
            warped = (np.tanh(3.0 * scores) + 1.0) / 2.0  # strictly increasing
            after = _average_precision(*columns(warped, labels))
            assert base == pytest.approx(after, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            scores, labels = random_instance(rng)
            ours = pooled(scores, labels)["ap"]
            ref = oracle_average_precision(scores, labels)
            assert ours == pytest.approx(ref, abs=1e-12)


class TestPrecisionRecallF1:
    def prf(self, row):
        return row["precision"], row["recall"], row["f1"]

    def test_perfect(self):
        assert self.prf(pooled([0.9, 0.1], [1, 0])) == (1.0, 1.0, 1.0)

    def test_no_positive_predictions_give_zero(self):
        assert _precision_recall_f1(*counts([0.1, 0.2], [1, 0])) == (0.0, 0.0, 0.0)
        assert self.prf(pooled([0.1, 0.2], [1, 0])) == (0.0, 0.0, 0.0)

    def test_hand_counts(self):
        # TP=3, FP=1, FN=1
        scores = [0.9, 0.9, 0.9, 0.9, 0.1]
        labels = [1, 1, 1, 0, 1]
        assert self.prf(pooled(scores, labels)) == pytest.approx((0.75, 0.75, 0.75))

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scores, labels = random_instance(rng)
            assert self.prf(pooled(scores, labels)) == pytest.approx(
                oracle_prf(scores, labels), abs=1e-12)


class TestPerSubsetReport:
    def test_single_subset_aggregates_agree(self):
        p = preds([0.9, 0.2, 0.7, 0.4], [1, 0, 1, 0])
        report = per_subset_report(p)
        assert report["mean_over_subsets"]["acc"] == report["overall_pooled"]["acc"]
        assert report["subsets"][0]["acc"] == report["overall_pooled"]["acc"]

    def test_weighted_vs_unweighted_aggregation(self):
        small = preds([0.9] * 5 + [0.1] * 5, [1] * 5 + [0] * 5, subset="small")
        big = preds([0.9] * 500 + [0.1] * 500, [0] * 500 + [1] * 500, subset="big")
        report = per_subset_report(small + big)
        assert report["mean_over_subsets"]["acc"] == pytest.approx(0.5)
        assert report["overall_pooled"]["acc"] == pytest.approx(10 / 1010)

    def test_subset_without_positives_flagged_na(self):
        good = preds([0.9, 0.1], [1, 0], subset="a")
        negatives_only = preds([0.3, 0.2], [0, 0], subset="b")
        with pytest.warns(UserWarning, match="undefined balanced_acc"), \
                pytest.warns(UserWarning, match="AP"):
            report = per_subset_report(good + negatives_only)
        by_name = {r["subset"]: r for r in report["subsets"]}
        assert by_name["b"]["ap"] is None
        assert report["mean_over_subsets"]["ap"] == by_name["a"]["ap"]

    def test_mean_of_identical_subsets_equals_single(self):
        a = preds([0.9, 0.4, 0.6, 0.1], [1, 0, 1, 0], subset="a")
        b = preds([0.9, 0.4, 0.6, 0.1], [1, 0, 1, 0], subset="b")
        report = per_subset_report(a + b)
        single = per_subset_report(a)
        assert report["mean_over_subsets"]["acc"] == single["subsets"][0]["acc"]
        assert report["mean_over_subsets"]["ap"] == single["subsets"][0]["ap"]

    def test_rows_deterministic_and_ordered(self):
        p = preds([0.9, 0.2], [1, 0], subset="zeta") + preds(
            [0.8, 0.3], [1, 0], subset="alpha"
        )
        r1 = per_subset_report(p)
        assert r1 == per_subset_report(list(p))
        rows = [*r1["subsets"], r1["mean_over_subsets"], r1["overall_pooled"]]
        assert [r["subset"] for r in rows] == ["alpha", "zeta", "mean_over_subsets",
                                               "overall_pooled"]
        assert all(tuple(r) == REPORT_COLUMNS for r in rows)

    def test_headline_selection(self):
        p = preds([0.9, 0.2], [1, 0], subset="a") + preds([0.1, 0.6], [1, 0], subset="b")
        assert per_subset_report(p)["headline"] == "subset-mean"
        r = per_subset_report(p, headline="overall")
        assert r["headline"] == "overall"


class TestMultiFrameAverage:
    def frames(self, logits, video_id="v", label="fake", subset="s"):
        return [
            FrameScore(
                video_id=video_id,
                frame_index=i,
                label=label,
                subset=subset,
                logit=lg,
            )
            for i, lg in enumerate(logits)
        ]

    def test_middle_frame_selection(self):
        assert select_frame_indices(5, 1) == [2]
        assert select_frame_indices(4, 1) == [2]
        assert select_frame_indices(1, 1) == [0]

    def test_uniform_spacing_includes_middle_for_odd_t(self):
        assert select_frame_indices(9, 3) == [1, 4, 7]

    def test_t_capped_at_frame_count(self):
        assert select_frame_indices(3, 10) == [0, 1, 2]

    def test_logit_averaging(self):
        out = multi_frame_average(self.frames([0.2, 0.4]), t=2)
        expected = 1.0 / (1.0 + math.exp(-0.3))
        assert out.score == pytest.approx(expected, abs=1e-12)

    def test_single_frame_t1_uses_middle(self):
        out = multi_frame_average(self.frames([-2.0, 5.0, -2.0]), t=1)
        assert out.score == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-12)

    def test_identical_frames_any_t(self):
        frames = self.frames([0.7] * 6)
        scores = {t: multi_frame_average(frames, t=t).score for t in (1, 2, 4, 6)}
        assert len(set(scores.values())) == 1

    def test_empty_video(self):
        with pytest.raises(InputError, match="video has no frames"):
            multi_frame_average([], t=1)

    @pytest.mark.parametrize("logit", [math.nan, math.inf, -math.inf])
    def test_non_finite_logit_is_not_a_score(self, logit):
        with pytest.raises(NumericalError, match=f"non-finite logit {logit}"):
            multi_frame_average(self.frames([logit]), t=1)
        # an unpicked frame counts too
        with pytest.raises(NumericalError):
            multi_frame_average(self.frames([0.5, logit, 0.5, 0.5]), t=1)

    def test_grouping(self):
        frames = self.frames([0.1, 0.2], video_id="a") + self.frames([0.3], video_id="b")
        grouped = group_frames(frames)
        assert sorted(grouped) == ["a", "b"]
        assert len(grouped["a"]) == 2


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def scored_instances(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    grid = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    scores = (rng.integers(0, grid, n) / (grid - 1)).tolist()
    labels = rng.integers(0, 2, n).tolist()
    if sum(labels) == 0:
        labels[0] = 1
    return scores, labels


@given(scored_instances())
@settings(max_examples=60, deadline=None)
def test_property_ap_duplication_invariance(instance):
    scores, labels = instance
    base = _average_precision(*columns(scores, labels))
    doubled = _average_precision(*columns(scores * 2, labels * 2))
    assert doubled == pytest.approx(base, abs=1e-12)


@given(scored_instances(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_property_ap_in_unit_interval_and_oracle(instance, _):
    scores, labels = instance
    value = _average_precision(*columns(scores, labels))
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(oracle_average_precision(scores, labels), abs=1e-12)
