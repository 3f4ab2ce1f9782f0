"""Cross-modal contrastive loss semantics, gradients, and binary cross-entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.cmsupcon import (
    VARIANTS,
    _contrastive,
    _positives,
    binary_cross_entropy,
    contrastive_grad,
    contrastive_loss,
)
from xmodal.errors import InputError

VANILLA = "vanilla"


def random_batch(rng, n=None, d=None):
    """Features z with 0/1 labels y and modalities m."""
    n = n or int(rng.integers(2, 17))
    d = d or int(rng.integers(2, 9))
    z = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n)
    m = rng.integers(0, 2, n)
    return z, y, m


def fd_gradient(z, y, m, tau, step=1e-5):
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp = z.copy()
            zp[i, j] += step
            zm = z.copy()
            zm[i, j] -= step
            lp = contrastive_loss(zp, y, m, tau)
            lm = contrastive_loss(zm, y, m, tau)
            grad[i, j] = (lp - lm) / (2 * step)
    return grad


class TestCmSupconLoss:
    def test_two_sample_cross_modal_pair_is_zero(self):
        # denominator holds exactly the positive term, so each log-ratio is 0
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.normal(size=(2, 4))
            assert contrastive_loss(z, [0, 0], [0, 1], tau=0.3) == pytest.approx(0.0, abs=1e-12)

    def test_hand_derived_three_sample_value(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loss = contrastive_loss(z, [0, 0, 1], [0, 1, 1], tau=1.0)
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss == pytest.approx(expected, abs=1e-6)
        assert loss == pytest.approx(0.313262, abs=1e-6)
        result = _contrastive(z, _positives(np.array([0, 0, 1]), np.array([0, 1, 1]), True), 1.0)
        assert result.loss == loss
        assert result.valid.tolist() == [0, 1]
        assert result.per_anchor[0] == pytest.approx(expected, abs=1e-9)
        assert result.per_anchor[2] == 0.0

    def test_all_image_batch_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        z, y = rng.normal(size=(6, 4)), rng.integers(0, 2, 6)
        assert contrastive_loss(z, y, np.zeros(6), tau=1.0) == 0.0

    def test_non_negativity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            batch = random_batch(rng)
            for tau in (0.07, 0.5, 1.0):
                assert contrastive_loss(*batch, tau) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z, y, m = random_batch(rng)
            perm = rng.permutation(len(z))
            a = contrastive_loss(z, y, m, tau=0.07)
            b = contrastive_loss(z[perm], y[perm], m[perm], tau=0.07)
            assert a == pytest.approx(b, abs=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(4)
        z, y, m = random_batch(rng, n=8, d=5)
        scales = rng.uniform(0.01, 100.0, size=(8, 1))
        a = contrastive_loss(z, y, m, tau=0.07)
        b = contrastive_loss(z * scales, y, m, tau=0.07)
        assert a == pytest.approx(b, abs=1e-9)

    def test_tau_stability_and_continuity(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, n=10, d=4)
        taus = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
        losses = [contrastive_loss(*batch, t) for t in taus]
        assert all(np.isfinite(losses))
        # continuity probe: nearby taus give nearby losses
        for t in (0.07, 0.5):
            a = contrastive_loss(*batch, t)
            b = contrastive_loss(*batch, t * (1 + 1e-9))
            assert a == pytest.approx(b, rel=1e-6)


class TestVanillaSupcon:
    def test_identical_pair_zero(self):
        z = np.array([[0.3, 0.4], [0.3, 0.4]])
        for tau in (0.07, 1.0):
            loss = contrastive_loss(z, [1, 1], [0, 0], tau, VANILLA)
            assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_modality_can_be_positive(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(6, 4))
        y = np.array([0, 0, 0, 1, 1, 1])
        m = np.zeros(6)
        assert contrastive_loss(z, y, m, 1.0, VANILLA) > 0.0
        assert contrastive_loss(z, y, m, 1.0) == 0.0

    def test_equal_when_all_same_label_pairs_cross_modal(self):
        # one sample per (label, modality): every same-label pair crosses modality
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 5))
        y = np.array([0, 0, 1, 1])
        m = np.array([0, 1, 0, 1])
        a = contrastive_loss(z, y, m, 0.2)
        b = contrastive_loss(z, y, m, 0.2, VANILLA)
        assert a == pytest.approx(b, abs=1e-12)


class TestGradient:
    def test_empty_valid_set_zero_gradient(self):
        rng = np.random.default_rng(8)
        z, y = rng.normal(size=(5, 4)), rng.integers(0, 2, 5)
        assert np.all(contrastive_grad(z, y, np.zeros(5), tau=1.0) == 0.0)

    def test_two_sample_zero_loss_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(2, 4))
        grad = contrastive_grad(z, [0, 0], [0, 1], tau=0.5)
        fd = fd_gradient(z, np.array([0, 0]), np.array([0, 1]), 0.5)
        assert np.abs(grad).max() < 1e-12
        assert np.abs(fd).max() < 1e-6

    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_matches_finite_differences(self, tau):
        rng = np.random.default_rng(int(tau * 1000))
        for _ in range(10):
            z, y, m = random_batch(rng)
            grad = contrastive_grad(z, y, m, tau)
            fd = fd_gradient(z.copy(), y, m, tau)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() <= 1e-5


class TestBinaryCrossEntropy:
    def test_logit_zero_fake_target_is_ln2(self):
        assert binary_cross_entropy(np.array([0.0]), np.array([1.0])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_extreme_logits_stay_finite(self):
        logits = np.array([1000.0, -1000.0])
        targets = np.array([0.0, 1.0])
        assert np.isfinite(binary_cross_entropy(logits, targets))
        assert binary_cross_entropy(logits, targets) == pytest.approx(1000.0, rel=1e-9)


@st.composite
def feature_batches(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    d = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    m = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return z, np.array(y), np.array(m)


@given(feature_batches(), st.sampled_from([0.07, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_property_nonneg_and_scale_invariance(batch, tau):
    z, y, m = batch
    loss = contrastive_loss(z, y, m, tau)
    assert loss >= 0.0
    assert np.isfinite(loss)
    assert contrastive_loss(z * 7.5, y, m, tau) == pytest.approx(loss, abs=1e-9)


@given(feature_batches())
@settings(max_examples=40, deadline=None)
def test_property_single_modality_zero_vs_vanilla(batch):
    z, y, m = batch
    uni = np.zeros(len(z), dtype=np.int8)
    assert contrastive_loss(z, y, uni, 0.07) == 0.0
    # vanilla ignores modality entirely
    a = contrastive_loss(z, y, m, 0.5, VANILLA)
    b = contrastive_loss(z, y, uni, 0.5, VANILLA)
    assert a == pytest.approx(b, abs=1e-12)


class TestFromSamples:
    def test_embedded_samples_round_trip(self):
        # plain lists are taken as the label and modality arrays
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert contrastive_loss(z, [0, 0, 1], [0, 1, 1], tau=1.0) == pytest.approx(
            0.313262, abs=1e-6
        )

    def test_label_modality_length_mismatch(self):
        # a length-1 modality array would broadcast in the positive mask
        with pytest.raises(InputError, match="2 rows but got 2 labels, 1 modalities"):
            contrastive_loss(np.ones((2, 2)), [0, 1], [0])

    @pytest.mark.parametrize("z, y, m, tau, match", [
        (np.ones((2, 1)), [0, 1], [0, 1], 0.07, r"z must be \(n, d\)"),
        (np.ones((0, 2)), [], [], 0.07, r"z must be \(n, d\)"),
        (np.ones(4), [0, 1], [0, 1], 0.07, r"z must be \(n, d\)"),
        (np.ones((2, 2)), [[0, 1]], [0, 1], 0.07, "2 rows but got 2 labels"),
        (np.ones((2, 2)), [0, 2], [0, 1], 0.07, "labels must be 0 or 1"),
        (np.ones((2, 2)), [0, 1], [0.5, 1], 0.07, "modalities must be 0 or 1"),
        (np.array([[1.0, np.nan], [1.0, 0.0]]), [0, 1], [0, 1], 0.07, "finite"),
        (np.array([[1.0, np.inf], [1.0, 0.0]]), [0, 1], [0, 1], 0.07, "finite"),
        (np.ones((2, 2)), [0, 1], [0, 1], 0.0, "tau must be > 0"),
        (np.zeros((2, 2)), [0, 0], [0, 1], 0.07, "zero norm"),
    ])
    def test_bad_batch_raises_input_error(self, z, y, m, tau, match):
        for fn in (contrastive_loss, contrastive_grad):
            with pytest.raises(InputError, match=match):
                fn(z, y, m, tau)


# --- reference forms: the per-anchor loops the vectorized kernel replaced ----------


def reference_loss(z, y, m, tau, cross_modal):
    """Brute force: for each anchor, -mean log-softmax over its positives."""
    zhat = z / np.linalg.norm(z, axis=1)[:, None]
    n = z.shape[0]
    per_anchor = np.zeros(n)
    valid = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        positives = [
            j for j in others if y[j] == y[i] and (not cross_modal or m[j] != m[i])
        ]
        if not positives:
            continue
        sims = {j: float(zhat[i] @ zhat[j]) / tau for j in others}
        top = max(sims.values())
        lse = top + math.log(sum(math.exp(s - top) for s in sims.values()))
        per_anchor[i] = -sum(sims[j] - lse for j in positives) / len(positives)
        valid.append(i)
    loss = float(per_anchor[valid].mean()) if valid else 0.0
    return loss, per_anchor, np.asarray(valid, dtype=np.int64)


def reference_grad(z, y, m, tau, cross_modal):
    """The per-anchor gradient loop, kept verbatim as the bit-exact reference."""
    norms = np.linalg.norm(z, axis=1)
    zhat = z / norms[:, None]
    n = z.shape[0]
    mask = y[:, None] == y[None, :]
    if cross_modal:
        mask &= m[:, None] != m[None, :]
    np.fill_diagonal(mask, False)
    pos_counts = mask.sum(axis=1)
    valid = np.flatnonzero(pos_counts > 0)
    if valid.size == 0:
        return np.zeros_like(z)
    sims = zhat @ zhat.T / tau
    logits = sims.copy()
    np.fill_diagonal(logits, -np.inf)
    row_max = logits.max(axis=1)
    softmax = np.exp(logits - row_max[:, None])
    softmax /= softmax.sum(axis=1, keepdims=True)
    grad_s = np.zeros((n, n))
    inv_v = 1.0 / valid.size
    for i in valid:
        grad_s[i] = inv_v * (softmax[i] - mask[i] / pos_counts[i])
        grad_s[i, i] = 0.0
    grad_zhat = (grad_s + grad_s.T) @ zhat / tau
    inner = np.sum(grad_zhat * zhat, axis=1, keepdims=True)
    return (grad_zhat - inner * zhat) / norms[:, None]


def reference_batches(seed, count=40):
    """Random batches plus ones with invalid anchors and with no valid anchor."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_batch(rng, n=int(rng.integers(2, 40)))
    yield rng.normal(size=(7, 5)), np.array([0, 0, 0, 1, 1, 1, 1]), np.array([0, 1, 0, 0, 0, 0, 0])
    yield rng.normal(size=(6, 3)), np.array([0, 0, 1, 1, 0, 1]), np.zeros(6)
    yield rng.normal(size=(4, 3)), np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    yield rng.normal(size=(1, 4)), np.array([1]), np.array([0])


class TestKernelAgainstReference:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("tau", [0.07, 0.5])
    def test_loss_per_anchor_and_valid_match_brute_force(self, variant, tau):
        cross_modal = variant == "cross_modal"
        seen_invalid = seen_empty = False
        for z, y, m in reference_batches(seed=11):
            loss, per_anchor, valid = reference_loss(z, y, m, tau, cross_modal)
            result = _contrastive(z, _positives(y, m, cross_modal), tau)
            assert result.valid.tolist() == valid.tolist()
            assert np.abs(result.per_anchor - per_anchor).max() <= 1e-12
            assert abs(result.loss - loss) <= 1e-12
            assert contrastive_loss(z, y, m, tau, variant) == result.loss
            seen_invalid |= 0 < valid.size < len(z)
            seen_empty |= valid.size == 0
        assert seen_invalid and seen_empty

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_gradient_bit_identical_to_loop_form(self, variant, tau):
        cross_modal = variant == "cross_modal"
        for z, y, m in reference_batches(seed=12):
            expected = reference_grad(z, y, m, tau, cross_modal)
            assert np.array_equal(contrastive_grad(z, y, m, tau, variant), expected)
