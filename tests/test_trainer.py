"""Model forward/backward, AdamW, batch sampling, training loop, synthetic data."""

import warnings

import numpy as np
import pytest

from xmodal.cmsupcon import LossVariant, binary_cross_entropy, contrastive_loss
from xmodal.errors import InputError, NumericalError
from xmodal.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PARAM_NAMES,
    VIDEO_FRACTION,
    FeatureDataset,
    SyntheticSpec,
    ToyModel,
    _dataset_stats,
    _stats_inputs,
    backward,
    contrastive_term,
    forward,
    generate_synthetic,
    load_checkpoint,
    mixed_batch_sampler,
    optimizer_step,
    save_checkpoint,
    train,
    train_config,
)


def zero_model(d_in=4, d_h=5, d_z=3) -> ToyModel:
    return ToyModel(
        w1=np.zeros((d_in, d_h)),
        b1=np.zeros(d_h),
        wp=np.zeros((d_h, d_z)),
        wc=np.zeros(d_h),
        bc=np.zeros(1),
    )


def joint_value(model, x, y, m, lam, tau, layer, variant=LossVariant.CROSS_MODAL):
    out = forward(model, x, layer)
    bce = binary_cross_entropy(out.logits, y)
    live = np.linalg.norm(out.z, axis=1) > 1e-12
    cm = 0.0
    if lam > 0 and live.sum() >= 2:
        cm = contrastive_loss(out.z[live], y.astype(np.int8)[live], np.asarray(m)[live], tau,
                              variant)
    return bce + lam * cm


class TestForward:
    def test_zero_model_outputs_zero(self):
        model = zero_model()
        out = forward(model, np.ones((3, 4)))
        assert np.all(out.logits == 0.0)
        assert np.all(out.z == 0.0)

    def test_relu_inactive_on_nonnegative_preactivation(self):
        model = ToyModel(
            w1=np.eye(3),
            b1=np.zeros(3),
            wp=np.zeros((3, 2)),
            wc=np.ones(3),
            bc=np.zeros(1),
        )
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        out = forward(model, x)
        assert np.allclose(out.h, x, atol=1e-12)

    def test_batching_consistency(self):
        rng = np.random.default_rng(1)
        model = ToyModel.init(4, 6, 3, rng)
        x = rng.normal(size=(2, 4))
        both = forward(model, x)
        one = forward(model, x[:1])
        two = forward(model, x[1:])
        assert np.allclose(both.logits, np.concatenate([one.logits, two.logits]), atol=1e-12)
        assert np.allclose(both.z, np.vstack([one.z, two.z]), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(InputError, match=r"expected input \(n, 4\), got \(2, 5\)"):
            forward(zero_model(d_in=4), np.zeros((2, 5)))


class TestBackward:
    def fd_check(self, model, x, y, m, lam, tau, layer, step=1e-5):
        grads = backward(model, x, y, lam, tau, m, layer)
        params = model.params()
        max_rel = 0.0
        for name, p in params.items():
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                up = {k: v.copy() for k, v in params.items()}
                up[name][idx] += step
                down = {k: v.copy() for k, v in params.items()}
                down[name][idx] -= step
                lp = joint_value(ToyModel.from_params(up), x, y, m, lam, tau, layer)
                lm = joint_value(ToyModel.from_params(down), x, y, m, lam, tau, layer)
                fd[idx] = (lp - lm) / (2 * step)
            rel = np.abs(grads[name] - fd) / np.maximum(1.0, np.abs(fd))
            max_rel = max(max_rel, float(rel.max()))
        return max_rel

    def test_bce_only_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        model = ToyModel.init(4, 5, 3, rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, 6).astype(np.float64)
        m = rng.integers(0, 2, 6)
        assert self.fd_check(model, x, y, m, 0.0, 0.07, "projection") <= 1e-5

    def test_all_image_batch_equals_bce_gradients(self):
        rng = np.random.default_rng(3)
        model = ToyModel.init(4, 5, 3, rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, 6).astype(np.float64)
        m = np.zeros(6, dtype=np.int8)
        x[0] = 0.0  # a dead feature row: b1 is zero, so every ReLU is off
        steps = []
        with_cm = backward(model, x, y, 0.05, 0.07, m, steps=steps)
        without = backward(model, x, y, 0.0, 0.07, m)
        for name in with_cm:
            assert np.array_equal(with_cm[name], without[name]), name
        # no anchor has a positive, and the dead row is still counted
        [(logits, cm, valid, dead)] = steps
        assert np.array_equal(logits, forward(model, x).logits)
        assert (cm, valid, dead) == (0.0, 0, 1)

    @pytest.mark.parametrize("layer", ["projection", "hidden"])
    def test_joint_objective_matches_finite_differences(self, layer):
        rng = np.random.default_rng(4)
        for _ in range(5):
            model = ToyModel.init(5, 6, 4, rng)
            x = rng.normal(size=(8, 5))
            y = rng.integers(0, 2, 8).astype(np.float64)
            m = rng.integers(0, 2, 8)
            assert self.fd_check(model, x, y, m, 0.05, 0.07, layer) <= 1e-5


class TestOptimizer:
    def test_first_step_hand_values(self):
        p, g, m, v = np.array([1.0]), np.array([1.0]), np.zeros(1), np.zeros(1)
        optimizer_step(p, g, m, v, 1, 0.1, 0.0)
        assert m[0] == pytest.approx(0.1, abs=1e-15)
        assert v[0] == pytest.approx(0.001, abs=1e-15)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert p[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(5)
        for shape in ((3, 2), (2,)):
            p = rng.normal(size=shape)
            before = p.copy()
            optimizer_step(p, np.zeros(shape), np.zeros(shape), np.zeros(shape), 1, 0.1, 0.0)
            assert np.array_equal(p, before)

    def test_decoupled_decay_only(self):
        p = np.array([2.0])
        optimizer_step(p, np.zeros(1), np.zeros(1), np.zeros(1), 1, 0.1, 0.1)
        assert p[0] == pytest.approx(2.0 * (1.0 - 0.01), abs=1e-15)

    @pytest.mark.parametrize("bad", ["g", "m", "v"])
    def test_shape_mismatch(self, bad):
        # a (1,) array would broadcast silently
        arrays = {"p": np.zeros(3), "g": np.zeros(3), "m": np.zeros(3), "v": np.zeros(3)}
        arrays[bad] = np.zeros(1)
        with pytest.raises(InputError, match=r"must have the parameter shape \(3,\)"):
            optimizer_step(*arrays.values(), 1, 0.1, 0.0)
        assert not arrays["p"].any()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_inplace_kernel_matches_textbook_update_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(21)
        p = rng.normal(size=257)
        m, v = np.zeros(257), np.zeros(257)
        ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
        work = np.empty((2, 257))
        for step in range(1, 51):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=257)
            optimizer_step(p, g, m, v, step, 1e-3, weight_decay, work)
            # the per-array form the kernel replaced
            ref_m = ADAM_BETA1 * ref_m + (1.0 - ADAM_BETA1) * g
            ref_v = ADAM_BETA2 * ref_v + (1.0 - ADAM_BETA2) * g * g
            m_hat = ref_m / (1.0 - ADAM_BETA1**step)
            v_hat = ref_v / (1.0 - ADAM_BETA2**step)
            updated = ref_p - 1e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if weight_decay:
                updated = updated - 1e-3 * weight_decay * ref_p
            ref_p = updated
            assert np.array_equal(p, ref_p)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


def reference_mixed_batch_sampler(image_pool, video_pool, batch_size, rng):
    """The list-pop sampler the array form replaced, kept as its oracle."""
    img_queue = list(rng.permutation(np.asarray(image_pool, dtype=np.int64)))
    vid_queue = list(rng.permutation(np.asarray(video_pool, dtype=np.int64)))
    batches = []
    while img_queue or vid_queue:
        take = min(batch_size, len(img_queue) + len(vid_queue))
        batch = []
        if img_queue and vid_queue and take >= 2:
            batch.append(int(img_queue.pop()))
            batch.append(int(vid_queue.pop()))
        while len(batch) < take:
            want_video = rng.random() < VIDEO_FRACTION
            queue = vid_queue if want_video else img_queue
            if not queue:
                queue = img_queue if want_video else vid_queue
            batch.append(int(queue.pop()))
        batches.append(np.asarray(batch, dtype=np.int64))
    return batches


class TestMixedBatchSampler:
    @pytest.mark.parametrize("n_img, n_vid", [
        (0, 1), (1, 0), (1, 1), (0, 9), (5, 0), (3, 4), (2, 17), (40, 3), (200, 80),
    ])
    @pytest.mark.parametrize("batch_size", [2, 3, 7, 32, 500])
    def test_matches_list_pop_reference(self, n_img, n_vid, batch_size):
        image_pool, video_pool = np.arange(n_img), np.arange(1000, 1000 + n_vid)
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = mixed_batch_sampler(image_pool, video_pool, batch_size, rng)
            want = reference_mixed_batch_sampler(image_pool, video_pool, batch_size, ref_rng)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            # same draws in the same order: the generators are in the same state
            assert rng.random() == ref_rng.random()

    def test_both_pools_empty(self):
        with pytest.raises(InputError, match="need at least one non-empty pool"):
            mixed_batch_sampler(
                np.array([]), np.array([]), 4, np.random.default_rng(0)
            )

    def test_empty_video_pool_warns(self):
        with pytest.warns(UserWarning, match="inert"):
            batches = mixed_batch_sampler(
                np.arange(10), np.array([]), 4, np.random.default_rng(0)
            )
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_guarantee_with_batch_size_two(self):
        image_pool = np.arange(0, 8)
        video_pool = np.arange(100, 108)
        batches = mixed_batch_sampler(
            image_pool, video_pool, 2, np.random.default_rng(1)
        )
        for batch in batches:
            assert len(batch) == 2
            assert sum(1 for i in batch if i < 100) == 1
            assert sum(1 for i in batch if i >= 100) == 1

    def test_epoch_covers_pools_without_replacement(self):
        image_pool = np.arange(0, 13)
        video_pool = np.arange(50, 57)
        batches = mixed_batch_sampler(
            image_pool, video_pool, 5, np.random.default_rng(2)
        )
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == sorted(
            image_pool.tolist() + video_pool.tolist()
        )

    def test_deterministic_per_seed(self):
        a = mixed_batch_sampler(
            np.arange(20), np.arange(100, 110), 6, np.random.default_rng(3)
        )
        b = mixed_batch_sampler(
            np.arange(20), np.arange(100, 110), 6, np.random.default_rng(3)
        )
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_default_task_mix_matches_the_readme(self):
        # The README: on the default synthetic task (400 training images, 80
        # videos, batches of 32) the videos run out within the first 5 or 6 of
        # an epoch's 15 batches. default_rng(seed) is the stream `train` hands
        # the sampler first.
        data = generate_synthetic(SyntheticSpec.default()).train
        pools = np.flatnonzero(data.m == 0), np.flatnonzero(data.m == 1)
        assert (pools[0].size, pools[1].size) == (400, 80)

        def video_counts(seed):
            batches = mixed_batch_sampler(*pools, 32, np.random.default_rng(seed))
            return [int(np.isin(idx, pools[1]).sum()) for idx in batches]

        assert video_counts(0) == [14, 19, 11, 13, 15, 8] + [0] * 9
        for seed in range(5):
            counts = video_counts(seed)
            assert len(counts) == 15 and sum(counts) == 80
            assert 5 <= np.flatnonzero(counts)[-1] + 1 <= 6


def dead_row_dataset(seed, n=30, dead=(3, 17)):
    """Data and a model under which rows ``dead`` have every ReLU off."""
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(n, 4))) + 0.1
    x[list(dead)] *= -1.0
    model = ToyModel(w1=np.abs(rng.normal(size=(4, 6))), b1=np.zeros(6),
                     wp=rng.normal(size=(6, 3)), wc=rng.normal(size=6), bc=np.zeros(1))
    return FeatureDataset(x, rng.integers(0, 2, n), rng.integers(0, 2, n)), model


class TestCachedStats:
    @pytest.mark.parametrize("variant", list(LossVariant))
    @pytest.mark.parametrize("layer", ["hidden", "projection"])
    @pytest.mark.parametrize("dead", [(), (3,), (3, 17)])
    def test_cached_positives_match_uncached_term_bit_for_bit(self, variant, layer, dead):
        data, model = dead_row_dataset(30, dead=dead)
        config = train_config({"lambda": 0.05, "feature_layer": layer, "variant": variant.value})
        out = forward(model, data.x, layer)
        assert np.count_nonzero(np.linalg.norm(out.z, axis=1) <= 1e-12) == len(dead)
        bce = binary_cross_entropy(out.logits, data.y.astype(np.float64))
        cm = contrastive_term(out.z, data.y, data.m, config["tau"], variant)
        acc = float(((out.logits >= 0.0).astype(np.int8) == data.y).mean())
        stats = _dataset_stats(model, _stats_inputs(data, config), config)
        assert stats == (bce, cm, bce + config["lambda"] * cm, acc)
        assert cm > 0.0

    @pytest.mark.parametrize("layer", ["hidden", "projection"])
    def test_backward_into_given_arrays_matches_fresh_ones(self, layer):
        data, model = dead_row_dataset(31)
        y = data.y.astype(np.float64)
        fresh = backward(model, data.x, y, 0.05, 0.07, data.m, layer)
        flat = np.full(sum(p.size for p in model.params().values()), np.nan)
        views, start = {}, 0
        for name in PARAM_NAMES:
            size = getattr(model, name).size
            views[name] = flat[start : start + size].reshape(getattr(model, name).shape)
            start += size
        assert backward(model, data.x, y, 0.05, 0.07, data.m, layer, grads=views) is views
        for name in PARAM_NAMES:
            assert np.array_equal(views[name], fresh[name])


def reference_batch_terms(params, x, y, m, config):
    """A batch's logits, contrastive loss, valid anchors and dead rows, from
    forward, contrastive_term and a positive mask built here."""
    out = forward(params, x, config["feature_layer"])
    if config["lambda"] == 0:
        return out.logits, 0.0, 0, 0
    live = np.linalg.norm(out.z, axis=1) > 1e-12
    pos = y[live][:, None] == y[live][None, :]
    variant = LossVariant(config["variant"])
    if variant is LossVariant.CROSS_MODAL:
        pos &= m[live][:, None] != m[live][None, :]
    np.fill_diagonal(pos, False)
    cm = contrastive_term(out.z, y, m, config["tau"], variant)
    return out.logits, cm, int(pos.any(axis=1).sum()), int((~live).sum())


def reference_train_params(model, data, config):
    """Parameters after each epoch of the per-parameter dict loop that train's flat
    vectors replaced, and each epoch's training columns of the history from the
    logits, contrastive loss and counters of its batches and the norm of each gradient."""
    rng = np.random.default_rng(config["seed"])
    params = {name: p.copy() for name, p in model.params().items()}
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    step = 0
    y = data.y.astype(np.float64)
    per_epoch, columns = [], []
    for _ in range(config["epochs"]):
        pools = np.flatnonzero(data.m == 0), np.flatnonzero(data.m == 1)
        terms, labels, norms = [], [], []
        for idx in reference_mixed_batch_sampler(*pools, config["batch_size"], rng):
            terms.append(reference_batch_terms(params, data.x[idx], data.y[idx], data.m[idx],
                                               config))
            labels.append(y[idx])
            grads = backward(params, data.x[idx], y[idx], config["lambda"], config["tau"],
                             data.m[idx], config["feature_layer"], LossVariant(config["variant"]))
            norms.append(np.linalg.norm(np.concatenate([grads[n].ravel() for n in PARAM_NAMES])))
            step += 1
            for name, p in params.items():
                optimizer_step(p, grads[name], *moments[name], step, config["lr"],
                               config["weight_decay"])
        per_epoch.append({name: p.copy() for name, p in params.items()})
        logits, cms, anchors, dead = zip(*terms)
        logits, labels = np.concatenate(logits), np.concatenate(labels)
        bce = binary_cross_entropy(logits, labels)
        cm = sum(c * a for c, a in zip(cms, anchors)) / sum(anchors) if sum(anchors) else 0.0
        columns.append((bce, cm, bce + config["lambda"] * cm, float(((logits >= 0) == labels).mean()),
                        sum(anchors), sum(dead), float(sum(norms)) / len(norms)))
    return per_epoch, columns


def training_columns(h):
    """The history columns ``reference_train_params`` recomputes, in its order."""
    return (h.train_bce, h.train_cm, h.train_total, h.train_acc, h.valid_anchors, h.dead_rows,
            h.grad_norm)


def separable_dataset(seed, n=60):
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    x = np.stack([np.where(y == 1, 1.5, -1.5) + 0.2 * rng.normal(size=n),
                  rng.normal(size=n)], axis=1)
    m = rng.integers(0, 2, n)
    return FeatureDataset(x, y, m)


class TestTrainLoop:
    def test_separable_reaches_full_train_accuracy(self):
        data = separable_dataset(0)
        val = separable_dataset(1, n=20)
        config = train_config({"epochs": 200, "batch_size": 16, "lambda": 0.0, "seed": 0,
                               "patience": 1000})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(0))
        result = train(model, data, val, config)
        assert max(h.train_acc for h in result.history) == 1.0

    def test_patience_zero_stops_immediately_after_first_plateau(self):
        # labels are pure noise so the validation loss plateaus quickly
        rng = np.random.default_rng(2)
        data = FeatureDataset(
            rng.normal(size=(24, 2)), rng.integers(0, 2, 24), rng.integers(0, 2, 24)
        )
        val = FeatureDataset(
            rng.normal(size=(12, 2)), rng.integers(0, 2, 12), rng.integers(0, 2, 12)
        )
        config = train_config({"epochs": 300, "batch_size": 8, "lambda": 0.0, "seed": 1,
                               "patience": 0})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(1))
        result = train(model, data, val, config)
        vals = [h.val_total for h in result.history]
        assert result.stopped_early
        # every epoch except the last strictly improved the running best
        running = np.inf
        for v in vals[:-1]:
            assert v < running
            running = v
        assert vals[-1] >= running

    def test_best_checkpoint_has_min_val_loss(self):
        data = separable_dataset(4, n=40)
        val = separable_dataset(5, n=20)
        config = train_config({"epochs": 60, "batch_size": 8, "lambda": 0.05, "seed": 2,
                               "patience": 15})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(2))
        result = train(model, data, val, config)
        vals = [h.val_total for h in result.history]
        assert result.best_val == min(vals)
        assert vals[result.best_epoch] == result.best_val

    def test_bit_identical_history_per_seed(self):
        data = separable_dataset(6, n=30)
        val = separable_dataset(7, n=10)
        config = train_config({"epochs": 20, "batch_size": 8, "lambda": 0.05, "seed": 3,
                               "patience": 50})

        def run():
            model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                                  np.random.default_rng(3))
            return train(model, data, val, config)

        a, b = run(), run()
        assert a.history == b.history
        for name in ("w1", "b1", "wp", "wc", "bc"):
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))

    @pytest.mark.parametrize("layer, lam", [("hidden", 0.05), ("projection", 0.05),
                                            ("hidden", 0.0), ("projection", 0.0)])
    def test_flat_loop_matches_reference_loop(self, layer, lam):
        data, val = separable_dataset(12, n=40), separable_dataset(13, n=12)
        config = train_config({"epochs": 12, "batch_size": 7, "lambda": lam, "seed": 5,
                               "patience": 50, "feature_layer": layer})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(5))
        result = train(model, data, val, config)
        per_epoch, columns = reference_train_params(model, data, config)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(result.model, name), per_epoch[result.best_epoch][name])
        # the training columns of history.csv, bit for bit
        assert [training_columns(h) for h in result.history] == columns
        assert all(h.valid_anchors > 0 and h.train_cm > 0 for h in result.history) == (lam > 0)

    def test_dead_rows_match_reference_loop(self):
        data, model = dead_row_dataset(32)
        config = train_config({"epochs": 3, "batch_size": 8, "lambda": 0.05, "seed": 6,
                               "patience": 50, "hidden_dim": 6, "feature_dim": 3})
        result = train(model, data, data, config)
        _, columns = reference_train_params(model, data, config)
        assert [training_columns(h) for h in result.history] == columns
        assert result.history[0].dead_rows == 2

    def test_lambda_zero_trajectory_matches_inert_contrastive(self):
        # all-image data: the CM term is identically zero, so lam=0 and
        # lam=0.05 must produce bit-identical trajectories
        rng = np.random.default_rng(8)
        x = rng.normal(size=(24, 3))
        y = rng.integers(0, 2, 24)
        data = FeatureDataset(x, y, np.zeros(24, dtype=np.int8))
        val = FeatureDataset(x[:8], y[:8], np.zeros(8, dtype=np.int8))

        def run(lam):
            config = train_config({"epochs": 10, "batch_size": 8, "lambda": lam, "seed": 4,
                                   "patience": 50})
            model = ToyModel.init(3, config["hidden_dim"], config["feature_dim"],
                                  np.random.default_rng(4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return train(model, data, val, config)

        a, b = run(0.0), run(0.05)
        assert [h.train_total for h in a.history] == [h.train_total for h in b.history]
        for name in ("w1", "b1", "wp", "wc", "bc"):
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))

    def test_empty_validation_rejected(self):
        data = separable_dataset(9, n=8)
        with pytest.raises(InputError, match="'train.batch_size': must be an integer >= 2, got 1"):
            train_config({"epochs": 1, "batch_size": 1, "lambda": 0.05})
        config = train_config({"epochs": 1, "batch_size": 8, "lambda": 0.0, "seed": 0})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(0))
        empty = FeatureDataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        with pytest.raises(InputError, match="validation set must be non-empty"):
            train(model, data, empty, config)

    @pytest.mark.parametrize("split", [0, 1], ids=["training", "validation"])
    @pytest.mark.parametrize("fault, error", [
        ("nan-row", NumericalError), ("inf-row", NumericalError), ("lengths", InputError),
        ("label-2", InputError), ("modality-2", InputError), ("width", InputError),
    ])
    def test_inputs_checked_once_on_entry(self, split, fault, error):
        # a FeatureDataset checks nothing itself: train checks its shapes and
        # codes, and a non-finite feature trips the loop's finiteness guard
        x, y, m = (a.copy() for a in separable_dataset(9, n=8))
        if fault == "nan-row":
            x[2, 1] = np.nan
        elif fault == "inf-row":
            x[2] = np.inf
        elif fault == "lengths":
            y = y[:-1]
        elif fault == "label-2":
            y[3] = 2
        elif fault == "modality-2":
            m[3] = 2
        else:
            x = x[:, :1]
        datasets = [separable_dataset(9, n=8), separable_dataset(10, n=8)]
        datasets[split] = FeatureDataset(x, y, m)
        config = train_config({"epochs": 1, "batch_size": 8, "lambda": 0.05, "seed": 0})
        model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(0))
        result = None
        with warnings.catch_warnings(), pytest.raises(error):
            warnings.simplefilter("ignore", RuntimeWarning)  # arithmetic on inf and nan
            result = train(model, *datasets, config)
        assert result is None

    def test_lists_train_as_their_arrays(self):
        data = separable_dataset(9, n=8)
        config = train_config({"epochs": 2, "batch_size": 8, "lambda": 0.05, "seed": 0})

        def run(dataset):
            model = ToyModel.init(2, config["hidden_dim"], config["feature_dim"],
                                  np.random.default_rng(0))
            return train(model, dataset, dataset, config).history

        assert run(FeatureDataset(*(a.tolist() for a in data))) == run(data)

    def test_feature_width_is_named(self):
        data = separable_dataset(9, n=8)
        config = train_config({"epochs": 1, "batch_size": 8, "lambda": 0.05, "seed": 0})
        model = ToyModel.init(3, config["hidden_dim"], config["feature_dim"],
                              np.random.default_rng(0))
        with pytest.raises(InputError, match=r"training features have shape \(8, 2\), "
                                             r"model expects \(n, 3\)"):
            train(model, data, data, config)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        model = ToyModel.init(6, 16, 8, rng)
        config = train_config({"seed": 11})
        path = tmp_path / "ck.json"
        save_checkpoint(model, config, path)
        loaded_model, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name in ("w1", "b1", "wp", "wc", "bc"):
            assert np.array_equal(getattr(loaded_model, name), getattr(model, name))

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(InputError, match="junk.json: not a xmodal-checkpoint file"):
            load_checkpoint(path)


class TestSyntheticData:
    def test_requested_counts_honored(self):
        spec = SyntheticSpec.default(train_counts=(100, 100, 100, 100), seed=0)
        data = generate_synthetic(spec)
        assert len(data.train.y) == 400
        for label in (0, 1):
            for modality in (0, 1):
                group = (data.train.y == label) & (data.train.m == modality)
                assert group.sum() == 100

    def test_deterministic_per_seed(self):
        a = generate_synthetic(SyntheticSpec.default(seed=5))
        b = generate_synthetic(SyntheticSpec.default(seed=5))
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.x, b.test.x)
        c = generate_synthetic(SyntheticSpec.default(seed=6))
        assert not np.array_equal(a.train.x, c.train.x)

    def test_splits_are_distinct_draws(self):
        data = generate_synthetic(SyntheticSpec.default(seed=7))
        n = min(len(data.train.y), len(data.val.y))
        assert not np.array_equal(data.train.x[:n], data.val.x[:n])

    def test_invalid_spec(self):
        # the dim and noise_std rows of SYNTHETIC_FIELDS are the checks
        with pytest.raises(InputError, match=r"^SyntheticSpec.default: 'dim': must be an "
                                             r"integer in \[4, 4096\], got 2$"):
            SyntheticSpec.default(dim=2)
        with pytest.raises(InputError, match=r"^SyntheticSpec.default: 'noise_std': must be a "
                                             r"finite number in \(0, 1000000\], got -1.0$"):
            SyntheticSpec.default(noise_std=-1.0)

    def test_null_geometry_gives_equal_modalities(self):
        # no shortcut, no shift: image and video are identically distributed,
        # so a trained model scores both domains equally up to noise
        diffs = []
        for seed in range(10):
            spec = SyntheticSpec.default(
                shortcut_sep=0.0, video_shift=(0.0,) * 6,
                train_counts=(100, 100, 100, 100), val_counts=(30, 30, 30, 30),
                seed=seed,
            )
            data = generate_synthetic(spec)
            config = train_config({"epochs": 40, "batch_size": 32, "lambda": 0.05,
                                   "seed": seed, "patience": 10})
            model = ToyModel.init(spec.dim, config["hidden_dim"], config["feature_dim"],
                                  np.random.default_rng(seed))
            result = train(model, data.train, data.val, config)
            out = forward(result.model, data.test.x, config["feature_layer"])
            pred = (out.logits >= 0).astype(np.int8)
            accs = {
                mod: float((pred[data.test.m == mod] == data.test.y[data.test.m == mod]).mean())
                for mod in (0, 1)
            }
            diffs.append(abs(accs[0] - accs[1]))
        assert float(np.mean(diffs)) < 0.02
