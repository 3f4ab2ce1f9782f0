"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is deterministic (fixed seeds); the whole module targets a
few minutes of laptop-CPU runtime.
"""

import functools
import json
import warnings
from pathlib import Path

import numpy as np

from xmodal.cli import main as cli_main
from xmodal.cmsupcon import contrastive_grad, contrastive_loss
from xmodal.codecsim import (
    JPEG_CHROMA_BASE,
    JPEG_LUMA_BASE,
    apply_chain,
    chain_steps,
    dct8x8_forward,
    dct8x8_inverse,
    deadzone_quantize_block,
    dequantize_coefficients,
    jpeg_simulate,
    quant_table_from_quality,
    quantize_coefficients,
    tv_range_squeeze,
    video_codec_simulate,
)
from xmodal.core import save_image
from xmodal.forensics import (
    dct_ac_histogram,
    detect_tv_range,
    luminance_histogram,
    rapsd,
)
from xmodal.metrics import subset_report
from xmodal.pixelops import gaussian_blur, quantize_8bit
from xmodal.trainer import (
    SyntheticSpec,
    ToyModel,
    backward,
    forward,
    generate_synthetic,
    train,
    train_config,
)

from conftest import textured_image, write_manifest_file

REL_FLOOR = 1.0  # |analytic - fd| / max(REL_FLOOR, |fd|)


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] criterion {number}: FAIL - {name}")
                raise
            print(f"\n[ACCEPTANCE] criterion {number}: PASS - {name}")

        return wrapper

    return deco


def max_rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float((np.abs(analytic - fd) / np.maximum(REL_FLOOR, np.abs(fd))).max())


def loss_fd(z, y, m, tau, step=1e-5):
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += step
            zm[i, j] -= step
            lp = contrastive_loss(zp, y, m, tau)
            lm = contrastive_loss(zm, y, m, tau)
            grad[i, j] = (lp - lm) / (2 * step)
    return grad


@criterion(1, "analytic gradients match finite differences (<= 1e-5 rel)")
def test_criterion_1_gradient_correctness():
    taus = (0.07, 0.5, 1.0)
    worst = 0.0
    # loss-level gradients: 102 randomized batches
    rng = np.random.default_rng(11)
    for round_idx in range(102):
        tau = taus[round_idx % 3]
        n = int(rng.integers(2, 17))
        d = int(rng.integers(2, 9))
        z = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        m = rng.integers(0, 2, n)
        analytic = contrastive_grad(z, y, m, tau)
        fd = loss_fd(z, y, m, tau)
        worst = max(worst, max_rel_error(analytic, fd))
    assert worst <= 1e-5, f"loss gradient rel error {worst}"

    # full-model gradients through the joint objective
    from xmodal.cmsupcon import binary_cross_entropy

    def joint_value(model, x, y, m, lam, tau, layer):
        out = forward(model, x, layer)
        bce = binary_cross_entropy(out.logits, y)
        live = np.linalg.norm(out.z, axis=1) > 1e-12
        cm = 0.0
        if live.sum() >= 2:
            cm = contrastive_loss(out.z[live], y.astype(np.int8)[live], m[live], tau)
        return bce + lam * cm

    worst_model = 0.0
    rng = np.random.default_rng(12)
    for round_idx in range(21):
        tau = taus[round_idx % 3]
        layer = "hidden" if round_idx % 2 else "projection"
        model = ToyModel.init(4, 6, 4, rng)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, 8).astype(np.float64)
        m = rng.integers(0, 2, 8)
        grads = backward(model, x, y, 0.05, tau, m, layer)
        params = model.params()
        step = 1e-5
        for name, p in params.items():
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                up = {k: v.copy() for k, v in params.items()}
                up[name][idx] += step
                down = {k: v.copy() for k, v in params.items()}
                down[name][idx] -= step
                lp = joint_value(ToyModel.from_params(up), x, y, m, 0.05, tau, layer)
                lm = joint_value(ToyModel.from_params(down), x, y, m, 0.05, tau, layer)
                fd[idx] = (lp - lm) / (2 * step)
            worst_model = max(worst_model, max_rel_error(grads[name], fd))
    assert worst_model <= 1e-5, f"model gradient rel error {worst_model}"


@criterion(2, "loss semantics: properties and the hand-derived value")
def test_criterion_2_loss_semantics():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(2, 9))
        z = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        m = rng.integers(0, 2, n)
        tau = float(rng.choice([0.07, 0.5, 1.0]))
        loss = contrastive_loss(z, y, m, tau)
        # non-negativity
        assert loss >= 0.0
        # permutation invariance
        perm = rng.permutation(n)
        assert abs(contrastive_loss(z[perm], y[perm], m[perm], tau) - loss) <= 1e-12
        # row-scaling invariance
        scales = rng.uniform(0.05, 20.0, size=(n, 1))
        assert abs(contrastive_loss(z * scales, y, m, tau) - loss) <= 1e-9
        # single-modality batches contribute nothing
        assert contrastive_loss(z, y, np.zeros(n, dtype=np.int8), tau) == 0.0

    # cross-modal equals vanilla when every same-label pair crosses modality
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        z = rng.normal(size=(4, 6))
        y = np.array([0, 0, 1, 1])
        m = np.array([0, 1, 0, 1])
        tau = float(rng.choice([0.07, 0.5, 1.0]))
        a = contrastive_loss(z, y, m, tau)
        b = contrastive_loss(z, y, m, tau, "vanilla")
        assert abs(a - b) <= 1e-12

    # hand-derived n=3 example
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    value = contrastive_loss(z, [0, 0, 1], [0, 1, 1], tau=1.0)
    assert abs(value - 0.313262) <= 1e-6


def _protocol_accuracy(model, data, layer, modality):
    out = forward(model, data.x, layer)
    pred = (out.logits >= 0).astype(np.int8)
    mask = data.m == modality
    return float((pred[mask] == data.y[mask]).mean())


@criterion(3, "bidirectional gain on the synthetic cross-modal task")
def test_criterion_3_bidirectional_gain():
    io_img, io_vid = [], []
    l0_vid = []
    cm_img, cm_vid = [], []
    for seed in range(5):
        spec = SyntheticSpec.default(seed=seed)
        data = generate_synthetic(spec)
        img_train = data.train.restrict_modality("image")
        img_val = data.val.restrict_modality("image")
        runs = {}
        for name, (tr, va, lam) in {
            "image_only": (img_train, img_val, 0.0),
            "joint_l0": (data.train, data.val, 0.0),
            "joint_cm": (data.train, data.val, 0.05),
        }.items():
            config = train_config({"lambda": lam, "tau": 0.07, "seed": seed})
            model = ToyModel.init(
                spec.dim, config["hidden_dim"], config["feature_dim"],
                np.random.default_rng(config["seed"]),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = train(model, tr, va, config)
            runs[name] = result.model
        layer = train_config({})["feature_layer"]
        io_img.append(_protocol_accuracy(runs["image_only"], data.test, layer, 0))
        io_vid.append(_protocol_accuracy(runs["image_only"], data.test, layer, 1))
        l0_vid.append(_protocol_accuracy(runs["joint_l0"], data.test, layer, 1))
        cm_img.append(_protocol_accuracy(runs["joint_cm"], data.test, layer, 0))
        cm_vid.append(_protocol_accuracy(runs["joint_cm"], data.test, layer, 1))

    io_gap = float(np.mean(io_img) - np.mean(io_vid))
    assert io_gap >= 0.20, f"image-only gap {io_gap:.3f} < 20 points"
    cm_gap = float(np.mean(cm_img) - np.mean(cm_vid))
    assert cm_gap <= 0.05, f"joint image-video gap {cm_gap:.3f} > 5 points"
    img_drop = float(np.mean(io_img) - np.mean(cm_img))
    assert img_drop <= 0.02, f"joint image drop {img_drop:.3f} > 2 points"
    cm_gain = float(np.mean(cm_vid) - np.mean(l0_vid))
    assert cm_gain >= 0.0, f"CM-SupCon video gain {cm_gain:.4f} < 0"


@criterion(4, "zero-AC fraction ordering: video sim > JPEG Q75 > uncompressed")
def test_criterion_4_dct_direction():
    unc, jpeg75, vid, recomp = [], [], [], []
    for seed in range(100):
        img = textured_image(seed, h=32, w=32)
        vid_out = video_codec_simulate(img, qstep=24.0, deadzone=0.8)
        unc.append(dct_ac_histogram([img]).zero_fraction)
        jpeg75.append(
            dct_ac_histogram([jpeg_simulate(img, 75, quantize_output=False)]).zero_fraction
        )
        vid.append(dct_ac_histogram([vid_out]).zero_fraction)
        recomp.append(
            dct_ac_histogram(
                [jpeg_simulate(vid_out, 90, quantize_output=False)]
            ).zero_fraction
        )
    assert np.mean(vid) > np.mean(jpeg75) > np.mean(unc)
    assert np.mean(recomp) >= np.mean(vid) - 1e-15, "recompression lowered zero fraction"


@criterion(5, "canonical chain strictly cuts top-third RAPSD power")
def test_criterion_5_rapsd_direction():
    chain = chain_steps({"steps": [
        {"step": "motion_blur", "length": 5, "angle_deg": 0.0},
        {"step": "resize", "shorter_side": 32},
        {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
    ]})
    nbins = 12
    top = slice(2 * nbins // 3, nbins)
    n_batches, per_batch = 5, 20
    for batch_idx in range(n_batches):
        before, after = [], []
        for k in range(per_batch):
            seed = batch_idx * per_batch + k
            rng_img = np.random.default_rng(5000 + seed)
            img = rng_img.uniform(0.1, 0.9, size=(1, 48, 48))
            degraded = apply_chain(img, chain, np.random.default_rng(seed))
            before.append(rapsd(img, nbins=nbins).power)
            after.append(rapsd(degraded, nbins=nbins).power)
        mean_before = np.mean(before, axis=0)
        mean_after = np.mean(after, axis=0)
        assert mean_after[top].mean() < mean_before[top].mean(), (
            f"batch {batch_idx}: top-third power not reduced"
        )


def _stretch(data):
    lo, hi = data.min(), data.max()
    return (data - lo) / (hi - lo)


def _stamp_extremes(data, rng):
    # a shadow disk and a highlight disk, so full-range content has real tails
    h, w = data.shape
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    r = max(3, int(0.08 * min(h, w)))
    for value in (0.0, 1.0):
        cy, cx = rng.integers(r, h - r), rng.integers(r, w - r)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        data = np.where(mask, value, data)
    return data


def _varied_full_range_image(i, h=128, w=128) -> np.ndarray:
    rng = np.random.default_rng(1000 + i)
    kind = i % 5
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    if kind == 0:
        data = rng.uniform(0, 1, (h, w))
    elif kind == 1:
        angle = rng.uniform(0, np.pi)
        data = np.cos(angle) * xx + np.sin(angle) * yy + rng.normal(0, 0.04, (h, w))
    elif kind == 2:
        f = rng.uniform(1.5, 4.0)
        data = (
            np.sin(2 * np.pi * f * xx)
            + np.sin(2 * np.pi * f * 0.7 * yy)
            + rng.normal(0, 0.1, (h, w))
        )
    elif kind == 3:
        base = rng.uniform(0, 1, (h, w))
        data = gaussian_blur(base[None], 2.0)[0] + rng.normal(
            0, 0.03, (h, w)
        )
    else:
        data = xx * yy + rng.normal(0, 0.08, (h, w))
    data = _stamp_extremes(_stretch(data), rng)
    return quantize_8bit(np.clip(data, 0.0, 1.0)[None])


@criterion(6, "TV-range forensics: 50 originals Full, 50 squeezed Limited")
def test_criterion_6_tv_range():
    for i in range(50):
        img = _varied_full_range_image(i)
        verdict_orig, _, _ = detect_tv_range(luminance_histogram([img]))
        verdict_sq, _, _ = detect_tv_range(luminance_histogram([tv_range_squeeze(img)]))
        assert verdict_orig == "full", f"image {i} original misread"
        assert verdict_sq == "limited", f"image {i} squeezed misread"
    ramp = np.tile(np.arange(256) / 255.0, (16, 1))[None]
    counts = luminance_histogram([tv_range_squeeze(ramp)])
    assert np.count_nonzero(counts[16:236] == 0) >= 1


# --- criterion 7 oracles (plain loops, no shared code with the implementation) ---


def _oracle_counts(scores, labels, threshold):
    tp = fp = fn = tn = 0
    for s, l in zip(scores, labels):
        predicted = 1 if s >= threshold else 0
        if predicted == 1 and l == 1:
            tp += 1
        elif predicted == 1 and l == 0:
            fp += 1
        elif predicted == 0 and l == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def _oracle_ap(scores, labels):
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        flagged = sum(1 for s in scores if s >= t)
        ap += (tp / n_pos - prev_recall) * (tp / flagged)
        prev_recall = tp / n_pos
    return ap


def _pooled_row(scores, labels):
    """The ``overall_pooled`` row of the report on one subset, at threshold 0.5."""
    report = subset_report(np.array(scores), np.array(labels, dtype=np.int8), ["s"] * len(scores),
                           0.5, "subset-mean")
    return report["overall_pooled"]


@criterion(7, "metrics equal brute-force oracles on 1000 tied instances")
def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        scores = (rng.integers(0, 6, n) / 5.0).tolist()
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(0, n))] = 1
        if sum(labels) == n:
            labels[int(rng.integers(0, n))] = 0
        row = _pooled_row(scores, labels)
        tp, fp, fn, tn = _oracle_counts(scores, labels, 0.5)
        assert row["acc"] == (tp + tn) / n
        # mean of the two recalls, in its exact single-division form
        assert row["balanced_acc"] == (
            tp * (tn + fp) + tn * (tp + fn)
        ) / (2 * (tp + fn) * (tn + fp))
        expected_p = tp / (tp + fp) if tp + fp else 0.0
        expected_r = tp / (tp + fn)
        assert row["precision"] == expected_p
        assert row["recall"] == expected_r
        expected_f1 = (
            2 * expected_p * expected_r / (expected_p + expected_r)
            if expected_p + expected_r
            else 0.0
        )
        assert row["f1"] == expected_f1
        assert row["ap"] == _oracle_ap(scores, labels)

    hand = _pooled_row([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert abs(hand["ap"] - 5.0 / 6.0) <= 1e-12


@criterion(8, "numerical kernels: DCT, Parseval, quantizers, quality tables")
def test_criterion_8_numerical_kernels():
    rng = np.random.default_rng(8)
    for _ in range(200):
        block = rng.normal(scale=rng.uniform(0.1, 100.0), size=(8, 8))
        coeffs = dct8x8_forward(block)
        assert abs((coeffs**2).sum() - (block**2).sum()) <= 1e-9
        assert np.abs(dct8x8_inverse(coeffs) - block).max() <= 1e-10

    table = quant_table_from_quality(60)
    for _ in range(100):
        coeffs = rng.normal(scale=80.0, size=(8, 8))
        q1 = quantize_coefficients(coeffs, table)
        rec1 = dequantize_coefficients(q1, table)
        assert np.array_equal(quantize_coefficients(rec1, table), q1)
        dz1 = deadzone_quantize_block(coeffs, qstep=9.7, deadzone=0.6)
        assert np.array_equal(deadzone_quantize_block(dz1, qstep=9.7, deadzone=0.6), dz1)

    for quality in (50, 96, 100):
        scale = 5000 // quality if quality < 50 else 200 - 2 * quality
        for channel, base in (("luma", JPEG_LUMA_BASE), ("chroma", JPEG_CHROMA_BASE)):
            expected = np.clip((base * scale + 50) // 100, 1, 255)
            actual = quant_table_from_quality(quality, channel)
            assert np.array_equal(actual, expected), f"Q={quality} {channel}"


@criterion(9, "CLI determinism: byte-identical reruns for every subcommand")
def test_criterion_9_cli_determinism(tmp_path):
    def snapshot(path: Path):
        return {
            str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file()
        }

    def run_twice(argv, out_dir):
        assert cli_main([str(a) for a in argv]) == 0
        first = snapshot(out_dir)
        assert cli_main([str(a) for a in argv]) == 0
        assert snapshot(out_dir) == first, f"rerun of {argv[0]} differed"

    entries = []
    for i in range(6):
        img = textured_image(seed=900 + i, h=32, w=32)
        path = tmp_path / f"img_{i}.pgm"
        save_image(img, path)
        entries.append(
            {
                "id": f"s{i}",
                "path": str(path),
                "label": "real" if i % 2 == 0 else "fake",
                "modality": "image",
                "subset": "synthetic",
            }
        )
    manifest = write_manifest_file(tmp_path / "manifest.jsonl", entries)

    out = tmp_path / "analyze"
    run_twice(
        ["analyze", "dct", "--manifest", manifest, "--out", out, "--seed", 1], out
    )

    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({"steps": [
        {"step": "motion_blur", "length": 3, "angle_deg": 10.0},
        {"step": "jpeg", "quality": 85},
    ]}))
    out = tmp_path / "degrade"
    run_twice(
        ["degrade", "--manifest", manifest, "--chain", chain_path, "--out", out,
         "--seed", 2],
        out,
    )

    train_config = tmp_path / "train.json"
    train_config.write_text(
        json.dumps(
            {
                "data": {
                    "synthetic": {
                        "train_counts": [40, 40, 20, 20],
                        "val_counts": [12, 12, 8, 8],
                        "test_counts": [20, 20, 20, 20],
                        "seed": 3,
                    }
                },
                "train": {"epochs": 8, "batch_size": 16, "lambda": 0.05, "seed": 3},
            }
        )
    )
    out = tmp_path / "train"
    run_twice(["train", "--config", train_config, "--out", out], out)

    rng = np.random.default_rng(9)
    records = [
        {
            "id": f"e{i}",
            "x": rng.normal(size=6).tolist(),
            "label": "fake" if i % 2 else "real",
            "modality": "image" if i % 4 < 2 else "video",
            "subset": "a" if i < 10 else "b",
        }
        for i in range(20)
    ]
    features = tmp_path / "features.json"
    features.write_text(json.dumps({"records": records}))
    out = tmp_path / "evaluate"
    run_twice(
        ["evaluate", "--checkpoint", tmp_path / "train" / "checkpoint.json",
         "--features", features, "--out", out, "--frames", 1],
        out,
    )
