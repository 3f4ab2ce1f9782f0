"""Desk-scale differentiable model, optimizer, batch sampling, training loop.

The model is a one-hidden-layer MLP with a projection head for the
contrastive feature and a linear classifier head; gradients are analytic
and finite-difference checked. The synthetic generator builds a
cross-modal dataset with a designed shortcut: a coordinate that predicts
the class for images but is pure noise for video frames, so image-only
training fails on the video domain.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

import numpy as np

from .cmsupcon import (
    _NORM_FLOOR,
    DEFAULT_LAMBDA,
    DEFAULT_TAU,
    VARIANTS,
    _contrastive,
    _positives,
    bce_grad,
    binary_cross_entropy,
)
from .core import (MODALITIES, SEED_ROW, Field, check_choice, check_fields, read_json,
                   with_defaults)
from .errors import InputError, NumericalError

CHECKPOINT_FORMAT = "xmodal-checkpoint"
CHECKPOINT_VERSION = 3

PARAM_NAMES = ("w1", "b1", "wp", "wc", "bc")


def _param_shapes(d_in: int, d_h: int, d_z: int) -> dict[str, tuple[int, ...]]:
    return {"w1": (d_in, d_h), "b1": (d_h,), "wp": (d_h, d_z), "wc": (d_h,), "bc": (1,)}


@dataclass(frozen=True)
class ToyModel:
    """relu MLP: h = relu(x W1 + b1); z = h Wp (projection); logit = h wc + bc."""

    w1: np.ndarray
    b1: np.ndarray
    wp: np.ndarray
    wc: np.ndarray
    bc: np.ndarray  # shape (1,)

    def __post_init__(self):
        arrays = {n: np.ascontiguousarray(getattr(self, n), dtype=np.float64)
                  for n in PARAM_NAMES}
        if arrays["w1"].ndim != 2 or arrays["wp"].ndim != 2:
            raise InputError("w1 must be (d_in, d_h) and wp (d_h, d_z)")
        shapes = _param_shapes(*arrays["w1"].shape, arrays["wp"].shape[1])
        for name, arr in arrays.items():  # the one scan of each parameter
            if arr.shape != shapes[name]:
                raise InputError(f"{name}: shape {arr.shape}, expected {shapes[name]}")
            if not np.isfinite(arr).all():
                raise NumericalError(f"{name}: non-finite value")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def init(cls, d_in: int, d_h: int, d_z: int, rng: np.random.Generator) -> "ToyModel":
        return cls(
            w1=rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_h)),
            b1=np.zeros(d_h),
            wp=rng.normal(0.0, 1.0 / np.sqrt(d_h), size=(d_h, d_z)),
            wc=rng.normal(0.0, 1.0 / np.sqrt(d_h), size=d_h),
            bc=np.zeros(1),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "ToyModel":
        return cls(**{name: params[name] for name in PARAM_NAMES})


# A model, or the bare parameter dict the training loop carries between steps.
Params = Union[ToyModel, Mapping[str, np.ndarray]]


def _param_arrays(model: Params) -> Mapping[str, np.ndarray]:
    return model.params() if isinstance(model, ToyModel) else model


class ForwardResult(NamedTuple):
    logits: np.ndarray
    z: np.ndarray
    h: np.ndarray
    pre_activation: np.ndarray


def forward(
    model: Params, x: np.ndarray, feature_layer: str = "projection"
) -> ForwardResult:
    """Batched forward pass; z is the contrastive feature (pre-normalization),
    taken from ``feature_layer``, one of FEATURE_LAYERS."""
    check_choice(feature_layer, "feature_layer", FEATURE_LAYERS, "forward: ")
    p = _param_arrays(model)
    x = np.asarray(x, dtype=np.float64)
    d_in = p["w1"].shape[0]
    if x.ndim != 2 or x.shape[1] != d_in:
        raise InputError(f"expected input (n, {d_in}), got {x.shape}")
    pre = x @ p["w1"] + p["b1"]
    h = np.maximum(pre, 0.0)
    z = h @ p["wp"] if feature_layer == "projection" else h
    logits = h @ p["wc"] + p["bc"][0]
    return ForwardResult(logits=logits, z=z, h=h, pre_activation=pre)


def _live_rows(z: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.linalg.norm(z, axis=1) > _NORM_FLOOR)


def contrastive_term(
    z: np.ndarray, y: np.ndarray, m: np.ndarray, tau: float, variant: str,
    positives: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> float:
    """Contrastive loss over the live-feature subbatch (dead rows excluded).
    ``variant`` is one of VARIANTS; ``positives``, if given, is ``_positives``
    of all of y and m."""
    check_choice(variant, "variant", VARIANTS, "contrastive_term: ")
    live = _live_rows(z)
    if live.size < 2:
        return 0.0
    if positives is None:
        positives = _positives(np.asarray(y)[live], np.asarray(m)[live], variant == "cross_modal")
    elif live.size < len(z):
        mask = positives[0][np.ix_(live, live)]
        positives = mask, mask.sum(axis=1)
    return _contrastive(z[live], positives, tau).loss


def backward(
    model: Params, x: np.ndarray, targets: np.ndarray, lam: float, tau: float,
    modalities: np.ndarray, feature_layer: str = "projection", variant: str = "cross_modal",
    grads: Optional[dict[str, np.ndarray]] = None, steps: Optional[list] = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the joint objective w.r.t. every parameter,
    written into ``grads`` when it is given, else into new arrays. ``variant``
    is one of VARIANTS.

    The contrastive path is skipped entirely when lam == 0 so a pure-BCE
    run is bit-identical to setting lam to zero, and after the dead-row
    count when no anchor has a positive: the term and its gradient are then
    zero. Samples whose feature row is dead (zero norm, all ReLUs off) sit
    out the contrastive term. When ``steps`` is given, the batch's (logits,
    contrastive loss, valid anchors, dead rows) are appended to it.
    """
    check_choice(variant, "variant", VARIANTS, "backward: ")
    p = _param_arrays(model)
    x = np.asarray(x, dtype=np.float64)
    out = forward(p, x, feature_layer)
    targets = np.asarray(targets, dtype=np.float64)
    modalities = np.asarray(modalities)
    if grads is None:
        grads = {name: np.empty_like(p[name]) for name in PARAM_NAMES}
    g_logit = bce_grad(out.logits, targets)
    g_h = g_logit[:, None] * p["wc"][None, :]
    np.matmul(out.h.T, g_logit, out=grads["wc"])
    grads["bc"][0] = g_logit.sum()
    grads["wp"].fill(0.0)
    cm, valid, dead = 0.0, 0, 0
    if lam > 0:
        live = _live_rows(out.z)
        dead = len(out.z) - live.size
        positives = _positives(targets[live], modalities[live], variant == "cross_modal")
        if positives[1].any():
            term = _contrastive(out.z[live], positives, tau, True)
            cm, valid = term.loss, term.valid.size
            g_z = np.zeros_like(out.z)
            g_z[live] = lam * term.grad
            if feature_layer == "projection":
                np.matmul(out.h.T, g_z, out=grads["wp"])
                g_h = g_h + g_z @ p["wp"].T
            else:
                g_h = g_h + g_z
    g_pre = g_h * (out.pre_activation > 0)
    np.matmul(x.T, g_pre, out=grads["w1"])
    np.sum(g_pre, axis=0, out=grads["b1"])
    if steps is not None:
        steps.append((out.logits, cm, valid, dead))
    return grads


# AdamW moment decay rates and denominator floor, at their usual values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def optimizer_step(p, g, m, v, step: int, lr: float, weight_decay: float, work=None) -> None:
    """AdamW update number ``step`` (from 1) of the arrays p, m and v, in place.

    Each element goes through the textbook form's operations in its order:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, then p - (lr*m_hat) /
    (sqrt(v_hat) + eps) - (lr*wd)*p_old. ``work`` is two scratch arrays shaped like p.
    """
    if not g.shape == m.shape == v.shape == p.shape:
        raise InputError(f"gradient {g.shape} and moments {m.shape}, {v.shape} "
                         f"must have the parameter shape {p.shape}")
    t, u = np.empty((2, *p.shape)) if work is None else work
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=t)
    v += np.multiply(t, g, out=t)
    np.divide(m, 1.0 - ADAM_BETA1**step, out=t)
    t *= lr
    np.divide(v, 1.0 - ADAM_BETA2**step, out=u)
    np.sqrt(u, out=u)
    u += ADAM_EPS
    t /= u
    if weight_decay:
        np.multiply(p, lr * weight_decay, out=u)
        p -= t
        p -= u
    else:
        p -= t


# probability that a batch slot not reserved for either modality draws video
VIDEO_FRACTION = 0.5


def mixed_batch_sampler(
    image_pool: np.ndarray, video_pool: np.ndarray, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """One epoch of index batches covering both pools without replacement.

    Every batch holds at least one sample of each modality while both pools
    still have samples left; each remaining slot draws video with
    probability VIDEO_FRACTION.
    """
    check_fields({"batch_size": batch_size}, TRAIN_FIELDS, "mixed_batch_sampler: ")
    image_pool = np.asarray(image_pool, dtype=np.int64)
    video_pool = np.asarray(video_pool, dtype=np.int64)
    if image_pool.size == 0 and video_pool.size == 0:
        raise InputError("need at least one non-empty pool")
    if image_pool.size == 0 or video_pool.size == 0:
        missing = "video" if video_pool.size == 0 else "image"
        warnings.warn(
            f"{missing} pool is empty: batches are single-modality and the "
            "cross-modal contrastive term will be inert",
            stacklevel=2,
        )
    # each permuted pool is a queue taken from its end; ni and nv count what is left
    img, vid = rng.permutation(image_pool), rng.permutation(video_pool)
    ni, nv = img.size, vid.size
    batches: list[np.ndarray] = []
    while ni or nv:
        take = min(batch_size, ni + nv)
        head = int(ni > 0 and nv > 0 and take >= 2)
        first = (img[ni - head : ni], vid[nv - head : nv])
        ni, nv = ni - head, nv - head
        # one draw per remaining slot; a slot whose wanted queue has run dry
        # takes from the other one. Only one queue can run dry in a batch,
        # since take <= ni + nv, so the counts of earlier wishes decide.
        want_video = rng.random(take - 2 * head) < VIDEO_FRACTION
        videos_wanted = np.cumsum(want_video)
        images_wanted = np.arange(1, want_video.size + 1) - videos_wanted
        is_video = np.where(want_video, videos_wanted <= nv, images_wanted > ni)
        n_vid = int(np.count_nonzero(is_video))
        rest = np.empty(want_video.size, dtype=np.int64)
        rest[is_video] = vid[nv - n_vid : nv][::-1]
        rest[~is_video] = img[ni - (rest.size - n_vid) : ni][::-1]
        ni, nv = ni - (rest.size - n_vid), nv - n_vid
        batches.append(np.concatenate((*first, rest)))
    return batches


class FeatureDataset(NamedTuple):
    """Feature-level dataset: an (n, d) array x of rows with their n label codes y
    and modality codes m, each 0 or 1. ``train`` checks it."""

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray

    def restrict_modality(self, modality: str) -> "FeatureDataset":
        """The rows of ``modality``, one of MODALITIES."""
        check_choice(modality, "modality", MODALITIES, "restrict_modality: ")
        keep = self.m == MODALITIES.index(modality)
        if not keep.any():
            raise InputError(f"no {modality} samples to restrict to")
        return FeatureDataset(self.x[keep], self.y[keep], self.m[keep])


# The parameter budget: hidden_dim and feature_dim are each at most MAX_WIDTH,
# so wp holds at most 2**20 values (8 MiB of float64)
MAX_WIDTH = 1 << 10

# The `train` section of a config file and of `train`'s run.json, and the
# `config` of a checkpoint, with each key's default. The toy-scale optimizer
# defaults (lr 1e-3) are deliberately hotter than a fine-tuning setup for a
# large backbone would use. feature_layer selects where the contrastive
# feature comes from: 'hidden' binds the alignment to the representation the
# classifier reads, which is what makes the cross-modal term effective at this
# scale; 'projection' routes it through the separate head instead.
FEATURE_LAYERS = ("projection", "hidden")
TRAIN_FIELDS = (
    Field("epochs", "int", 1, default=150),
    # a batch mixes both modalities while both pools last, with or without the
    # contrastive term
    Field("batch_size", "int", 2, default=32),
    Field("lambda", "number", 0, default=DEFAULT_LAMBDA),
    Field("tau", "number", 0, ends="(]", default=DEFAULT_TAU),
    SEED_ROW,
    Field("patience", "int", 0, default=20),
    Field("lr", "number", 0, ends="(]", default=1e-3),
    Field("weight_decay", "number", 0, default=0.01),
    Field("feature_layer", "choice", choices=FEATURE_LAYERS, default="hidden"),
    Field("variant", "choice", choices=VARIANTS, default="cross_modal"),
    Field("hidden_dim", "int", 1, MAX_WIDTH, default=16),
    Field("feature_dim", "int", 1, MAX_WIDTH, default=8),
)


def train_config(doc, where: str = "", prefix: str = "train.") -> Mapping:
    """The training config a JSON object of TRAIN_FIELDS keys gives, checked once:
    a read-only mapping of all of them, an absent key at its default. Errors
    name ``where`` and the key as ``prefix + key``."""
    return with_defaults(doc, TRAIN_FIELDS, where, prefix)


class EpochStats(NamedTuple):
    """One epoch's row of history.csv. The train_* columns and the counters
    cover the epoch's batches as they were stepped, train_cm as the mean over
    their valid anchors; val_* cover the whole validation set after the epoch."""

    epoch: int
    train_bce: float
    train_cm: float
    train_total: float
    val_total: float
    train_acc: float
    val_acc: float
    valid_anchors: int  # anchors with a positive
    dead_rows: int  # feature rows the contrastive term dropped
    grad_norm: float  # the mean L2 norm of a step's gradient


class TrainResult(NamedTuple):
    model: ToyModel
    history: tuple[EpochStats, ...]
    best_epoch: int
    best_val: float
    stopped_early: bool


def _stats_inputs(data: FeatureDataset, config: Mapping) -> tuple:
    """The dataset and, when the contrastive term is on, its positives: what
    ``_dataset_stats`` needs of a dataset that no epoch changes."""
    cross_modal = config["variant"] == "cross_modal"
    return data, _positives(data.y, data.m, cross_modal) if config["lambda"] > 0 else None


def _loss_stats(logits: np.ndarray, y: np.ndarray, cm: float, lam: float) -> tuple[float, ...]:
    """(bce, cm, total, accuracy) of the logits against the 0/1 labels y."""
    bce = binary_cross_entropy(logits, y)
    return bce, cm, bce + lam * cm, float(((logits >= 0.0).astype(np.int8) == y).mean())


def _dataset_stats(model: Params, inputs: tuple, config: Mapping) -> tuple[float, ...]:
    """(bce, cm, total, accuracy) of the full dataset under the model."""
    data, positives = inputs
    out = forward(model, data.x, config["feature_layer"])
    cm = 0.0
    if config["lambda"] > 0:
        cm = contrastive_term(out.z, data.y, data.m, config["tau"], config["variant"], positives)
    return _loss_stats(out.logits, data.y, cm, config["lambda"])


def _flat_views(flat: np.ndarray, shapes: Mapping[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes, by name."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    parts = np.split(flat, ends[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


def _check_finite_rows(train_data: FeatureDataset, val_data: FeatureDataset) -> None:
    """Raise InputError naming the first feature row of either split that is not finite."""
    for name, data in (("training", train_data), ("validation", val_data)):
        bad = np.flatnonzero(~np.isfinite(data.x).all(axis=1))
        if bad.size:
            raise InputError(f"{name} feature row {bad[0]} holds a non-finite value")


def train(
    model: ToyModel, train_data: FeatureDataset, val_data: FeatureDataset, config: Mapping
) -> TrainResult:
    """Mini-batch AdamW training with early stopping on validation loss.

    Returns the checkpoint with the best validation loss seen, plus the
    per-epoch history. Deterministic given (data, config, seed). ``config``
    holds every TRAIN_FIELDS key, as ``train_config`` returns it.

    Inputs are checked once, here: each dataset's shapes and codes. A
    non-finite feature is looked for only once it has made a loss or an
    update non-finite: then InputError names its split and row, and with
    every feature finite NumericalError is raised. The step loop runs on four flat
    vectors, the parameters, their gradients and AdamW's two moments, with a
    view per parameter into each, and only checks that every update stayed
    finite.
    """
    train_data, val_data = (FeatureDataset(*map(np.asarray, d)) for d in (train_data, val_data))
    if len(val_data.y) == 0:
        raise InputError("validation set must be non-empty")
    for name, (x, y, m) in (("training", train_data), ("validation", val_data)):
        if x.ndim != 2 or x.shape[1] != model.d_in:
            raise InputError(f"{name} features have shape {x.shape}, model expects "
                             f"(n, {model.d_in})")
        if not len(x) == len(y) == len(m):
            raise InputError(f"{name} set has {len(x)} feature rows, {len(y)} labels "
                             f"and {len(m)} modalities")
        if not (np.isin(y, (0, 1)).all() and np.isin(m, (0, 1)).all()):
            raise InputError(f"{name} labels and modalities must be 0 or 1")
    rng = np.random.default_rng(config["seed"])
    lam, tau, layer = config["lambda"], config["tau"], config["feature_layer"]
    shapes = {name: arr.shape for name, arr in model.params().items()}
    theta = np.concatenate([arr.ravel() for arr in model.params().values()])
    grad, m, v, *work = np.zeros((5, theta.size))  # work: AdamW's two scratch vectors
    params, grads = _flat_views(theta, shapes), _flat_views(grad, shapes)
    val_stats = _stats_inputs(val_data, config)
    train_y = train_data.y.astype(np.float64)
    image_pool, video_pool = np.flatnonzero(train_data.m == 0), np.flatnonzero(train_data.m == 1)
    history: list[EpochStats] = []
    best_val, best_theta, best_epoch = np.inf, theta.copy(), -1
    step = bad_epochs = 0
    for epoch in range(config["epochs"]):
        with warnings.catch_warnings():
            if epoch > 0:  # the single-modality warning, if any, was surfaced on epoch 0
                warnings.simplefilter("ignore")
            batches = mixed_batch_sampler(image_pool, video_pool, config["batch_size"], rng)
        steps, norm_sum = [], 0.0
        for idx in batches:
            backward(params, train_data.x[idx], train_y[idx], lam, tau, train_data.m[idx],
                     layer, config["variant"], grads, steps)
            norm_sum += math.sqrt(grad @ grad)
            step += 1
            optimizer_step(theta, grad, m, v, step, config["lr"], config["weight_decay"], work)
            if not np.isfinite(theta).all():
                _check_finite_rows(train_data, val_data)
                name = next(n for n, p in params.items() if not np.isfinite(p).all())
                raise NumericalError(
                    f"parameter {name} became non-finite at epoch {epoch}; "
                    "the run diverged (try a smaller lr)"
                )
        logits, cms, valid, dead = zip(*steps)
        anchors = sum(valid)
        cm = sum(c * n for c, n in zip(cms, valid)) / anchors if anchors else 0.0
        tr_bce, tr_cm, tr_total, tr_acc = _loss_stats(
            np.concatenate(logits), train_data.y[np.concatenate(batches)], cm, lam)
        _, _, val_total, val_acc = _dataset_stats(params, val_stats, config)
        if not (np.isfinite(tr_total) and np.isfinite(val_total)):
            _check_finite_rows(train_data, val_data)
            raise NumericalError(
                f"non-finite loss at epoch {epoch}: train={tr_total}, val={val_total}"
            )
        history.append(EpochStats(epoch, tr_bce, tr_cm, tr_total, val_total, tr_acc, val_acc,
                                  anchors, sum(dead), norm_sum / len(batches)))
        if val_total < best_val:
            best_val = val_total
            best_theta = theta.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config["patience"]:
                break
    return TrainResult(
        model=ToyModel.from_params(_flat_views(best_theta, shapes)),
        history=tuple(history),
        best_epoch=best_epoch,
        best_val=float(best_val),
        stopped_early=bad_epochs > config["patience"],
    )


# --- synthetic cross-modal data -------------------------------------------------

# the (label, modality) codes of the four groups: real image, fake image, real
# video, fake video
GROUP_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


# The memory budget of a split: each epoch computes n x n float64 statistics
# of the whole validation split, and features are n x dim float64. At most
# MAX_SPLIT samples and MAX_SPLIT coordinates keep each such array to 128 MiB.
MAX_SPLIT = 1 << 12
# Synthetic separations, shifts and spreads stay this close to 0, so every
# drawn feature is finite
MAX_SCALE = 10**6
COUNT_KEYS = ("train_counts", "val_counts", "test_counts")

# `data.synthetic` of a config file and the keys of SyntheticSpec, with each
# key's default. A null video_shift shifts the shortcut axis (class-blind in
# video) by 3 and two modality-marker coordinates by 2.5 and -2.5.
SYNTHETIC_FIELDS = (
    Field("dim", "int", 4, MAX_SPLIT, default=6),
    Field("signal_sep", "number", -MAX_SCALE, MAX_SCALE, default=5.0),
    Field("shortcut_sep", "number", -MAX_SCALE, MAX_SCALE, default=7.0),
    Field("noise_std", "number", 0, MAX_SCALE, ends="(]", default=1.0),
    Field("video_shift", "number", -MAX_SCALE, MAX_SCALE, null=True, length=0),
    *(Field(key, "int", 0, MAX_SPLIT, length=4, default=counts) for key, counts in zip(
        COUNT_KEYS, ((200, 200, 80, 0), (60, 60, 26, 0), (400, 400, 400, 400)))),
    SEED_ROW,
)


class SyntheticSpec(namedtuple("SyntheticSpec", [field.key for field in SYNTHETIC_FIELDS])):
    """Gaussian cluster layout for the four (label, modality) groups, as
    ``synthetic_spec`` checks it: one field for each SYNTHETIC_FIELDS key.

    Every coordinate of every group spreads by noise_std. The default layout
    plants a shortcut trap: coordinate 1 separates the classes for images
    but carries no class information for video frames (and is shifted in
    the video domain, so an image-trained classifier reads every video as
    leaning fake), while coordinate 0 is a weaker cue that works in both
    domains. Video clusters are further displaced on two modality-marker
    coordinates, and the default training split has no fake videos at all:
    the fake side of the video domain must be reached by cross-modal
    alignment, not by direct supervision.
    """

    __slots__ = ()

    @classmethod
    def default(cls, **keys) -> "SyntheticSpec":
        """The spec of the given SYNTHETIC_FIELDS keys, the rest at their defaults."""
        return synthetic_spec(keys, "SyntheticSpec.default: ", "")


def synthetic_spec(doc, where: str = "", prefix: str = "data.synthetic.") -> SyntheticSpec:
    """The spec a JSON object of SYNTHETIC_FIELDS keys gives, checked once: each
    split holds 1 to MAX_SPLIT samples and video_shift, unless null, dim numbers.
    Errors name ``where`` and the key as ``prefix + key``."""
    spec = SyntheticSpec(**with_defaults(doc, SYNTHETIC_FIELDS, where, prefix))
    for key in COUNT_KEYS:
        counts = getattr(spec, key)
        if not 1 <= sum(counts) <= MAX_SPLIT:
            raise InputError(f"{where}{prefix + key!r}: must hold 1 to {MAX_SPLIT} "
                             f"samples in all, got {list(counts)}")
    if spec.video_shift is not None and len(spec.video_shift) != spec.dim:
        raise InputError(f"{where}{prefix + 'video_shift'!r}: must hold dim = {spec.dim} "
                         f"numbers, got {len(spec.video_shift)}")
    return spec


class SyntheticData(NamedTuple):
    train: FeatureDataset
    val: FeatureDataset
    test: FeatureDataset


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Draw disjoint train/val/test splits; deterministic per spec.seed."""
    shift = np.zeros(spec.dim)
    if spec.video_shift is None:
        shift[1:4] = 3.0, 2.5, -2.5
    else:
        shift[:] = spec.video_shift
    means = np.zeros((4, spec.dim))
    for g, (fake, video) in enumerate(GROUP_ORDER):
        sign = 1.0 if fake else -1.0
        means[g, 0] = sign * spec.signal_sep / 2.0
        if video:
            means[g] += shift
        else:
            means[g, 1] = sign * spec.shortcut_sep / 2.0
    codes = np.array(GROUP_ORDER, dtype=np.int8)
    rng = np.random.default_rng(spec.seed)
    splits = []
    for counts in (spec.train_counts, spec.val_counts, spec.test_counts):
        x = np.vstack([rng.normal(means[g], spec.noise_std, size=(n, spec.dim))
                       for g, n in enumerate(counts) if n])
        splits.append(FeatureDataset(x, *np.repeat(codes, counts, axis=0).T))
    return SyntheticData(*splits)


# --- checkpoint serialization ------------------------------------------------------


def save_checkpoint(model: ToyModel, config: Mapping, path: str | Path) -> None:
    """Versioned JSON checkpoint: shapes, row-major values and the config."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dict(config),
        "params": {
            name: {
                "shape": list(getattr(model, name).shape),
                "data": getattr(model, name).ravel().tolist(),
            }
            for name in PARAM_NAMES
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


# A checkpoint's `params`, and each parameter's shape and row-major values
PARAMS_FIELDS = tuple(Field(name, "object", required=True) for name in PARAM_NAMES)
PARAM_FIELDS = (Field("shape", "int", 1, 2**31 - 1, required=True, length=0),
                Field("data", "number", required=True, length=0))


def load_checkpoint(path: str | Path) -> tuple[ToyModel, Mapping]:
    """The model and config of a ``save_checkpoint`` file. InputError, naming ``path``, for a
    format, version, config or parameter off its table, or a parameter shape off the config."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise InputError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise InputError(
            f"{path}: unsupported version {doc.get('version')!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    config = train_config(doc.get("config"), f"{path}: ", "config.")
    entries = check_fields(doc.get("params"), PARAMS_FIELDS, f"{path}: ", "params.")
    params = {}
    for name, entry in entries.items():
        where = f"{path}: params.{name}: "
        check_fields(entry, PARAM_FIELDS, where)
        if math.prod(entry["shape"]) != len(entry["data"]):
            raise InputError(f"{where}{len(entry['data'])} values do not fill shape "
                             f"{entry['shape']}")
        params[name] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
    # w1's row count is the model's input width, which only the data fixes
    d_in = params["w1"].shape[0] if params["w1"].ndim else 0
    shapes = _param_shapes(d_in, config["hidden_dim"], config["feature_dim"])
    for name, arr in params.items():  # PARAM_FIELDS made every value a finite number
        if arr.shape != shapes[name]:
            raise InputError(f"{path}: params.{name}: shape {arr.shape}, expected {shapes[name]}")
    return ToyModel.from_params(params), config
