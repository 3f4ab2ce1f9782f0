"""Cross-modal supervised contrastive objective and its analytic gradients.

Positives for an anchor are the opposite-modality samples with the same
real/fake label; anchors with no such positive are excluded from the
loss. The vanilla variant ignores modality and serves as the ablation
baseline. The BCE term and its gradient live here too; ``trainer`` assembles
the joint objective, mean BCE + lambda * contrastive term, from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import Label, Modality
from .errors import InputError

DEFAULT_TAU = 0.07
DEFAULT_LAMBDA = 0.05

_NORM_FLOOR = 1e-12


class LossVariant(Enum):
    CROSS_MODAL = "cross_modal"
    VANILLA = "vanilla"


@dataclass(frozen=True)
class LossConfig:
    tau: float = DEFAULT_TAU
    variant: LossVariant = LossVariant.CROSS_MODAL

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")

    @property
    def cross_modal(self) -> bool:
        return self.variant is LossVariant.CROSS_MODAL


def _as_binary_array(values, what: str) -> np.ndarray:
    """Accept Label/Modality sequences or 0/1 arrays; return int8 array."""
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int8)
    else:
        converted = []
        for v in values:
            if isinstance(v, (Label, Modality)):
                converted.append(v.numeric)
            else:
                converted.append(int(v))
        arr = np.asarray(converted, dtype=np.int8)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} entries must be 0 or 1")
    return arr


@dataclass(frozen=True)
class BatchFeatures:
    """Pre-normalization features z with class labels y and modalities m."""

    z: np.ndarray
    y: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(self.z, dtype=np.float64)
        y = _as_binary_array(self.y, "labels")
        m = _as_binary_array(self.m, "modalities")
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 2:
            raise ValueError("z must be (n, d) with n >= 1 and d >= 2")
        if not (len(y) == len(m) == z.shape[0]):
            raise InputError(
                f"z has {z.shape[0]} rows but got {len(y)} labels, {len(m)} modalities"
            )
        if not np.all(np.isfinite(z)):
            raise ValueError("features must be finite")
        if np.any(np.all(z == 0.0, axis=1)):
            raise ValueError("no feature row may be identically zero")
        for arr in (z, y, m):
            arr.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _row_norms(z: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(norms <= _NORM_FLOOR)
    if bad.size:
        raise InputError(f"feature row {int(bad[0])} has (near-)zero norm")
    return norms


def _positives(y: np.ndarray, m: np.ndarray, cross_modal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The positive mask of a batch and each anchor's positive count."""
    mask = y[:, None] == y[None, :]
    if cross_modal:
        mask &= m[:, None] != m[None, :]
    np.fill_diagonal(mask, False)
    return mask, mask.sum(axis=1)


@dataclass(frozen=True)
class ContrastiveResult:
    loss: float
    per_anchor: np.ndarray  # length n; zero for anchors outside the valid set
    valid: np.ndarray
    grad: Optional[np.ndarray] = None  # dL/dz, when the kernel was asked for it


def _contrastive(
    z: np.ndarray,
    positives: tuple[np.ndarray, np.ndarray],
    tau: float,
    with_grad: bool = False,
) -> ContrastiveResult:
    """The one contrastive kernel: loss, per-anchor terms and, on request, dL/dz.

    ``positives`` is ``_positives`` of the rows' labels and modalities.
    Normalization and the row softmax are computed once and shared by loss
    and gradient. Only valid-anchor rows get logits: the other rows add
    nothing to either.
    """
    z = np.asarray(z, dtype=np.float64)
    norms = _row_norms(z)
    zhat = z / norms[:, None]
    n = z.shape[0]
    mask, pos_counts = positives
    valid = np.flatnonzero(pos_counts > 0)
    per_anchor = np.zeros(n)
    if valid.size == 0:
        grad = np.zeros_like(z) if with_grad else None
        return ContrastiveResult(loss=0.0, per_anchor=per_anchor, valid=valid, grad=grad)
    # the gradient takes rows of the full (symmetric) product, the same BLAS call
    # as the per-anchor reference, so it stays bit-identical; the loss alone
    # needs only the valid rows
    logits = (zhat @ zhat.T)[valid] if with_grad else zhat[valid] @ zhat.T
    logits /= tau
    logits[np.arange(valid.size), valid] = -np.inf  # an anchor is not its own candidate
    mask, pos_counts = mask[valid], pos_counts[valid]
    logits -= logits.max(axis=1)[:, None]  # now every entry is <= 0
    # -mean log-prob over positives = log(denom) - mean shifted positive logit;
    # log(denom) >= 0 and the positive logits are <= 0, so the loss is exactly >= 0
    pos_mean = np.where(mask, logits, 0.0).sum(axis=1) / pos_counts
    softmax = np.exp(logits, out=logits)
    denom = softmax.sum(axis=1)
    per_anchor[valid] = np.log(denom) - pos_mean
    loss = float(per_anchor[valid].mean())
    grad = None
    if with_grad:
        # dL/ds[i, j]: softmax minus the positive-indicator average, per valid anchor
        grad_s = np.zeros((n, n))
        softmax /= denom[:, None]
        grad_s[valid] = (1.0 / valid.size) * (softmax - mask / pos_counts[:, None])
        grad_s[valid, valid] = 0.0
        grad_zhat = (grad_s + grad_s.T) @ zhat / tau
        # chain rule through row normalization
        inner = np.sum(grad_zhat * zhat, axis=1, keepdims=True)
        grad = (grad_zhat - inner * zhat) / norms[:, None]
    return ContrastiveResult(loss=loss, per_anchor=per_anchor, valid=valid, grad=grad)


def cm_supcon_loss(batch: BatchFeatures, cfg: LossConfig) -> ContrastiveResult:
    """Cross-modal supervised contrastive loss; 0 when no anchor is valid."""
    if cfg.variant is not LossVariant.CROSS_MODAL:
        raise ValueError("cm_supcon_loss requires the CROSS_MODAL variant")
    return _contrastive(batch.z, _positives(batch.y, batch.m, True), cfg.tau)


def vanilla_supcon_loss(batch: BatchFeatures, cfg: LossConfig) -> float:
    """Ablation variant: all same-label samples are positives, modality ignored."""
    if cfg.variant is not LossVariant.VANILLA:
        raise ValueError("vanilla_supcon_loss requires the VANILLA variant")
    return _contrastive(batch.z, _positives(batch.y, batch.m, False), cfg.tau).loss


def contrastive_loss(batch: BatchFeatures, cfg: LossConfig) -> float:
    """Dispatch on cfg.variant."""
    return _contrastive(batch.z, _positives(batch.y, batch.m, cfg.cross_modal), cfg.tau).loss


def contrastive_grad(batch: BatchFeatures, cfg: LossConfig) -> np.ndarray:
    """Gradient of the configured variant w.r.t. the pre-normalization z."""
    return _contrastive(batch.z, _positives(batch.y, batch.m, cfg.cross_modal), cfg.tau, True).grad


def cm_supcon_grad(batch: BatchFeatures, cfg: LossConfig) -> np.ndarray:
    """Analytic gradient of cm_supcon_loss w.r.t. the pre-normalization z.

    Includes the chain rule through the row normalization; validated
    against central finite differences in the test suite.
    """
    if cfg.variant is not LossVariant.CROSS_MODAL:
        raise ValueError("cm_supcon_grad requires the CROSS_MODAL variant")
    return _contrastive(batch.z, _positives(batch.y, batch.m, True), cfg.tau, True).grad


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean BCE of sigmoid(logit) vs 0/1 targets, in the stable logit form."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(per.mean())


def bce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(logits) - targets) / n.

    The sigmoid is ``_sigmoid``'s bit for bit: libm's exp in one pass, then
    NumPy's add and divide, which round as Python's do. Only a batch in which
    math.exp overflows goes element by element.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    try:
        probs = np.fromiter(map(math.exp, (-logits).ravel().tolist()), np.float64, logits.size)
    except OverflowError:
        probs = np.fromiter(map(_sigmoid, logits.ravel().tolist()), np.float64, logits.size)
    else:
        probs += 1.0
        np.divide(1.0, probs, out=probs)
    return (probs.reshape(logits.shape) - targets) / logits.shape[0]


def _sigmoid(v: float) -> float:
    """1/(1 + exp(-v)) through libm's exp, bit for bit scipy.special.expit.

    The np.exp form differs from it in the last bit on ~10% of values.
    math.exp raises where C's exp returns inf (v below about -709.78); the
    C form then gives exactly 0.0.
    """
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0
