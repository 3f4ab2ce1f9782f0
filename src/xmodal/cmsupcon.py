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

from .errors import InputError

DEFAULT_TAU = 0.07
DEFAULT_LAMBDA = 0.05

_NORM_FLOOR = 1e-12


class LossVariant(Enum):
    CROSS_MODAL = "cross_modal"
    VANILLA = "vanilla"


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


def _check_batch(z, y, m, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z, y and m as arrays, once checked with tau: the kernel takes them on trust."""
    z, y, m = np.asarray(z, dtype=np.float64), np.asarray(y), np.asarray(m)
    if not tau > 0:
        raise InputError(f"tau must be > 0, got {tau}")
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 2:
        raise InputError(f"z must be (n, d) with n >= 1 and d >= 2, got shape {z.shape}")
    if not (y.shape == m.shape == z.shape[:1]):
        raise InputError(f"z has {z.shape[0]} rows but got {y.size} labels, {m.size} modalities")
    for what, arr in (("labels", y), ("modalities", m)):
        if not np.all((arr == 0) | (arr == 1)):
            raise InputError(f"{what} must be 0 or 1")
    if not np.isfinite(z).all():
        raise InputError("features must be finite")
    return z, y, m


def contrastive_loss(
    z, y, m, tau: float = DEFAULT_TAU, variant: LossVariant = LossVariant.CROSS_MODAL
) -> float:
    """Supervised contrastive loss of features z with 0/1 labels y and modalities m.

    The cross-modal variant takes as positives only opposite-modality samples of
    the anchor's label; the vanilla one ignores modality. 0 when no anchor has a
    positive.
    """
    z, y, m = _check_batch(z, y, m, tau)
    return _contrastive(z, _positives(y, m, variant is LossVariant.CROSS_MODAL), tau).loss


def contrastive_grad(
    z, y, m, tau: float = DEFAULT_TAU, variant: LossVariant = LossVariant.CROSS_MODAL
) -> np.ndarray:
    """Gradient of ``contrastive_loss`` w.r.t. the pre-normalization z."""
    z, y, m = _check_batch(z, y, m, tau)
    return _contrastive(z, _positives(y, m, variant is LossVariant.CROSS_MODAL), tau, True).grad


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
