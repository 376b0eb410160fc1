"""Reference loss terms with analytic gradients, pinned by finite
differences in the tests.

All losses reduce by the mean over every element (or sample, for the
softmax cross entropy). Per-sample weights, as carried by pseudo labels,
multiply the per-sample terms before the mean; they default to ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .ndtensor import Tensor, as_tensor, softmax


@dataclass
class LossResult:
    value: float
    gradient: np.ndarray

    def __post_init__(self):
        self.value = float(self.value)
        if not np.isfinite(self.value):
            raise ValueError(f"loss value is not finite: {self.value}")
        if not np.isfinite(self.gradient).all():
            raise ValueError("loss gradient contains non-finite entries")


def _sample_weights(weights, n_samples: int, target_ndim: int) -> np.ndarray:
    """Broadcast a per-sample weight vector over the trailing axes."""
    if weights is None:
        w = np.ones(n_samples)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n_samples,):
            raise ShapeError(
                f"sample weights must have shape ({n_samples},), got {tuple(w.shape)}"
            )
    return w.reshape((n_samples,) + (1,) * (target_ndim - 1))


def smooth_l1(pred, target, beta: float = 1.0, sample_weights=None) -> LossResult:
    """Smooth L1 (Huber-style): 0.5 d^2 / beta inside the beta band,
    |d| - 0.5 beta outside; mean reduced."""
    pred = as_tensor(pred, "pred")
    target = as_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if beta <= 0.0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    d = pred - target
    quad = np.abs(d) < beta
    per_elem = np.where(quad, 0.5 * d * d / beta, np.abs(d) - 0.5 * beta)
    grad = np.where(quad, d / beta, np.sign(d))
    w = _sample_weights(sample_weights, pred.shape[0], pred.ndim)
    value = float((per_elem * w).mean())
    return LossResult(value=value, gradient=grad * w / pred.size)


def binary_cross_entropy(pred, target, sample_weights=None) -> LossResult:
    """Mean of -(t log p + (1 - t) log(1 - p)) over probabilities.

    Predictions are clamped into [1e-7, 1 - 1e-7]; the gradient uses the
    clamped values, so it is zero-accurate only away from the clamp band.
    """
    pred = as_tensor(pred, "pred")
    target = as_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if np.any((target != 0.0) & (target != 1.0)):
        raise ValueError("binary cross entropy targets must be 0 or 1")
    eps = 1e-7
    p = np.clip(pred, eps, 1.0 - eps)
    per_elem = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    grad = (p - target) / (p * (1.0 - p))
    w = _sample_weights(sample_weights, pred.shape[0], pred.ndim)
    value = float((per_elem * w).mean())
    return LossResult(value=value, gradient=grad * w / pred.size)


def softmax_cross_entropy(logits, targets, sample_weights=None) -> LossResult:
    """Mean over samples of -log softmax(logits)[target].

    ``logits`` has shape (..., K); ``targets`` holds class indices with the
    leading shape. The gradient is (softmax - onehot) / n_samples.
    """
    logits = as_tensor(logits, "logits")
    k = logits.shape[-1]
    if k < 2:
        raise ShapeError(f"softmax cross entropy needs >= 2 classes, got {k}")
    lead_shape = logits.shape[:-1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != lead_shape:
        raise ShapeError(
            f"targets must have shape {lead_shape}, got {tuple(targets.shape)}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError(f"class index out of range [0, {k})")

    flat_logits = logits.reshape(-1, k)
    flat_targets = targets.reshape(-1)
    n = flat_logits.shape[0]
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_sample = log_z - shifted[np.arange(n), flat_targets]
    probs = softmax(flat_logits)
    onehot = np.zeros_like(flat_logits)
    onehot[np.arange(n), flat_targets] = 1.0
    w = _sample_weights(sample_weights, n, 1)
    value = float((per_sample * w).mean())
    grad = (probs - onehot) * w[:, None] / n
    return LossResult(value=value, gradient=grad.reshape(logits.shape))


def total_loss(rpn, box, mask: LossResult) -> float:
    """Unweighted sum of the five scalar terms: the (classification,
    regression) pairs of the proposal and box stages plus the mask term."""
    rpn_cls, rpn_reg = rpn
    box_cls, box_reg = box
    parts = (rpn_cls, rpn_reg, box_cls, box_reg, mask)
    return float(sum(p.value for p in parts))
