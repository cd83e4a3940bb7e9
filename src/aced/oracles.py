"""Weighted 0/1-classification oracles.

Exact weighted ERM by enumeration over explicit classes, the sign
reduction from weighted linear maximization to weighted ERM, a logistic
surrogate for linear classes, and the fixed-margin "flip" variant that
forces a prescribed prediction at one point.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import HypothesisClass, ImplicitClassError


@dataclass(frozen=True)
class WeightedSample:
    """One weighted training point: pool index or feature vector plus a 0/1 label."""

    weight: float
    example: object
    label: int

    def __post_init__(self):
        if not np.isfinite(self.weight) or self.weight < 0:
            raise ValueError("sample weight must be finite and nonnegative")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")


@dataclass(frozen=True, eq=False)
class LinearHypothesis:
    """Halfspace h(x) = 1{w.x + b >= 0}."""

    w: np.ndarray
    b: float
    converged: bool = True

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X @ self.w + self.b >= 0).astype(np.int8)


def erm_exact(hclass: HypothesisClass, samples) -> int:
    """Exact argmin over an explicit class of the weighted 0/1 loss.

    Ties break to the lowest hypothesis index; an empty sample list makes
    every loss zero so index 0 is returned.
    """
    if not hclass.explicit:
        raise ImplicitClassError("exact ERM enumerates an explicit class")
    if hclass.size < 1:
        raise ValueError("empty hypothesis class")
    losses = weighted_losses(hclass, samples)
    return int(np.argmin(losses))


def weighted_losses(hclass: HypothesisClass, samples) -> np.ndarray:
    """Weighted 0/1 loss of every hypothesis on pool-indexed samples."""
    losses = np.zeros(hclass.size)
    if not samples:
        return losses
    idx = np.array([s.example for s in samples], dtype=int)
    w = np.array([s.weight for s in samples], dtype=float)
    y = np.array([s.label for s in samples], dtype=np.int8)
    preds = hclass.labelings[:, idx]
    return ((preds != y) * w).sum(axis=1)


def weighted_max(hclass: HypothesisClass, w) -> tuple:
    """max_h sum_i w_i h(x_i) via one weighted-ERM call.

    Uses the sign reduction (|w_i|, x_i, 1{w_i >= 0}); the identity
    sum_i w_i h(x_i) = sum_{w_i >= 0} w_i - loss(h) recovers the value
    exactly. Returns (handle, value) where handle is a hypothesis index
    for explicit classes and a LinearHypothesis for oracle-backed ones.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    pos_sum = float(w[w >= 0].sum())
    if hclass.explicit:
        samples = [
            WeightedSample(weight=abs(float(wi)), example=i, label=int(wi >= 0))
            for i, wi in enumerate(w)
        ]
        h = erm_exact(hclass, samples)
        loss = float(weighted_losses(hclass, samples)[h])
        return h, pos_sum - loss
    hyp = hclass.oracle.erm_weights(np.abs(w), (w >= 0).astype(np.int8))
    preds = hyp.predict(hclass.oracle.features)
    value = float(w @ preds)
    return hyp, value


def _fit_logistic(X, w, y, reg, tol, max_iter, fixed_intercept=None, warn_on_cap=True):
    """Full-batch gradient descent with backtracking on the weighted logistic loss."""
    n, p = X.shape
    y_pm = 2.0 * np.asarray(y, dtype=float) - 1.0
    if fixed_intercept is None:
        X1 = np.hstack([X, np.ones((n, 1))])
        theta = np.zeros(p + 1)
    else:
        # intercept pinned: absorb it into the margin via a constant offset
        X1 = np.hstack([X, np.zeros((n, 1))])
        theta = np.zeros(p + 1)
        theta[-1] = 0.0
    offset = 0.0 if fixed_intercept is None else fixed_intercept

    def eval_at(th):
        z = X1 @ th + offset
        m = -y_pm * z
        loss = float(w @ np.logaddexp(0.0, m)) + reg * float(th[:-1] @ th[:-1])
        sig = 1.0 / (1.0 + np.exp(-np.clip(m, -500, 500)))
        grad = X1.T @ (-(w * y_pm) * sig)
        grad[:-1] += 2.0 * reg * th[:-1]
        return loss, grad

    loss, grad = eval_at(theta)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            cand = theta - step * grad
            cand_loss, cand_grad = eval_at(cand)
            if cand_loss <= loss - 0.5 * step * float(grad @ grad):
                theta, loss, grad = cand, cand_loss, cand_grad
                break
            step *= 0.5
        else:
            break
    else:
        if np.max(np.abs(grad)) <= tol:
            converged = True
    if not converged and warn_on_cap:
        warnings.warn("logistic solver hit the iteration cap; returning best iterate")
    return theta[:p], (theta[p] + offset if fixed_intercept is None else offset), converged


def erm_logistic(samples, reg: float = 1e-6, tol: float = 1e-6, max_iter: int = 5000,
                 warn_on_cap: bool = True) -> LinearHypothesis:
    """Approximate weighted ERM over halfspaces via the logistic surrogate.

    L2 penalty reg * ||w||^2 (intercept free). Convergence when the
    gradient infinity-norm drops below tol; otherwise the best iterate is
    returned with converged=False and a warning.
    """
    if not samples:
        raise ValueError("need at least one sample")
    X = np.array([np.asarray(s.example, dtype=float) for s in samples])
    if X.ndim != 2:
        raise ImplicitClassError("logistic ERM needs feature-vector samples")
    w = np.array([s.weight for s in samples], dtype=float)
    if not (w > 0).any():
        raise ValueError("need at least one positive-weight sample")
    y = np.array([s.label for s in samples])
    wv, b, ok = _fit_logistic(X, w, y, reg, tol, max_iter, warn_on_cap=warn_on_cap)
    return LinearHypothesis(w=wv, b=float(b), converged=ok)


def erm_flip_constrained(
    samples,
    x_k,
    desired_sign: int,
    margin: float = 1e-3,
    reg: float = 1e-6,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> LinearHypothesis:
    """Weighted logistic fit constrained to predict desired_sign at x_k.

    Features are translated by x_k and the intercept is pinned to the
    signed margin, so w.x_k + b = desired_sign * margin exactly. A fit
    that hits the iteration cap is reported through converged=False,
    without a warning.
    """
    if desired_sign not in (-1, 1):
        raise ValueError("desired_sign must be -1 or +1")
    if margin <= 0:
        raise ValueError("margin must be positive")
    x_k = np.asarray(x_k, dtype=float)
    pinned = desired_sign * margin
    if not samples:
        return LinearHypothesis(w=np.zeros(x_k.size), b=pinned, converged=True)
    X = np.array([np.asarray(s.example, dtype=float) - x_k for s in samples])
    w = np.array([s.weight for s in samples], dtype=float)
    y = np.array([s.label for s in samples])
    wv, b0, ok = _fit_logistic(X, w, y, reg, tol, max_iter, fixed_intercept=pinned,
                               warn_on_cap=False)
    # translate back: prediction on raw x uses w.(x - x_k) + pinned
    return LinearHypothesis(w=wv, b=float(pinned - wv @ x_k), converged=ok)


class LinearOracleClass:
    """Implicit hypothesis class of halfspaces over pool features.

    Backs HypothesisClass(oracle=...); weighted ERM is solved with the
    logistic surrogate, so maximization-style reductions are approximate.
    """

    def __init__(self, features, reg: float = 1e-6, tol: float = 1e-4, max_iter: int = 300):
        # looser defaults than erm_logistic: design solves call this oracle
        # thousands of times and only need surrogate-grade answers
        self.features = np.asarray(features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be an n x p matrix")
        self.reg = reg
        self.tol = tol
        self.max_iter = max_iter

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def erm_weights(self, weights, labels) -> LinearHypothesis:
        keep = np.asarray(weights, dtype=float) > 0
        if not keep.any():
            return LinearHypothesis(w=np.zeros(self.features.shape[1]), b=0.0)
        samples = [
            WeightedSample(float(w), self.features[i], int(y))
            for i, (w, y) in enumerate(zip(weights, labels))
            if w > 0
        ]
        return erm_logistic(samples, reg=self.reg, tol=self.tol, max_iter=self.max_iter,
                            warn_on_cap=False)
