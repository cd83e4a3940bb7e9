"""Weighted 0/1-classification oracles.

Weighted linear maximization (an argmax over an explicit class, or the
sign reduction to weighted ERM), a logistic surrogate for linear classes
fitted by damped Newton (IRLS), and the fixed-margin "flip" variant that
forces a prediction at one point. Where a full Newton step lowers the
loss by EXTRAPOLATION_GATE times what Newton's quadratic model predicts,
as it does along a separable sample's exponential tail, the fit keeps
doubling the step while the loss still falls. A LinearOracleClass keeps
its most recent weighted-ERM fits and answers a repeated question from
them. A weighted sample is given as parallel arrays: an n x p feature
matrix, the weights w and the 0/1 labels y. A logistic fit that stops at
its iteration cap says so through LinearHypothesis.converged, not a
warning.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import HypothesisClass

# the logistic fit of erm_logistic and erm_flip_constrained, and the flip's
# margin. The iteration cap counts Newton steps, far more than a fit takes.
# Over 60 iwal runs (C0 = 0.01, two passes, on 2-feature logistic pools of
# n = 16, 40 and 100 points, 20 seeds each), the flip fits, from zero, take
# a median of 5 steps (mean 4.9, p90 6, max 12); the ERM refits, each from
# the last ERM, a median of 3 (mean 3.0, p90 5, max 14), where from zero
# they take 5 (p90 7)
ERM_REG = 1e-6
ERM_TOL = 1e-6
ERM_MAX_ITER = 5000
FLIP_MARGIN = 1e-3
# a full Newton step whose loss fell by at least this multiple of the
# quadratic model's predicted decrease, -slope/2, is doubled while the loss
# still falls. The ratio is 1 where the loss is quadratic along the step.
# Far out on a separable sample's ridge a loss term is about c e^-s at a
# distance s along the step. There the Newton step is s = 1, and the model
# predicts a decrease of c/2 against an actual c (1 - e^-1): a ratio of
# 2 (1 - e^-1) ~ 1.26. The gate sits between, so a step near the optimum
# pays no doubling trial
EXTRAPOLATION_GATE = 1.2


def _weighted_arrays(w, y) -> tuple:
    """The sample weights and labels as arrays; a negative or non-finite
    weight, or a label other than 0 or 1, raises ValueError."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y)
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("sample weights must be finite and nonnegative")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return w, y


@dataclass(frozen=True, eq=False)
class LinearHypothesis:
    """Halfspace h(x) = 1{w.x + b >= 0}."""

    w: np.ndarray
    b: float
    converged: bool = True

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X @ self.w + self.b >= 0).astype(np.int8)


def weighted_max(hclass: HypothesisClass, w) -> tuple:
    """max_h sum_i w_i h(x_i), as (handle, value).

    Explicit class: the handle is the lowest-index argmax of labelings @ w.
    Oracle-backed: a LinearHypothesis from one weighted-ERM call on the sign
    reduction (|w_i|, x_i, 1{w_i >= 0}), whose loss is sum_{w_i >= 0} w_i - value.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if hclass.explicit:
        h = int(np.argmax(hclass.labelings @ w))
        return h, float(hclass.labelings[h] @ w)
    hyp = hclass.oracle.erm_weights(np.abs(w), (w >= 0).astype(np.int8))
    preds = hyp.predict(hclass.oracle.features)
    value = float(w @ preds)
    return hyp, value


def _fit_logistic(X, w, y, reg, tol, max_iter, *, theta0, fixed_intercept=None):
    """Damped Newton (IRLS) on the weighted logistic loss, from theta0, or
    from zero where theta0 is None.

    Minimizes sum_i w_i log(1 + exp(-y_i (v.x_i + b))) + reg ||v||^2 with b
    free and unpenalized, or pinned to fixed_intercept (then each step solves
    a p x p system, not (p+1) x (p+1)); steps backtrack to the Armijo
    condition from t = 1. Converged once the gradient infinity-norm is
    <= tol within max_iter Newton steps; otherwise the last (lowest-loss)
    iterate comes back with converged=False. Returns (v, b, converged).

    A full step (t = 1) whose loss fell by at least EXTRAPOLATION_GATE times
    the quadratic model's predicted decrease, -slope/2, is extrapolated: t
    doubles, at most 60 times, while the loss still falls and the Armijo
    condition holds at the doubled t. The gate is read only where its margin
    over the prediction lies above the rounding of a loss summed over n
    terms. Each trial loss is one w @ logaddexp(0, m); e^-|m|, for the
    gradient and the Hessian, is computed once per accepted iterate. The
    loss is nonnegative, so a backtracking trial whose Armijo bound is
    below zero is skipped without evaluating it.

    theta0 is (v, b), or v alone when the intercept is pinned. It moves only
    where Newton begins, not the problem solved or the convergence test, so
    a start that already passes the test comes back unchanged after 0 steps.
    A start far out in the loss's flat tails (a large-norm fit of a
    separable sample that a new point contradicts) has a vanishing Hessian,
    and Newton can stall there; a warm start that stops short of the test
    is dropped and the fit begins again from zero.
    """
    n, p = X.shape
    y_pm = 2.0 * np.asarray(y, dtype=float) - 1.0
    free = fixed_intercept is None
    # margins m = B theta + m0, and the loss terms are log(1 + e^m)
    B = -y_pm[:, None] * (np.hstack([X, np.ones((n, 1))]) if free else X)
    m0 = 0.0 if free else -y_pm * fixed_intercept
    pen = np.full(B.shape[1], 2.0 * reg)
    pen[p:] = 0.0  # a free intercept is not penalized
    rounding = n * np.finfo(float).eps  # a sum of n positive terms rounds within this share

    def loss_at(th):
        m = B @ th + m0
        return float(w @ np.logaddexp(0.0, m)) + 0.5 * float(pen @ (th * th)), m

    penalty_hessian = np.diag(pen)
    starts = [np.zeros(B.shape[1])]
    if theta0 is not None:
        starts.insert(0, np.array(theta0, dtype=float))
        if starts[0].shape != starts[1].shape:
            raise ValueError(f"theta0 must have {B.shape[1]} entries")
    for theta in starts:  # the start from zero runs only if a warm start stopped short
        loss, m = loss_at(theta)
        for it in range(max_iter + 1):
            e = np.exp(-np.abs(m))  # sigmoid(m) = [1 or e] / (1 + e), overflow-free
            grad = B.T @ (w * np.where(m >= 0, 1.0, e) / (1.0 + e)) + pen * theta
            converged = bool(np.abs(grad).max() <= tol)
            if converged or it == max_iter:
                break
            try:
                step = np.linalg.solve((B.T * (w * e / (1.0 + e) ** 2)) @ B + penalty_hessian, -grad)
            except np.linalg.LinAlgError:
                break
            slope = float(grad @ step)
            slack = 2e-15 * abs(loss)  # passes a decrease below the loss's rounding
            t = 1.0
            for _ in range(60):
                bound = loss + 1e-4 * t * slope + slack
                if bound >= 0.0:  # the loss is nonnegative, so below 0 no trial passes
                    cand = theta + t * step
                    cand_loss, cand_m = loss_at(cand)
                    if cand_loss <= bound:
                        break
                t *= 0.5
            else:
                break
            model = -0.5 * slope  # the quadratic model's decrease at t = 1
            if (t == 1.0 and loss - cand_loss >= EXTRAPOLATION_GATE * model
                    and (EXTRAPOLATION_GATE - 1.0) * model > rounding * loss):
                for _ in range(60):  # out along the tail while the loss still falls
                    far = theta + 2.0 * t * step
                    far_loss, far_m = loss_at(far)
                    if far_loss >= cand_loss or far_loss > loss + 1e-4 * 2.0 * t * slope + slack:
                        break
                    t, cand, cand_loss, cand_m = 2.0 * t, far, far_loss, far_m
            theta, loss, m = cand, cand_loss, cand_m
        if converged:
            break
    return theta[:p], (theta[p] if free else fixed_intercept), converged


def erm_logistic(X, w, y, theta0=None) -> LinearHypothesis:
    """Approximate weighted ERM over halfspaces via the logistic surrogate.

    L2 penalty ERM_REG * ||w||^2 (intercept free), fitted by damped Newton
    from theta0 = (normal, intercept), or from zero when it is None (iwal
    starts each refit from its last ERM). Convergence when the gradient
    infinity-norm drops below ERM_TOL within ERM_MAX_ITER Newton steps;
    otherwise the best iterate is returned with converged=False. Needs a
    positive weight somewhere.
    """
    w, y = _weighted_arrays(w, y)
    if not (w > 0).any():
        raise ValueError("need at least one positive-weight sample")
    wv, b, ok = _fit_logistic(np.asarray(X, dtype=float), w, y, ERM_REG, ERM_TOL, ERM_MAX_ITER,
                              theta0=theta0)
    return LinearHypothesis(w=wv, b=float(b), converged=ok)


def erm_flip_constrained(X, w, y, x_k, desired_sign: int) -> LinearHypothesis:
    """Weighted logistic fit constrained to predict desired_sign at x_k.

    Features are translated by x_k and the intercept is pinned to the
    signed margin, so w.x_k + b = desired_sign * FLIP_MARGIN exactly; an
    empty sample gives the zero normal. A capped fit has converged=False.
    """
    if desired_sign not in (-1, 1):
        raise ValueError("desired_sign must be -1 or +1")
    w, y = _weighted_arrays(w, y)
    x_k = np.asarray(x_k, dtype=float)
    pinned = desired_sign * FLIP_MARGIN
    if not w.size:
        return LinearHypothesis(w=np.zeros(x_k.size), b=pinned, converged=True)
    wv, b0, ok = _fit_logistic(np.asarray(X, dtype=float) - x_k, w, y, ERM_REG, ERM_TOL,
                               ERM_MAX_ITER, theta0=None, fixed_intercept=pinned)
    # translate back: prediction on raw x uses w.(x - x_k) + pinned
    return LinearHypothesis(w=wv, b=float(pinned - wv @ x_k), converged=ok)


# the logistic fit of LinearOracleClass. Looser tolerance than erm_logistic:
# design solves call this oracle thousands of times and only need
# surrogate-grade answers. The iteration cap counts Newton steps, far more
# than a fit takes: a median of 3 (p90 4, max 5) over the 321 fits of
# scripts/oracle_probe.py at its defaults, and of 4 (p90 5, max 9) over
# the 440 fits of the 16-point halfspace-twin test in tests/test_design.py
ORACLE_REG = 1e-6
ORACLE_TOL = 1e-4
ORACLE_MAX_ITER = 300
# the weighted-ERM fits each LinearOracleClass keeps, least recently used first
ERM_FITS_KEPT = 256


class LinearOracleClass:
    """Implicit hypothesis class of halfspaces over pool features.

    Backs HypothesisClass(oracle=...); weighted ERM is solved with the
    logistic surrogate, so maximization-style reductions are approximate.
    """

    def __init__(self, features):
        # a read-only copy: the fits kept below assume the features never change
        self.features = np.array(features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be an n x p matrix")
        self.features.flags.writeable = False
        self._fits = OrderedDict()

    def erm_weights(self, weights, labels) -> LinearHypothesis:
        """Logistic weighted ERM on the pool points with positive weight.

        A negative or non-finite weight, or a label other than 0 or 1, raises
        ValueError (_weighted_arrays); the labels are then read as int8. A
        fit is a pure function of the weight and label bytes, so the class
        keeps the ERM_FITS_KEPT most recently used fits under those bytes and
        answers a repeat (curve scoring's ERM on labels the run already
        fitted, say) with the same hypothesis, whose normal is read-only.
        """
        weights, labels = _weighted_arrays(weights, labels)
        labels = labels.astype(np.int8)
        keep = weights > 0
        if not keep.any():
            return LinearHypothesis(w=np.zeros(self.features.shape[1]), b=0.0)
        key = weights.tobytes() + labels.tobytes()
        hyp = self._fits.pop(key, None)
        if hyp is None:
            wv, b, ok = _fit_logistic(self.features[keep], weights[keep], labels[keep],
                                      ORACLE_REG, ORACLE_TOL, ORACLE_MAX_ITER, theta0=None)
            wv.flags.writeable = False
            hyp = LinearHypothesis(w=wv, b=float(b), converged=ok)
        self._fits[key] = hyp  # re-inserted: now the most recently used
        if len(self._fits) > ERM_FITS_KEPT:
            self._fits.popitem(last=False)
        return hyp
