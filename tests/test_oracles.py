import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aced.core import HypothesisClass
from aced.oracles import (
    FLIP_MARGIN,
    LinearHypothesis,
    _fit_logistic,
    erm_flip_constrained,
    erm_logistic,
    weighted_max,
)


def rand_class(rng, m, n):
    return HypothesisClass(rng.integers(0, 2, size=(m, n)).astype(np.int8))


@given(st.integers(0, 2**31 - 1))
def test_weighted_max_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 17)), int(rng.integers(2, 9))
    hclass = rand_class(rng, m, n)
    w = rng.normal(size=n)
    h, value = weighted_max(hclass, w)
    brute = hclass.labelings @ w
    assert value == pytest.approx(brute.max(), abs=1e-9)
    assert brute[h] == pytest.approx(brute.max(), abs=1e-9)


def test_weighted_max_edge_cases():
    hclass = HypothesisClass(np.array([[0, 0], [1, 1]]))
    h, value = weighted_max(hclass, np.zeros(2))
    assert value == 0.0 and h == 0
    h, value = weighted_max(hclass, np.array([0.0, 1.0]))
    assert value == 1.0
    with pytest.raises(ValueError):
        weighted_max(hclass, np.array([np.inf, 0.0]))


def test_logistic_separates_two_points():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    v, b, ok = _fit_logistic(X, np.ones(2), np.array([0, 1]), 1e-4, 1e-6, 5000)
    assert ok
    assert LinearHypothesis(w=v, b=float(b)).predict(X).tolist() == [0, 1]


def test_logistic_weight_scale_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=12) > 0).astype(int)
    v1, b1, _ = _fit_logistic(X, np.full(12, 1.0), y, 1e-2, 1e-7, 5000)
    v2, b2, _ = _fit_logistic(X, np.full(12, 2.0), y, 2e-2, 1e-7, 5000)
    assert np.allclose(v1, v2, atol=1e-4)
    assert b1 == pytest.approx(b2, abs=1e-4)


def test_logistic_near_exact_on_tiny_instance():
    # against exhaustive enumeration of linear dichotomies on 6 points
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 2))
    y = rng.integers(0, 2, size=6)
    w = rng.random(6) + 0.1
    fit = erm_logistic(X, w, y)
    fit_loss = float((w * (fit.predict(X) != y)).sum())
    best = np.inf
    # all dichotomies induced by pairs of points plus axis directions
    dirs = [X[i] - X[j] for i in range(6) for j in range(6) if i != j]
    dirs += [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    for d in dirs:
        proj = X @ d
        for cut in np.concatenate([proj, [proj.min() - 1]]):
            for sgn in (1, -1):
                pred = (sgn * (proj - cut) >= 0).astype(int)
                best = min(best, float((w * (pred != y)).sum()))
    assert fit_loss <= best + w.max()  # within one mistake's weight of exact ERM


def _logistic_objective(theta, A, w, y, reg, offset):
    # reference weighted logistic loss and gradient; theta is (v, b) when A
    # carries a ones column, else v with the intercept pinned to offset
    y_pm = 2.0 * y - 1.0
    m = -y_pm * (A @ theta + (0.0 if offset is None else offset))
    pen = np.full(theta.size, 2.0 * reg)
    if offset is None:
        pen[-1] = 0.0
    sig = np.exp(-np.logaddexp(0.0, -m))
    loss = float(w @ np.logaddexp(0.0, m)) + 0.5 * float(pen @ theta**2)
    return loss, A.T @ (-(w * y_pm) * sig) + pen * theta


def _weighted_pool(seed, separable):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(4, 30)), int(rng.integers(1, 4))
    X = rng.standard_normal((n, p))
    w = rng.uniform(0.1, 10.0, size=n)
    if separable:
        return X, w, (X @ rng.standard_normal(p) > 0).astype(int)
    # every point also appears with the other label, so no halfspace separates
    y = rng.integers(0, 2, size=n)
    w = np.concatenate([w, rng.uniform(0.1, 10.0, size=n)])
    return np.vstack([X, X]), w, np.concatenate([y, 1 - y])


@pytest.mark.parametrize("pinned", [None, 1e-3])
@pytest.mark.parametrize("separable", [True, False])
def test_newton_fit_converges_in_25_steps(separable, pinned):
    from scipy.optimize import minimize

    reg, tol = 1e-6, 1e-6
    for seed in range(40):
        X, w, y = _weighted_pool(seed, separable)
        v, b, ok = _fit_logistic(X, w, y, reg, tol, 25, fixed_intercept=pinned)
        assert ok
        A = X if pinned is not None else np.hstack([X, np.ones((len(y), 1))])
        theta = v if pinned is not None else np.append(v, b)
        loss, grad = _logistic_objective(theta, A, w, y, reg, pinned)
        assert np.max(np.abs(grad)) <= tol * (1 + 1e-6)
        if pinned is not None:
            assert b == pinned
        if not separable:
            ref = minimize(_logistic_objective, np.zeros(A.shape[1]), args=(A, w, y, reg, pinned),
                           jac=True, method="L-BFGS-B",
                           options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000})
            assert abs(loss - ref.fun) <= 1e-8 * abs(ref.fun)


def test_flip_constraint_is_exact():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    x_k = rng.normal(size=3)
    for sign in (-1, 1):
        h = erm_flip_constrained(X, np.ones(10), y, x_k, sign)
        val = float(h.w @ x_k + h.b)
        assert val == pytest.approx(sign * 1e-3, abs=1e-12)
        assert int(h.predict(x_k)[0]) == (1 if sign > 0 else 0)


def test_flip_empty_samples():
    h = erm_flip_constrained(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=int),
                             np.array([1.0, 2.0]), -1)
    assert np.all(h.w == 0) and h.b == pytest.approx(-1e-3)
    assert int(h.predict(np.array([1.0, 2.0]))[0]) == 0


def test_flip_fit_beats_random_constrained_candidates():
    # the returned hypothesis should minimize the weighted logistic loss
    # within the family pinned to w.x_k + b = margin
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, size=20)
    w = rng.random(20) + 0.5
    x_k = np.array([0.3, -0.2])
    fit = erm_flip_constrained(X, w, y, x_k, +1)

    def loss(wv, b):
        z = X @ wv + b
        return float((w * np.logaddexp(0.0, -(2.0 * y - 1.0) * z)).sum())

    fit_loss = loss(fit.w, fit.b)
    for _ in range(200):
        wv = rng.normal(size=2) * rng.choice([0.1, 1.0, 5.0])
        b = FLIP_MARGIN - float(wv @ x_k)
        assert fit_loss <= loss(wv, b) + 1e-6


def test_weighted_sample_validation():
    X = np.zeros((1, 1))
    with pytest.raises(ValueError):
        erm_logistic(X, [-1.0], [1])
    with pytest.raises(ValueError):
        erm_logistic(X, [1.0], [2])


def test_linear_hypothesis_predict_shape():
    h = LinearHypothesis(w=np.array([1.0, -1.0]), b=0.0)
    assert h.predict(np.array([2.0, 1.0])).tolist() == [1]
