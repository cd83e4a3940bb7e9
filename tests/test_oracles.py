import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aced import oracles
from aced.core import HypothesisClass
from aced.oracles import (
    ERM_FITS_KEPT,
    FLIP_MARGIN,
    LinearHypothesis,
    LinearOracleClass,
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
    v, b, ok = _fit_logistic(X, np.ones(2), np.array([0, 1]), 1e-4, 1e-6, 5000, theta0=None)
    assert ok
    assert LinearHypothesis(w=v, b=float(b)).predict(X).tolist() == [0, 1]


def test_logistic_weight_scale_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=12) > 0).astype(int)
    v1, b1, _ = _fit_logistic(X, np.full(12, 1.0), y, 1e-2, 1e-7, 5000, theta0=None)
    v2, b2, _ = _fit_logistic(X, np.full(12, 2.0), y, 2e-2, 1e-7, 5000, theta0=None)
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


def _prefix_start(X, w, y, reg, tol, pinned):
    # the fit on the sample without its last point, as a streaming learner
    # would start its next fit; pinned fits count v only
    v, b, _ = _fit_logistic(X[:-1], w[:-1], y[:-1], reg, tol, 25, theta0=None,
                            fixed_intercept=pinned)
    return v if pinned is not None else np.append(v, b)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("pinned", [None, 1e-3])
@pytest.mark.parametrize("separable", [True, False])
def test_newton_fit_converges_in_25_steps(separable, pinned, warm):
    # a warm start moves only where Newton begins: the fit passes the same
    # gradient test, and reaches the same loss, as one from zero
    from scipy.optimize import minimize

    reg, tol = 1e-6, 1e-6
    for seed in range(40):
        X, w, y = _weighted_pool(seed, separable)
        start = _prefix_start(X, w, y, reg, tol, pinned) if warm else None
        v, b, ok = _fit_logistic(X, w, y, reg, tol, 25, theta0=start, fixed_intercept=pinned)
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


def plain_newton_fit(X, w, y, reg, tol, max_iter, *, theta0, fixed_intercept=None):
    """_fit_logistic without its step extrapolation: Armijo backtracking from
    t = 1 only, each trial loss computed as max(m, 0) + log1p(e^-|m|). The
    reference for the extrapolated steps; returns (v, b, converged,
    newton_steps, loss_evaluations)."""
    n, p = X.shape
    y_pm = 2.0 * np.asarray(y, dtype=float) - 1.0
    free = fixed_intercept is None
    B = -y_pm[:, None] * (np.hstack([X, np.ones((n, 1))]) if free else X)
    m0 = 0.0 if free else -y_pm * fixed_intercept
    pen = np.full(B.shape[1], 2.0 * reg)
    pen[p:] = 0.0
    work = {"steps": 0, "evals": 0}

    def evaluate(th):
        work["evals"] += 1
        m = B @ th + m0
        e = np.exp(-np.abs(m))
        return float(w @ (np.maximum(m, 0.0) + np.log1p(e))) + 0.5 * float(pen @ (th * th)), m, e

    starts = [np.zeros(B.shape[1])]
    if theta0 is not None:
        starts.insert(0, np.array(theta0, dtype=float))
    for theta in starts:
        loss, m, e = evaluate(theta)
        for it in range(max_iter + 1):
            grad = B.T @ (w * np.where(m >= 0, 1.0, e) / (1.0 + e)) + pen * theta
            converged = bool(np.abs(grad).max() <= tol)
            if converged or it == max_iter:
                break
            work["steps"] += 1
            try:
                step = np.linalg.solve((B.T * (w * e / (1.0 + e) ** 2)) @ B + np.diag(pen), -grad)
            except np.linalg.LinAlgError:
                break
            slope = float(grad @ step)
            slack = 2e-15 * abs(loss)
            t = 1.0
            for _ in range(60):
                cand = theta + t * step
                cand_loss, cand_m, cand_e = evaluate(cand)
                if cand_loss <= loss + 1e-4 * t * slope + slack:
                    break
                t *= 0.5
            else:
                break
            theta, loss, m, e = cand, cand_loss, cand_m, cand_e
        if converged:
            break
    return theta[:p], (theta[p] if free else fixed_intercept), converged, work["steps"], work["evals"]


def counted_fit(*args, **kwargs):
    """_fit_logistic's (v, b, converged) with its Newton steps (linear solves)
    and loss evaluations (one np.logaddexp each)."""
    work = {"steps": 0, "evals": 0}
    solve, logaddexp = np.linalg.solve, np.logaddexp

    def counting_solve(*a):
        work["steps"] += 1
        return solve(*a)

    def counting_logaddexp(*a):
        work["evals"] += 1
        return logaddexp(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", counting_solve)
        mp.setattr(np, "logaddexp", counting_logaddexp)
        fit = _fit_logistic(*args, **kwargs)
    return fit + (work["steps"], work["evals"])


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("pinned", [None, 1e-3])
def test_extrapolated_steps_walk_a_separable_ridge_in_fewer_newton_steps(pinned, warm):
    # Newton's quadratic model underestimates the exponential tail that a
    # separable sample's loss falls along, so plain steps walk its flat ridge
    # a constant at a time. Warm fits start from the fit on the first half of
    # the sample, so that Newton has somewhere to go
    reg, tol = 1e-6, 1e-6
    steps, plain_steps = [], []
    for seed in range(40):
        X, w, y = _weighted_pool(seed, separable=True)
        start = None
        if warm:
            half = len(y) // 2
            v0, b0, _ = _fit_logistic(X[:half], w[:half], y[:half], reg, tol, 25, theta0=None,
                                      fixed_intercept=pinned)
            start = v0 if pinned is not None else np.append(v0, b0)
        v, b, ok, n_steps, _ = counted_fit(X, w, y, reg, tol, 25, theta0=start, fixed_intercept=pinned)
        pv, pb, plain_ok, n_plain, _ = plain_newton_fit(X, w, y, reg, tol, 25, theta0=start,
                                                        fixed_intercept=pinned)
        assert ok and plain_ok
        assert ((X @ v + b >= 0) == (X @ pv + pb >= 0)).all()  # b is the pinned value when pinned
        steps.append(n_steps)
        plain_steps.append(n_plain)
    assert np.median(steps) <= 2 / 3 * np.median(plain_steps)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("pinned", [None, 1e-3])
def test_extrapolation_costs_no_work_on_a_non_separable_sample(pinned, warm):
    # near the optimum the loss is quadratic along the step, so the gate
    # keeps each fit to the plain fit's Newton steps and loss evaluations
    reg, tol = 1e-6, 1e-6
    for seed in range(40):
        X, w, y = _weighted_pool(seed, separable=False)
        start = _prefix_start(X, w, y, reg, tol, pinned) if warm else None
        *_, ok, n_steps, n_evals = counted_fit(X, w, y, reg, tol, 25, theta0=start, fixed_intercept=pinned)
        *_, plain_ok, n_plain, plain_evals = plain_newton_fit(X, w, y, reg, tol, 25, theta0=start,
                                                              fixed_intercept=pinned)
        assert ok and plain_ok
        assert n_steps + n_evals <= n_plain + plain_evals


@pytest.mark.parametrize("pinned", [None, 1e-3])
@pytest.mark.parametrize("separable", [True, False])
def test_loss_never_rises_from_one_accepted_iterate_to_the_next(separable, pinned):
    # a fit capped at k Newton steps returns its k-th accepted iterate; the
    # loss may rise only by the rounding that the Armijo test lets pass
    reg, tol = 1e-6, 1e-6
    for seed in range(40):
        X, w, y = _weighted_pool(seed, separable)
        A = X if pinned is not None else np.hstack([X, np.ones((len(y), 1))])
        before, ok, k = np.inf, False, 0
        while not ok:
            v, b, ok = _fit_logistic(X, w, y, reg, tol, k, theta0=None, fixed_intercept=pinned)
            theta = v if pinned is not None else np.append(v, b)
            loss, _ = _logistic_objective(theta, A, w, y, reg, pinned)
            assert loss <= before + 4e-15 * abs(before)
            before, k = loss, k + 1
            assert k <= 25


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


@pytest.mark.parametrize("pinned", [None, 1e-3])
def test_fit_from_a_converged_start_takes_no_step(monkeypatch, pinned):
    X, w, y = _weighted_pool(3, separable=False)
    v, b, ok = _fit_logistic(X, w, y, 1e-6, 1e-6, 25, theta0=None, fixed_intercept=pinned)
    assert ok
    start = v if pinned is not None else np.append(v, b)
    steps = []
    solve = np.linalg.solve

    def counting_solve(*args):
        steps.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    v2, b2, ok2 = _fit_logistic(X, w, y, 1e-6, 1e-6, 25, theta0=start, fixed_intercept=pinned)
    assert ok2 and not steps
    assert v2.tobytes() == v.tobytes() and b2 == b
    with pytest.raises(ValueError):
        _fit_logistic(X, w, y, 1e-6, 1e-6, 25, theta0=np.append(start, 0.0), fixed_intercept=pinned)


def test_a_stalled_warm_start_begins_again_from_zero():
    # from (v, b) = (1000, 0) every margin is far out in the loss's flat
    # tails: the Hessian is singular and Newton cannot step from there
    X, y, w = np.array([[-1.0], [1.0], [2.0]]), np.array([0, 1, 0]), np.ones(3)
    v, b, ok = _fit_logistic(X, w, y, 1e-6, 1e-6, 25, theta0=None)
    v2, b2, ok2 = _fit_logistic(X, w, y, 1e-6, 1e-6, 25, theta0=np.array([1000.0, 0.0]))
    assert ok and ok2
    assert v2.tobytes() == v.tobytes() and b2 == b


def test_weighted_sample_validation():
    X = np.zeros((1, 1))
    with pytest.raises(ValueError):
        erm_logistic(X, [-1.0], [1])
    with pytest.raises(ValueError):
        erm_logistic(X, [1.0], [2])


@pytest.mark.parametrize("label", [2, -1, 0.5, np.nan])
def test_weighted_sample_rejects_labels_other_than_0_or_1(label):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        erm_logistic(np.zeros((2, 1)), [1.0, 1.0], np.array([1, label]))


@pytest.mark.parametrize("labels", [np.array([0, 1]), np.array([0.0, 1.0]), np.array([False, True])],
                         ids=["int", "float", "bool"])
def test_weighted_sample_accepts_0_1_in_any_dtype(labels):
    X = np.array([[-1.0], [1.0]])
    assert erm_logistic(X, [1.0, 1.0], labels).predict(X).tolist() == [0, 1]


def test_linear_hypothesis_predict_shape():
    h = LinearHypothesis(w=np.array([1.0, -1.0]), b=0.0)
    assert h.predict(np.array([2.0, 1.0])).tolist() == [1]


def _counted_fits(monkeypatch):
    fits, fit = [], oracles._fit_logistic

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(oracles, "_fit_logistic", counted)
    return fits


def test_erm_weights_answers_a_repeat_without_a_fit(monkeypatch):
    fits = _counted_fits(monkeypatch)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((9, 2))
    oracle = LinearOracleClass(X)
    w, y = rng.uniform(0.1, 1.0, size=9), rng.integers(0, 2, size=9)
    hyp = oracle.erm_weights(w, y)
    # the same weight and label bytes, the labels in any 0/1 dtype
    assert oracle.erm_weights(w.copy(), y.astype(bool)) is hyp
    assert oracle.erm_weights(w.tolist(), y.astype(np.int8)) is hyp
    assert len(fits) == 1 and not hyp.w.flags.writeable
    flipped, heavier = y ^ 1, w.copy()
    heavier[0] *= 2.0
    assert oracle.erm_weights(w, flipped) is not hyp
    assert oracle.erm_weights(heavier, y) is not hyp
    assert len(fits) == 3


def test_erm_weights_keeps_the_most_recently_used_fits(monkeypatch):
    X = np.random.default_rng(12).standard_normal((6, 2))
    oracle, y = LinearOracleClass(X), np.array([0, 1, 0, 1, 1, 0])

    def weights(j):
        w = np.ones(6)
        w[0] += j
        return w

    for j in range(ERM_FITS_KEPT):
        oracle.erm_weights(weights(j), y)
    oracle.erm_weights(weights(0), y)  # now the most recently used
    oracle.erm_weights(weights(ERM_FITS_KEPT), y)  # evicts weights(1)
    fits = _counted_fits(monkeypatch)
    oracle.erm_weights(weights(0), y)
    assert not fits
    oracle.erm_weights(weights(1), y)
    assert len(fits) == 1


def test_linear_oracle_class_keeps_a_read_only_copy_of_its_features():
    # the kept fits are keyed on weights and labels only, so the features
    # they were fitted on must not change under them
    X = np.random.default_rng(13).standard_normal((4, 2))
    oracle = LinearOracleClass(X)
    X[0, 0] += 1.0
    assert oracle.features[0, 0] == X[0, 0] - 1.0
    with pytest.raises(ValueError):
        oracle.features[0, 0] = 0.0


@pytest.mark.parametrize("bad", [0.5, 2])
def test_erm_weights_rejects_a_label_other_than_0_or_1(monkeypatch, bad):
    # read as int8 unchecked, 0.5 would be fitted as 0 and 2 as a third label
    fits = _counted_fits(monkeypatch)
    oracle = LinearOracleClass(np.random.default_rng(13).standard_normal((4, 2)))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        oracle.erm_weights(np.ones(4), np.array([0, 1, bad, 1]))
    assert not fits


X_FIT = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

BAD_INPUT = [
    (lambda: erm_logistic(X_FIT, np.zeros(3), [0, 1, 1]), "need at least one positive-weight sample"),
    (lambda: erm_flip_constrained(X_FIT, np.ones(3), [0, 1, 1], X_FIT[0], 0), "desired_sign must be -1 or +1"),
    (lambda: LinearOracleClass(np.arange(4.0)), "features must be an n x p matrix"),
]


@pytest.mark.parametrize("call, fragment", BAD_INPUT, ids=[case[1] for case in BAD_INPUT])
def test_bad_oracle_input_is_refused(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
