"""Parity of the design helpers with reference implementations.

The references below are the former stand-alone implementations: a
Python pair loop for the pair-width rows, a per-mode one-sample
evaluator, the unique sampler with a separate fallback flag, and the
waterfill that found its level by bisection (waterfill now projects
onto the simplex in closed form; the two agree to WATERFILL_ATOL).
objective_sample evaluates through the package's batch_values on a
one-row batch, so the gap modes and the sampler agree bitwise. The pair-width objective scores the
labelings themselves (widest pair = max - min score, worst-pair mass
from the Gram identity), so its checks against the pair loop hold to the
relative tolerance PAIR_RTOL.
"""
import numpy as np
import pytest

from aced.design import (
    LAMBDA_FLOOR,
    Design,
    _disagreement_supports,
    _grow_working_set,
    _outer,
    batch_gradient,
    batch_values,
    floor_simplex,
    gap_objective,
    line_search_max,
    oracle_gap_objective,
    pair_width_objective,
    sample_unique,
    waterfill,
)

PAIR_RTOL = 1e-10
WATERFILL_ATOL = 1e-14


def objective_sample(obj, design, zeta) -> tuple:
    """One-sample value of a stochastic objective and its maximizer, through
    batch_values on a one-row batch.

    Gap modes return (max_h f, argmax h) with the anchor worth exactly 0
    (h indexes the working set's rows, when oracle-backed); the pair-width
    mode returns (max - min score, (argmax h, argmin h)).
    """
    lam = design.lam if isinstance(design, Design) else np.asarray(design, dtype=float)
    vals, argmax = batch_values(obj, lam, np.asarray(zeta, dtype=float)[None, :])
    if obj.mode == "fixed_confidence":
        return float(vals[0]), (int(np.argmax(argmax[:, 0])), int(np.argmin(argmax[:, 0])))
    if vals[0] <= 0.0:
        return 0.0, obj.anchor
    return float(vals[0]), int(np.argmax(argmax[:, 0]))


def rho_terms(labelings, eta, epsilon, anchor) -> tuple:
    """(S, c): the rho objective's 0/1 disagreement supports and its
    coefficients c_h = 1/(n max(eps, gap_h))^2, exactly 0 at the anchor."""
    S, den = _disagreement_supports(labelings, eta, anchor, epsilon, floor_at_scale=True)
    return S, 1.0 / (S.shape[1] ** 2 * den**2)


def rho_value(terms, lam) -> float:
    """The rho objective max_h c_h S_h.(1/lam) at a design."""
    S, coeff = terms
    return float((coeff * (S @ (1.0 / lam))).max())


def psi_sample(terms, lam) -> tuple:
    """(value, (h, i)): the psi objective max over h and i in S_h of
    1/(n lam_i den_h) at a design, and where it is attained; terms are
    the (S, den) of _disagreement_supports."""
    S, den = terms
    ratio = np.where(S > 0, (1.0 / (S.shape[1] * lam))[None, :] / den[:, None], -np.inf)
    h, i = np.unravel_index(np.argmax(ratio), ratio.shape)
    return float(ratio[h, i]), (int(h), int(i))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=PAIR_RTOL, atol=0)


def reference_pair_rows(labelings):
    L = np.asarray(labelings, dtype=float)
    m, n = L.shape
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            d = L[i] - L[j]
            if np.any(d):
                pairs.append(d / n)
    if not pairs:
        pairs = [np.zeros(n)]
    return np.array(pairs)


def reference_objective_sample(obj, lam, zeta, pairs=None):
    """pairs: the reference pair rows, read in the pair-width mode."""
    if obj.mode in ("fixed_budget", "true_gap"):
        if obj.maximizer is not None:
            value, lab, _ = line_search_max(lam, zeta, obj.anchor_labeling, obj.eta,
                                            obj.scale, obj.maximizer, obj.line_search_iters)
            return value, lab
        scores = (obj.V @ (zeta / np.sqrt(lam))) / obj.den
        idx = int(np.argmax(scores))
        if scores[idx] <= 0.0:
            return 0.0, obj.anchor
        return float(scores[idx]), idx
    proj = pairs @ (zeta / np.sqrt(lam))
    idx = int(np.argmax(np.abs(proj)))
    return float(abs(proj[idx])), idx


def reference_pair_width(pairs, lam, Z, penalty):
    """Per-draw widths, gradient moments and (value, slope, penalty mass,
    per-pair masses) of the pair-width objective from explicit pair rows."""
    proj = pairs @ (Z / np.sqrt(lam)).T
    rows = np.argmax(np.abs(proj), axis=0)
    vals = np.abs(proj[rows, np.arange(Z.shape[0])])
    W = pairs[rows] * np.sign(proj[rows, np.arange(Z.shape[0])])[:, None]
    grads = -0.5 * W * Z * lam ** (-1.5)
    mass = (pairs**2) @ (1.0 / lam)
    mean = float(np.mean(vals))
    outer = (mean**2 + penalty * float(mass.max()), 2.0 * mean)
    return vals, grads.mean(axis=0), (grads**2).mean(axis=0), outer, mass


def reference_sample_unique(lam, N, already_queried, rng):
    n = lam.size
    seen = np.zeros(n, dtype=bool)
    seen[list(already_queried)] = True
    out = []
    fallback = False
    while len(out) < N:
        available = ~seen & (lam > 10.0 * LAMBDA_FLOOR)
        if not available.any():
            fallback = True
            rest = np.flatnonzero(~seen)
            if rest.size == 0:
                break
            take = min(N - len(out), rest.size)
            for i in rng.choice(rest, size=take, replace=False):
                out.append(int(i))
                seen[i] = True
            if len(out) < N:
                break
            continue
        for i in rng.choice(n, size=max(4 * (N - len(out)), 16), p=lam):
            if not seen[i]:
                out.append(int(i))
                seen[i] = True
                if len(out) == N:
                    break
    return out, fallback


def reference_waterfill(lam_k, prior_marginals, k: int) -> Design:
    """Round-k sampling distribution matching the cumulative target design.

    Minimizes over the simplex the worst residual deficit
    max_j max(0, k*lam_kj - sum_i p_ij - q_j): deficits are covered
    exactly when they fit in one unit of mass (surplus spread by flooding
    the low coordinates to a common level), otherwise the largest
    deficits are shaved to a common water level.
    """
    lam_k = lam_k.lam if isinstance(lam_k, Design) else np.asarray(lam_k, dtype=float)
    if k < 1:
        raise ValueError("round index must be >= 1")
    priors = list(prior_marginals)
    if k == 1 or not priors:
        return Design(lam_k)
    consumed = np.sum([p.lam if isinstance(p, Design) else np.asarray(p, float) for p in priors], axis=0)
    d = np.maximum(0.0, k * lam_k - consumed)
    total = float(d.sum())
    if total <= 1.0:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            w = 0.5 * (lo + hi)
            if np.maximum(d, w).sum() > 1.0:
                hi = w
            else:
                lo = w
        q = np.maximum(d, lo)
    else:
        lo, hi = 0.0, float(d.max())
        for _ in range(80):
            th = 0.5 * (lo + hi)
            if np.maximum(d - th, 0.0).sum() > 1.0:
                lo = th
            else:
                hi = th
        q = np.maximum(d - hi, 0.0)
    s = q.sum()
    q = q / s if s > 0 else np.full_like(d, 1.0 / d.size)
    return Design(q)


def random_classes(rng, count):
    """Random 0/1 classes, with the edge cases first: one row, all rows
    identical, and duplicate rows."""
    yield rng.integers(0, 2, size=(1, 5))
    yield np.tile(rng.integers(0, 2, size=(1, 6)), (4, 1))
    for _ in range(count):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        H = rng.integers(0, 2, size=(m, n))
        if m > 2:
            H[-1] = H[int(rng.integers(0, m - 1))]  # a duplicate row
        yield H


def test_pair_width_rows_match_pair_loop():
    # widths, gradient moments and the outer slope agree with the pair loop
    # to PAIR_RTOL; the outer value too, up to the Gram identity's
    # cancellation floor, PAIR_RTOL times the penalty times the largest row
    # norm sum_i V_hi^2 / lam_i; the penalty gradient is that of a pair
    # whose reference mass is the maximum to within PAIR_RTOL
    draws = np.random.default_rng(10)
    for H in random_classes(np.random.default_rng(0), 120):
        obj = pair_width_objective(H, 0.1)
        assert obj.V.shape == H.shape
        pairs = reference_pair_rows(H)
        lam = floor_simplex(draws.random(H.shape[1]))
        Z = draws.standard_normal((16, H.shape[1]))
        vals, scores = batch_values(obj, lam, Z)
        gmean, gsq = batch_gradient(obj, lam, Z, vals, scores)
        value, slope, gpen = _outer(obj, lam, vals)
        ref_vals, ref_mean, ref_sq, ref_outer, mass = reference_pair_width(pairs, lam, Z, obj.penalty)
        for got, want in ((vals, ref_vals), (gmean, ref_mean), (gsq, ref_sq), (slope, ref_outer[1])):
            assert_close(got, want)
        floor = obj.penalty * float(((obj.V**2) @ (1.0 / lam)).max())
        assert abs(value - ref_outer[0]) <= PAIR_RTOL * (ref_outer[0] + floor)
        worst = np.flatnonzero(mass >= mass.max() * (1.0 - PAIR_RTOL))
        assert any(np.allclose(gpen, -(pairs[p] ** 2) / lam**2, rtol=PAIR_RTOL, atol=0) for p in worst)


def _gap_case(rng):
    m, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
    H = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    eta = rng.random(n)
    errs = (eta.sum() + H @ (1 - 2 * eta)) / n
    return H, eta, int(np.argmin(errs))


def test_objective_sample_matches_reference_explicit_modes():
    # bitwise in the gap modes; the pair-width mode returns a width within
    # PAIR_RTOL of the pair loop's and a pair (argmax h, argmin h) that attains it
    rng = np.random.default_rng(1)
    for _ in range(100):
        H, eta, anchor = _gap_case(rng)
        n = H.shape[1]
        lam = Design(rng.random(n)).lam
        pairs = reference_pair_rows(H)
        for obj in (gap_objective(H, eta, anchor, 0.25), gap_objective(H, eta, anchor, 0.1, mode="true_gap")):
            for zeta in (rng.standard_normal(n), np.zeros(n)):
                assert objective_sample(obj, lam, zeta) == reference_objective_sample(obj, lam, zeta)
        obj = pair_width_objective(H, 0.1)
        for zeta in (rng.standard_normal(n), np.zeros(n)):
            value, (a, b) = objective_sample(obj, lam, zeta)
            ref_value, _ = reference_objective_sample(obj, lam, zeta, pairs)
            assert_close(value, ref_value)
            assert_close((H[a] - H[b]) / n @ (zeta / np.sqrt(lam)), ref_value)


def test_objective_sample_matches_reference_oracle_mode():
    # the working set grown by line-searching one draw scores that draw as the
    # line search does, to rounding (the ratio's two forms sum in another
    # order), and its best row is the labeling the line search returned
    rng = np.random.default_rng(2)
    for _ in range(40):
        H, eta, anchor = _gap_case(rng)
        n = H.shape[1]

        def maximizer(w, H=H):
            i = int(np.argmax(H @ w))
            return i, H[i]

        obj = oracle_gap_objective(n, H[anchor], eta, 0.25, maximizer, line_search_iters=6)
        design = Design(rng.random(n))
        zeta = rng.standard_normal(n)
        work = _grow_working_set(obj, design.lam, zeta[None, :], {obj.anchor_labeling.tobytes()})
        value, row = objective_sample(work, design, zeta)
        ref_value, ref_lab = reference_objective_sample(obj, design.lam, zeta)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        assert np.array_equal(np.rint(H[anchor] - n * work.V[row]), ref_lab)


def test_sample_unique_matches_reference():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(80):
        n = int(rng.integers(2, 14))
        lam = rng.random(n)
        lam[rng.random(n) < 0.4] = 0.0  # some indices carry no mass
        lam = floor_simplex(lam if lam.any() else np.ones(n))
        already = np.flatnonzero(rng.random(n) < 0.3)
        cases.append((lam, int(rng.integers(1, n + 3)), already, int(rng.integers(0, 1 << 30))))
    # a partial fallback: two massive indices, five wanted
    cases.append((floor_simplex(np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])), 5, [], 7))
    # an exhausted pool: more wanted than remain unqueried, then none left
    cases.append((floor_simplex(np.ones(4)), 6, [0, 2], 8))
    cases.append((floor_simplex(np.ones(3)), 2, [0, 1, 2], 9))
    flags = []
    for lam, N, already, seed in cases:
        got = sample_unique(Design(lam), N, already, rng=np.random.default_rng(seed))
        assert got == reference_sample_unique(Design(lam).lam, N, already, np.random.default_rng(seed))
        flags.append(got[1])
    assert flags[-3:] == [True, True, True] and not all(flags)


def _worst_deficit(lam_k, priors, q) -> float:
    d = np.maximum(0.0, (len(priors) + 1) * lam_k - np.sum(priors, axis=0))
    return float(np.maximum(d - q, 0.0).max())


def _check_waterfill(lam_k, priors):
    got = waterfill(lam_k, priors)
    want = reference_waterfill(lam_k, priors, len(priors) + 1)
    np.testing.assert_allclose(got.lam, want.lam, rtol=0, atol=WATERFILL_ATOL)
    if priors:
        assert _worst_deficit(lam_k, priors, got.lam) <= (
            _worst_deficit(lam_k, priors, want.lam) + WATERFILL_ATOL)
    return got


def test_waterfill_matches_bisection_reference():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n, rounds = int(rng.integers(1, 41)), int(rng.integers(2, 7))
        priors = []
        for _ in range(rounds):
            lam = rng.random(n) ** float(rng.choice([0.5, 1.0, 4.0]))
            lam[rng.random(n) < 0.3] = 0.0  # coordinates the round's design leaves at the floor
            lam_k = Design(lam if lam.any() else np.ones(n)).lam
            priors.append(_check_waterfill(lam_k, priors).lam)


def test_waterfill_edge_cases_match_bisection_reference():
    # the deficits of a design sampled twice before sum to 1 up to rounding:
    # 1 + 2.2e-16 at seed 2, 1 - 2.2e-16 (the bisection's flooding branch) at seed 0
    for seed in (2, 0):
        lam = floor_simplex(np.random.default_rng(seed).random(7))
        assert np.allclose(_check_waterfill(lam, [lam, lam]).lam, lam, atol=1e-12)
    one = np.array([1.0])
    assert _check_waterfill(one, [one]).lam.tolist() == [1.0]
    assert _check_waterfill(one, [one, one, one]).lam.tolist() == [1.0]
    # one coordinate holds all the deficit
    prior = floor_simplex(np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    q = _check_waterfill(floor_simplex(np.array([1.0, 0, 0, 0, 0])), [prior]).lam
    assert q[0] == q.max() and q[0] > 1 - 1e-8
