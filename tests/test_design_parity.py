"""Parity of the design helpers with reference implementations.

The references below are the former stand-alone implementations: a
Python pair loop for the pair-width rows, a per-mode one-sample
evaluator, the per-draw batch kernels, the unique sampler with a
separate fallback flag, and the waterfill that found its level by
bisection (waterfill now projects onto the simplex in closed form; the
two agree to WATERFILL_ATOL). objective_sample evaluates through the
package's batch_values on a one-row batch. The gap modes divide their
rows before the product and sum each row's draws for the gradient, and
the pair-width objective scores the labelings themselves
(widest pair = max - min score, worst-pair mass from the Gram identity),
so their checks against the references hold to the relative tolerance
PAIR_RTOL, taken of the sum of the terms' magnitudes where a sum of
mixed signs can cancel.
"""
import numpy as np
import pytest

from aced.complexity import make_core_tail_instance
from aced.design import (
    LAMBDA_FLOOR,
    Design,
    _disagreement_supports,
    _grow_working_set,
    _outer,
    _winners,
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


def assert_sums_close(got, want, magnitude):
    """got within PAIR_RTOL of want, relative to magnitude, the sum of the
    absolute terms behind want: the error bound of a sum whose terms may
    cancel."""
    assert np.all(np.abs(np.asarray(got) - want) <= PAIR_RTOL * magnitude)


def reference_gap_kernels(obj, lam, Z, rows=None) -> tuple:
    """The gap modes' former per-draw kernels: the (m, B) scores
    (V @ (Z / sqrt(lam))^T) / den, each draw's value, the mean and mean
    square of the per-draw gradients -1/2 W z lam^(-3/2) with W the rows
    of V / den the draws read (given, or the argmax row, the anchor's where
    the value is <= 0), and the magnitudes (|V| / den) @ |Z / sqrt(lam)|^T
    of the scores' terms and the mean |gradient| of the mean's."""
    Zs = Z / np.sqrt(lam)
    scores = (obj.V @ Zs.T) / obj.den[:, None]
    top = np.argmax(scores, axis=0)
    vals = np.maximum(scores[top, np.arange(Z.shape[0])], 0.0)
    if rows is None:
        rows = top
        rows[vals <= 0] = obj.anchor
    grads = -0.5 * (obj.V[rows] / obj.den[rows][:, None]) * Z * lam ** (-1.5)
    magnitude = (np.abs(obj.V) / obj.den[:, None]) @ np.abs(Zs).T
    gmag = np.abs(grads).mean(axis=0)
    return scores, vals, grads.mean(axis=0), (grads**2).mean(axis=0), magnitude, gmag


def reference_gap_gradient(obj, lam, Z, vals, scores) -> tuple:
    """The gap branch of batch_gradient before its winners came from the
    column max: (G, mean, mean square), with G scattered from the argmax
    rows of the scores, the anchor's where the value is <= 0, and Vd formed
    in the call."""
    inv32 = lam ** (-1.5)
    B = Z.shape[0]
    rows = np.argmax(scores, axis=0)
    rows[vals <= 0] = obj.anchor
    G = np.zeros(scores.shape)
    G[rows, np.arange(B)] = 1.0
    Vd = obj.V / obj.den[:, None]
    gmean = -0.5 * inv32 * (Vd * (G @ Z)).sum(axis=0) / B
    gsq = 0.25 * inv32**2 * (Vd**2 * (G @ Z**2)).sum(axis=0) / B
    return G, gmean, gsq


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


def _random_gap_objective(rng, m, n):
    """A random (H, eta, anchor), anchored at the plug-in minimizer."""
    H = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    eta = rng.random(n)
    errs = (eta.sum() + H @ (1 - 2 * eta)) / n
    return H, eta, int(np.argmin(errs))


def _gap_case(rng):
    return _random_gap_objective(rng, int(rng.integers(2, 8)), int(rng.integers(2, 10)))


def test_objective_sample_matches_reference_explicit_modes():
    # the gap modes return a value within PAIR_RTOL of the reference's and a
    # row that attains it; the pair-width mode a width within PAIR_RTOL of
    # the pair loop's and a pair (argmax h, argmin h) that attains it
    rng = np.random.default_rng(1)
    for _ in range(100):
        H, eta, anchor = _gap_case(rng)
        n = H.shape[1]
        lam = Design(rng.random(n)).lam
        pairs = reference_pair_rows(H)
        for obj in (gap_objective(H, eta, anchor, 0.25), gap_objective(H, eta, anchor, 0.1, mode="true_gap")):
            for zeta in (rng.standard_normal(n), np.zeros(n)):
                value, row = objective_sample(obj, lam, zeta)
                ref_value, _ = reference_objective_sample(obj, lam, zeta)
                scores, _, _, _, magnitude, _ = reference_gap_kernels(obj, lam, zeta[None, :])
                assert_sums_close(value, ref_value, magnitude.max())
                assert_sums_close(scores[row, 0], ref_value, magnitude.max())  # the anchor scores 0
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


def check_gap_kernels(obj, lam, Z):
    """batch_values and batch_gradient against the per-draw kernels. Values
    are read off the score matrix at its argmax rows, bitwise; the row each
    draw's gradient reads (that argmax, the anchor's where the value is
    <= 0) attains the draw's reference maximum within PAIR_RTOL; scores,
    values and the gradient moments at those rows are within PAIR_RTOL of
    the per-draw formula's."""
    vals, scores = batch_values(obj, lam, Z)
    gmean, gsq = batch_gradient(obj, lam, Z, vals, scores)
    rows = np.argmax(scores, axis=0)
    assert np.array_equal(vals, np.maximum(scores[rows, np.arange(Z.shape[0])], 0.0))
    rows[vals <= 0] = obj.anchor
    ref_scores, ref_vals, ref_mean, ref_sq, magnitude, gmag = reference_gap_kernels(obj, lam, Z, rows)
    top = magnitude.max(axis=0)
    assert_sums_close(ref_scores[rows, np.arange(Z.shape[0])], ref_vals, top)
    assert_sums_close(scores, ref_scores, magnitude)
    assert_sums_close(vals, ref_vals, top)
    assert_sums_close(gmean, ref_mean, gmag)
    assert_close(gsq, ref_sq)  # a sum of squares cannot cancel


def test_gap_kernels_match_per_draw_formula():
    rng = np.random.default_rng(12)
    for H in random_classes(np.random.default_rng(4), 60):
        m, n = H.shape
        eta = rng.random(n)
        anchor = int(np.argmin((eta.sum() + H @ (1 - 2 * eta)) / n))
        if m > 2:
            H[(anchor + 1) % m] = H[anchor]  # a row that ties the anchor on every draw
        lam = floor_simplex(rng.random(n))
        for obj in (gap_objective(H, eta, anchor, 0.25), gap_objective(H, eta, anchor, 0.1, mode="true_gap")):
            for Z in (rng.standard_normal((16, n)), rng.standard_normal((1, n)), np.zeros((8, n))):
                check_gap_kernels(obj, lam, Z)
    # an oracle working set, grown on the first draws of the batch
    for _ in range(10):
        H, eta, anchor = _random_gap_objective(rng, 6, 8)

        def maximizer(w, H=H):
            i = int(np.argmax(H @ w))
            return i, H[i]

        obj = oracle_gap_objective(8, H[anchor], eta, 0.25, maximizer, line_search_iters=4)
        lam, Z = floor_simplex(rng.random(8)), rng.standard_normal((32, 8))
        work = _grow_working_set(obj, lam, Z[:4], {obj.anchor_labeling.tobytes()})
        assert work.V.shape[0] > 1
        check_gap_kernels(work, lam, Z)
    # the benchmark's shapes (m, n, B): the sweep's core-tail round, and two larger
    core_tail = make_core_tail_instance(4).hypotheses.labelings
    check_gap_kernels(gap_objective(core_tail, np.zeros(20), 0, 0.5), floor_simplex(rng.random(20)),
                      rng.standard_normal((256, 20)))
    for m, n in ((16, 16), (64, 64)):
        obj = gap_objective(*_random_gap_objective(rng, m, n), 0.25)
        check_gap_kernels(obj, floor_simplex(rng.random(n)), rng.standard_normal((1024, n)))


def test_gap_winners_and_moments_equal_the_argmax_kernel_bitwise():
    # scores as ((V / den) / sqrt(lam)) @ Z^T, winner rows and gradient
    # moments are array_equal to the argmax kernel's, on batches with exact
    # ties between rows (duplicate labelings), draws every row scores <= 0
    # (zero draws, and a lone live row), and a non-anchor row that ties the
    # anchor at 0 on every draw
    rng = np.random.default_rng(34)
    seen = {"tie": 0, "zero": 0, "anchor_tie": 0}

    def check(obj, lam, Z):
        vals, scores = batch_values(obj, lam, Z)
        assert np.array_equal(scores, ((obj.V / obj.den[:, None]) / np.sqrt(lam)) @ Z.T)
        G, ref_mean, ref_sq = reference_gap_gradient(obj, lam, Z, vals, scores)
        assert np.array_equal(_winners(obj, vals, scores), G)
        gmean, gsq = batch_gradient(obj, lam, Z, vals, scores)
        assert np.array_equal(gmean, ref_mean) and np.array_equal(gsq, ref_sq)
        top = scores == vals
        seen["tie"] += int(np.count_nonzero((top & (vals > 0)).sum(axis=0) > 1))
        seen["zero"] += int(np.count_nonzero(vals <= 0))
        seen["anchor_tie"] += int(np.count_nonzero((top.sum(axis=0) > 1) & (vals <= 0)))

    for B in (2, 64, 1024):
        for _ in range(12):
            m, n = int(rng.integers(2, 12)), int(rng.integers(2, 20))
            H, eta, anchor = _random_gap_objective(rng, m, n)
            H[(anchor + 1) % m] = H[anchor]  # ties the anchor at 0
            if m > 3:
                H[(anchor + 2) % m] = H[(anchor + 3) % m]  # two rows that tie each other
            lam = floor_simplex(rng.random(n))
            Z = rng.standard_normal((B, n))
            Z[::7] = 0.0  # every row scores 0
            for obj in (gap_objective(H, eta, anchor, 0.25), gap_objective(H, eta, anchor, 0.1, mode="true_gap")):
                check(obj, lam, Z)
        # one live row: every draw it scores <= 0 is the anchor's
        check(gap_objective(np.array([[0, 0, 1], [1, 0, 1]], dtype=np.int8), np.array([0.9, 0.5, 0.5]), 1, 0.5),
              floor_simplex(rng.random(3)), rng.standard_normal((B, 3)))
        # an oracle working set, the anchor its first row
        H, eta, anchor = _random_gap_objective(rng, 6, 8)

        def maximizer(w, H=H):
            i = int(np.argmax(H @ w))
            return i, H[i]

        obj = oracle_gap_objective(8, H[anchor], eta, 0.25, maximizer, line_search_iters=4)
        lam, Z = floor_simplex(rng.random(8)), rng.standard_normal((B, 8))
        check(_grow_working_set(obj, lam, Z[:4], {obj.anchor_labeling.tobytes()}), lam, Z)
    assert min(seen.values()) > 0, seen


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
