"""Bitwise parity of the design helpers with reference implementations.

The references below are the former stand-alone implementations: a
Python pair loop for the pair-width rows, a per-mode one-sample
evaluator, and the unique sampler with a separate fallback flag. The
package versions build the same arrays through triu_indices pairs and
batch_values on a one-row batch, so every comparison here is exact.
"""
import numpy as np

from aced.design import (
    LAMBDA_FLOOR,
    Design,
    floor_simplex,
    gap_objective,
    line_search_max,
    objective_sample,
    oracle_gap_objective,
    pair_width_objective,
    sample_unique,
)


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


def reference_objective_sample(obj, lam, zeta):
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
    proj = obj.P @ (zeta / np.sqrt(lam))
    idx = int(np.argmax(np.abs(proj)))
    return float(abs(proj[idx])), idx


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
    rng = np.random.default_rng(0)
    for H in random_classes(rng, 120):
        P = pair_width_objective(H, 0.1).P
        ref = reference_pair_rows(H)
        assert P.shape == ref.shape
        assert np.array_equal(P, ref)


def _gap_case(rng):
    m, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
    H = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    eta = rng.random(n)
    errs = (eta.sum() + H @ (1 - 2 * eta)) / n
    return H, eta, int(np.argmin(errs))


def test_objective_sample_matches_reference_explicit_modes():
    rng = np.random.default_rng(1)
    for _ in range(100):
        H, eta, anchor = _gap_case(rng)
        n = H.shape[1]
        lam = Design(rng.random(n)).lam
        objs = [gap_objective(H, eta, anchor, 0.25), gap_objective(H, eta, anchor, 0.1, mode="true_gap"),
                pair_width_objective(H, 0.1)]
        for obj in objs:
            for zeta in (rng.standard_normal(n), np.zeros(n)):
                assert objective_sample(obj, lam, zeta) == reference_objective_sample(obj, lam, zeta)


def test_objective_sample_matches_reference_oracle_mode():
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
        value, lab = objective_sample(obj, design, zeta)
        ref_value, ref_lab = reference_objective_sample(obj, design.lam, zeta)
        assert value == ref_value
        assert np.array_equal(lab, ref_lab) and lab.dtype == ref_lab.dtype


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
