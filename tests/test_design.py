import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aced.design
from aced.algorithms import DEFAULT_SOLVER, _max_labeling
from aced.complexity import make_core_tail_instance, make_thresholds
from aced.core import HypothesisClass, plugin_errors
from aced.design import (
    Design,
    DesignObjective,
    LAMBDA_FLOOR,
    _disagreement_supports,
    _gap_denominators,
    _grow_working_set,
    batch_gradient,
    batch_values,
    floor_simplex,
    gap_objective,
    line_search_max,
    oracle_gap_objective,
    pair_width_objective,
    psi_design,
    rho_design,
    sample_unique,
    smd_solve,
    waterfill,
)
from aced.oracles import LinearOracleClass
from halfspace_twin import explicit_twin, halfspace_labelings
from test_design_parity import (
    PAIR_RTOL,
    check_gap_kernels,
    objective_sample,
    psi_sample,
    reference_pair_rows,
    reference_pair_width,
    rho_terms,
    rho_value,
)


@given(st.lists(st.floats(0, 100), min_size=2, max_size=12))
def test_design_simplex_invariants(raw):
    d = Design(np.array(raw) if any(raw) else np.ones(len(raw)))
    assert d.lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.lam >= LAMBDA_FLOOR * 0.999)


def fixture_objective(mode="fixed_budget", scale=0.5):
    H = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int8)
    eta = np.array([0.1, 0.4, 0.8])
    errs = (eta.sum() + H @ (1 - 2 * eta)) / 3
    anchor = int(np.argmin(errs))
    return gap_objective(H, eta, anchor, scale, mode=mode), H, eta, anchor


def test_anchor_denominator_equals_scale():
    _, H, eta, anchor = fixture_objective()
    den = _gap_denominators(H, eta, anchor, 0.5, floor_at_scale=False)
    # the anchor slot is neutralized internally, but its raw gap is zero,
    # so the conceptual denominator is exactly the scale term
    dup = np.vstack([H, H[anchor]])
    den_dup = _gap_denominators(dup, eta, anchor, 0.5, floor_at_scale=False)
    assert den_dup[-1] == pytest.approx(0.5, abs=1e-15)
    assert np.all(den[np.arange(len(den)) != anchor] >= 0.5)


def test_objective_sample_zero_noise_attained_at_anchor():
    obj, _, _, anchor = fixture_objective()
    value, idx = objective_sample(obj, Design.uniform(3), np.zeros(3))
    assert value == 0.0 and idx == anchor


def test_objective_sample_matches_enumeration():
    obj, H, eta, anchor = fixture_objective()
    lam = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = rng.standard_normal(3)
        value, idx = objective_sample(obj, Design(lam), z)
        errs = (eta.sum() + H @ (1 - 2 * eta)) / 3
        best = 0.0
        for h in range(H.shape[0]):
            num = float((H[anchor] - H[h]).astype(float) @ (z / np.sqrt(Design(lam).lam))) / 3
            den = 0.5 + errs[h] - errs[anchor]
            best = max(best, num / den)
        assert value == pytest.approx(best, abs=1e-9)


def test_line_search_is_dinkelbachs_iteration():
    # from r = 0 each weight vector is d - r c, r the previous answer's ratio;
    # the ratios rise strictly up to the last call, which either does not
    # rise or is the n_max-th, and the search returns the highest
    rng = np.random.default_rng(8)
    longest = 0
    for _ in range(40):
        H = np.unique(rng.integers(0, 2, size=(10, 6)), axis=0).astype(np.int8)
        eta, lam, zeta = rng.random(6), floor_simplex(rng.random(6)), rng.standard_normal(6)
        anchor = H[int(np.argmin(H @ (1 - 2 * eta)))].astype(float)
        d, c = -zeta / (6 * np.sqrt(lam)), (1.0 - 2.0 * eta) / 6
        asked, ratios = [], [0.0]

        def maximizer(w):
            asked.append(w.copy())
            i = int(np.argmax(H @ w))
            diff = H[i] - anchor
            ratios.append(float(d @ diff) / aced.design._ratio_denominator(0.05 + float(c @ diff), 0.05))
            return i, H[i]

        value, lab, _ = line_search_max(lam, zeta, anchor, eta, 0.05, maximizer, n_max=12)
        assert all(np.array_equal(w, d - c * r) for w, r in zip(asked, ratios))
        assert all(a < b for a, b in zip(ratios[:-2], ratios[1:-1]))
        assert ratios[-1] <= ratios[-2] or len(asked) == 12
        assert value == max(ratios)
        longest = max(longest, len(asked))
    assert longest >= 3


def test_line_search_never_below_collected_max():
    rng = np.random.default_rng(12)
    H = np.unique(rng.integers(0, 2, size=(8, 4)), axis=0).astype(np.int8)
    eta = rng.random(4)
    errs = (eta.sum() + H @ (1 - 2 * eta)) / 4
    anchor = int(np.argmin(errs))
    lam = floor_simplex(rng.random(4))
    collected = []

    def maximizer(w):
        vals = H @ w
        i = int(np.argmax(vals))
        collected.append(i)
        return i, H[i]

    zeta = rng.standard_normal(4)
    value, lab, _ = line_search_max(lam, zeta, H[anchor], eta, 0.5, maximizer)
    for i in set(collected):
        num = float((H[anchor] - H[i]).astype(float) @ (zeta / np.sqrt(lam))) / 4
        den = 0.5 + errs[i] - errs[anchor]
        f = 0.0 if i == anchor else num / den
        assert value >= f - 1e-12


def test_line_search_matches_enumeration_on_frozen_seeds():
    rng = np.random.default_rng(5)
    H = np.unique(rng.integers(0, 2, size=(6, 5)), axis=0).astype(np.int8)
    eta = rng.random(5)
    errs = (eta.sum() + H @ (1 - 2 * eta)) / 5
    anchor = int(np.argmin(errs))
    obj = gap_objective(H, eta, anchor, 0.5)
    lam = np.full(5, 0.2)

    def maximizer(w):
        vals = H @ w
        i = int(np.argmax(vals))
        return i, H[i]

    # with an exact maximizer and positive denominators, Dinkelbach's
    # iteration ends at the ratio maximum of a finite class
    rng2 = np.random.default_rng(21)
    for _ in range(40):
        zeta = rng2.standard_normal(5)
        v_enum, _ = objective_sample(obj, Design(lam), zeta)
        v_ls, _, _ = line_search_max(lam, zeta, H[anchor], eta, 0.5, maximizer)
        assert v_ls == pytest.approx(v_enum, rel=1e-12, abs=1e-15)


def test_oracle_gradient_differentiates_the_reported_value():
    # the flipping labeling's denominator 0.5 + (-0.5)(2 * 0.99995 - 1) = 5e-5
    # is positive but below 1e-3 * scale: it must not be clamped. The line
    # search's answer becomes a row of the working set, whose values and
    # gradient the solve reads
    H = np.array([[0, 0], [1, 0]], dtype=np.int8)

    def maximizer(w):
        i = int(np.argmax(H @ w))
        return i, H[i]

    obj = oracle_gap_objective(2, H[0], np.array([0.99995, 0.5]), 0.5, maximizer)
    lam, Z = np.full(2, 0.5), np.array([[-1.0, 0.0]])
    work = _grow_working_set(obj, lam, Z, {obj.anchor_labeling.tobytes()})
    assert work.V.shape == (2, 2) and work.den[1] == pytest.approx(5e-5, rel=1e-9)

    def value(lam0):
        return batch_values(work, np.array([lam0, 0.5]), Z)[0][0]

    vals, scores = batch_values(work, lam, Z)
    assert vals[0] == pytest.approx(math.sqrt(0.5) / 5e-5, rel=1e-6)
    assert vals[0] == pytest.approx(line_search_max(lam, Z[0], H[0], obj.eta, 0.5, maximizer)[0], rel=1e-12)
    gmean, _ = batch_gradient(work, lam, Z, vals, scores)
    h = 1e-7
    assert gmean[0] == pytest.approx((value(0.5 + h) - value(0.5 - h)) / (2 * h), rel=1e-5)
    assert gmean[0] == pytest.approx(-vals[0], rel=1e-6)  # the value is c / sqrt(lam0)


def test_smd_duplication_invariance():
    H = np.array([[0, 0], [1, 0]], dtype=np.int8)
    eta = np.array([0.2, 0.6])
    obj1 = gap_objective(H, eta, 0, 0.5)
    rep1 = smd_solve(obj1, tol=1e-3, rel_tol=0.05, b0=32, seed=3, max_iters=200)
    Hdup = np.array([[0, 0], [1, 0], [1, 0]], dtype=np.int8)
    obj2 = gap_objective(Hdup, eta, 0, 0.5)
    rep2 = smd_solve(obj2, tol=1e-3, rel_tol=0.05, b0=32, seed=3, max_iters=200)
    assert np.allclose(rep1.design.lam, rep2.design.lam, atol=1e-12)


def test_smd_convexity_spot_check():
    obj, _, _, _ = fixture_objective()
    rng = np.random.default_rng(9)
    Z = rng.standard_normal((4000, 3))

    def mc(lam):
        scores = (obj.V @ (Z / np.sqrt(lam)).T) / obj.den[:, None]
        vals = np.maximum(scores.max(axis=0), 0.0)
        return vals

    for _ in range(5):
        l1 = floor_simplex(rng.random(3))
        l2 = floor_simplex(rng.random(3))
        mid = mc(floor_simplex((l1 + l2) / 2))
        ends = 0.5 * (mc(l1) + mc(l2))
        se = float(np.std(mid - ends, ddof=1) / math.sqrt(len(mid)))
        assert mid.mean() <= ends.mean() + 3 * se


def test_smd_certificate_upper_bounds_suboptimality_rho():
    H = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int8)
    eta = np.array([0.0, 0.0, 0.0])
    terms = rho_terms(H, eta, 0.3, 0)
    rep = rho_design(H, eta, 0.3, 0)
    # exhaustive simplex grid as the truth
    best = np.inf
    step = 0.01
    for a in np.arange(step, 1, step):
        for b in np.arange(step, 1 - a + step / 2, step):
            lam = np.array([a, b, max(1 - a - b, step / 10)])
            v = rho_value(terms, Design(lam).lam)
            best = min(best, v)
    assert rep.value_estimate - best <= rep.certificate + 1e-6


def stt_iterations(labelings, eta, epsilon, anchor) -> int:
    """Iterations the plain Silvey-Titterington-Torsney update
    mu_h <- mu_h vals_h, renormalized, takes to meet rho_design's stop rule:
    the reference for its over-relaxed step."""
    S, coeff = rho_terms(labelings, eta, epsilon, anchor)
    mu = np.full(coeff.size, 1.0 / coeff.size)
    best, bound = np.inf, 0.0
    for it in range(1, aced.design.RHO_MAX_ITERS + 1):
        root = np.sqrt((mu * coeff) @ S)
        bound = max(bound, float(root.sum()) ** 2)
        vals = coeff * (S @ (1.0 / floor_simplex(root)))
        best = min(best, float(vals.max()))
        if best - bound <= aced.design.RHO_REL_GAP * best:
            break
        mu = mu * vals / (mu * vals).sum()
    return it


@pytest.mark.parametrize("n, k_star, eps, epsilon, most", [
    (16, 7, 0.5, 0.1, 60),  # 39 iterations; the plain step takes 267
    (16, 7, 0.5, 0.05, 60),  # 36; plain 271
    (32, 13, 0.4, 0.05, 120),  # 73; plain 547
])
def test_rho_design_certifies_thresholds_within_its_iteration_bound(n, k_star, eps, epsilon, most):
    inst = make_thresholds(n, k_star, eps)
    H, eta = inst.hypotheses.labelings, inst.labels.eta
    rep = rho_design(H, eta, epsilon, int(np.argmin(plugin_errors(H, eta))))
    assert rep.stop_reason == "certificate" and rep.iterations <= most


def test_rho_design_never_takes_more_iterations_than_the_plain_step():
    rng = np.random.default_rng(2105)
    for _ in range(40):
        m, n = int(rng.integers(3, 60)), int(rng.integers(4, 40))
        H = rng.integers(0, 2, size=(m, n))
        eta = rng.random(n)
        epsilon = float(rng.choice([0.01, 0.05, 0.2]))
        anchor = int(np.argmin(plugin_errors(H, eta)))
        rep = rho_design(H, eta, epsilon, anchor)
        assert rep.stop_reason == "certificate"
        assert rep.iterations <= stt_iterations(H, eta, epsilon, anchor)


def test_pair_width_value_positive_and_penalized():
    H = np.array([[0, 0], [1, 0], [1, 1]], dtype=np.int8)
    obj = pair_width_objective(H, 0.1)
    rep = smd_solve(obj, tol=1e-3, rel_tol=0.1, b0=64, seed=0, max_iters=150)
    assert rep.value_estimate > 0
    assert rep.design.lam.sum() == pytest.approx(1.0, abs=1e-9)


def test_psi_objective_masks_anchor():
    H = np.array([[0, 0], [1, 0]], dtype=np.int8)
    terms = _disagreement_supports(H, np.zeros(2), 0, 0.5, floor_at_scale=False)
    value, (h, i) = psi_sample(terms, Design.uniform(2).lam)
    assert h == 1 and i == 0
    assert value == pytest.approx((1 / (2 * 0.5)) / (0.5 + 0.5))


def test_waterfill_constant_design_is_fixed_point():
    lam = np.array([0.5, 0.3, 0.2])
    priors = []
    for k in range(1, 5):
        p = waterfill(lam, priors)
        assert np.allclose(p.lam, lam, atol=1e-8)
        priors.append(p.lam)


def test_waterfill_round_one_identity():
    lam = np.array([0.9, 0.1])
    assert np.allclose(waterfill(lam, []).lam, lam)


def test_waterfill_matches_grid_minimax():
    rng = np.random.default_rng(2)
    lams = [floor_simplex(rng.random(3)) for _ in range(3)]
    priors = []
    for k, lam in enumerate(lams, start=1):
        q = waterfill(lam, priors)
        if k == 3:
            consumed = np.sum(priors, axis=0)
            d = np.maximum(0.0, 3 * lam - consumed)

            def objective(qv):
                return float(np.maximum(d - qv, 0.0).max())

            best = np.inf
            step = 0.002
            for a in np.arange(0, 1 + step / 2, step):
                for b in np.arange(0, 1 - a + step / 2, step):
                    best = min(best, objective(np.array([a, b, 1 - a - b])))
            assert objective(q.lam) <= best + 1e-6
        priors.append(q.lam)


def test_sample_unique_basic_and_fallback():
    out, fb = sample_unique(np.full(8, 1 / 8), 5, set(), rng=np.random.default_rng(0))
    assert len(out) == len(set(out)) == 5 and not fb
    out, fb = sample_unique(np.array([1.0, 0.0, 0.0]), 2, {0}, rng=np.random.default_rng(1))
    assert fb and set(out) <= {1, 2} and len(out) == 2


SAMPLER_DESIGNS = {
    "uniform": np.full(16, 1.0 / 16),
    "floored": np.array([0.0, 0.7, 0.0, 0.3, 0.0]),  # three coordinates at LAMBDA_FLOOR
    "skewed": np.random.default_rng(8).random(40) ** 4,
    "one point": np.array([1.0]),
}


@pytest.mark.parametrize("size", [0, 1, 10_000])
@pytest.mark.parametrize("name", SAMPLER_DESIGNS)
def test_design_sample_is_generator_choice_draw_for_draw(name, size):
    # the same indices from the same uniforms: sample_unique keeps drawing
    # from one generator, so the state left behind must match too
    design = Design(SAMPLER_DESIGNS[name])
    ours, theirs = np.random.default_rng([5, size]), np.random.default_rng([5, size])
    idx = design.sample(size, ours)
    np.testing.assert_array_equal(idx, theirs.choice(design.lam.size, size=size, p=design.lam))
    assert ours.random() == theirs.random()
    again = np.random.default_rng([5, size])  # a second draw reads the kept CDF
    np.testing.assert_array_equal(design.sample(size, again), idx)


def test_design_lam_is_read_only():
    design = Design(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="read-only"):
        design.lam[0] = 0.9
    with pytest.raises(ValueError, match="read-only"):
        design.lam /= 2.0


def test_sample_unique_first_draw_distribution():
    rng = np.random.default_rng(0)
    p = floor_simplex(rng.random(10))
    # the first draw with an empty history follows p itself
    sub = 20_000
    picks = [sample_unique(p, 1, set(), rng=np.random.default_rng(1000 + j))[0][0] for j in range(sub)]
    counts = np.bincount(picks, minlength=10) / sub
    tv = 0.5 * float(np.abs(counts - p).sum())
    assert tv <= 0.02


def test_values_step_matches_the_gradient_path():
    rng = np.random.default_rng(21)
    H = np.array([[0, 0, 0, 1], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1],
                  [1, 0, 0, 1], [0, 1, 1, 1]], dtype=np.int8)  # rows 4, 5 tie rows 1, 3
    eta = np.array([0.1, 0.4, 0.8, 0.3])
    objs = [gap_objective(H, eta, 0, 0.3, mode="fixed_budget"),
            gap_objective(H, eta, 0, 0.05, mode="true_gap"),
            pair_width_objective(H, 0.1)]
    # anchor [0, 0] against [1, 0]: the live score is a negative multiple
    # of z_0, so a batch of nonnegative draws scores <= 0 everywhere
    two = gap_objective(np.array([[0, 0], [1, 0]], dtype=np.int8), np.array([0.2, 0.6]), 0, 0.5)
    cases = [(two, floor_simplex(rng.random(2)), np.abs(rng.standard_normal((64, 2))))]
    # [0, 1, 0, 0] against the anchor [1, 0, 0, 0] at equal error scores 0 on
    # draws with z_0 = z_1, tying the anchor from an earlier row; the gradient
    # must use the anchor's. The scaled row (V / den) / sqrt(lam) = [1, -1, 0, 0]
    # is exact, so the tie is exact in any order of summation
    tie = gap_objective(np.array([[0, 1, 0, 0], [1, 0, 0, 0]], dtype=np.int8),
                        np.array([0.5, 0.5, 0.2, 0.7]), 1, 0.5)
    equal = np.repeat(rng.standard_normal((16, 1)), 2, axis=1)
    cases.append((tie, np.full(4, 0.25), np.hstack([equal, rng.standard_normal((16, 2))])))
    # the same tie at n = 2 is rounding-level: the scaled row +-1/(den sqrt(2))
    # rounds, and a fused multiply-add can leave a score of +-1e-17, which
    # either row attains
    swap = gap_objective(np.array([[0, 1], [1, 0]], dtype=np.int8), np.array([0.9, 0.1]), 1, 0.5)
    cases.append((swap, np.array([0.5, 0.5]), equal))
    for obj in objs:
        for _ in range(10):
            cases.append((obj, floor_simplex(rng.random(4)), rng.standard_normal((64, 4))))
        cases.append((obj, floor_simplex(rng.random(4)), np.zeros((8, 4))))  # every row ties
    pairs = reference_pair_rows(H)
    for obj, lam, Z in cases:
        vals, scores = batch_values(obj, lam, Z)
        gmean, gsq = batch_gradient(obj, lam, Z, vals, scores)
        if obj.mode == "fixed_confidence":
            # bitwise the per-draw path, and max - min score against the pair loop
            W = obj.V[np.argmax(scores, axis=0)] - obj.V[np.argmin(scores, axis=0)]
            grads = -0.5 * W * Z * lam ** (-1.5)
            assert np.array_equal(scores, (obj.V @ (Z / np.sqrt(lam)).T) / obj.den[:, None])
            assert np.array_equal(gmean, grads.mean(axis=0))
            assert np.array_equal(gsq, (grads**2).mean(axis=0))
            for a, b in zip((vals, gmean, gsq), reference_pair_width(pairs, lam, Z, obj.penalty)):
                np.testing.assert_allclose(a, b, rtol=PAIR_RTOL, atol=0)
        else:
            check_gap_kernels(obj, lam, Z)
    obj, lam, Z = cases[0]
    assert not batch_values(obj, lam, Z)[0].any()


def test_stop_reason_names_the_rule_that_ended_the_solve(monkeypatch):
    H = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int8)
    eta = np.array([0.1, 0.2, 0.3])
    psi = psi_design(H, eta, 0, 0.3)
    rho = rho_design(H, eta, 0.3, 0)
    capped = smd_solve(gap_objective(H, eta, 0, 0.5), tol=1e-3, max_iters=3)
    assert (psi.stop_reason, rho.stop_reason, capped.stop_reason) == ("exact", "certificate", "cap")
    assert psi.converged and rho.converged and not capped.converged
    monkeypatch.setattr(aced.design, "RHO_MAX_ITERS", 1)
    rho = rho_design(H, eta, 0.3, 0)
    assert rho.stop_reason == "cap" and not rho.converged


def test_smd_solve_rejects_a_deterministic_mode():
    # psi and rho have their own solvers; the mirror-descent solver serves
    # only the stochastic modes
    for mode in ("psi", "rho"):
        with pytest.raises(ValueError, match=f"unknown objective mode '{mode}'"):
            smd_solve(DesignObjective(mode=mode, n=3), tol=1e-3)


def test_core_tail_round_one_gap_solve_stops_on_a_plateau():
    # the round-1 fixed-budget objective: prior eta-hat 0, the empty
    # labeling as anchor, scale 1; uniform is near-optimal here
    H = make_core_tail_instance(4).hypotheses.labelings
    n = H.shape[1]
    obj = gap_objective(H, np.zeros(n), 0, 1.0)
    for seed in range(5):
        rep = smd_solve(obj, seed=seed, **DEFAULT_SOLVER)
        assert rep.stop_reason == "plateau" and rep.iterations <= 50
        # the score is on the solve's evaluation draws, where the uniform
        # start is always a candidate
        Z = np.random.default_rng([seed, 1 << 30]).standard_normal((512, n))
        assert rep.value_estimate == pytest.approx(np.mean(batch_values(obj, rep.design.lam, Z)[0]), rel=1e-12)
        assert rep.value_estimate <= np.mean(batch_values(obj, np.full(n, 1 / n), Z)[0])


# (iterations, stop_reason, batch_trajectory as (batch, iterations) runs,
# value_estimate) of 20 seeded fixed-budget solves on the sweep_core_tail
# benchmark's pool, pinned when the gap kernels summed per draw
CORE_TAIL_SOLVES = [
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 2), (256, 15)], 0.4387791125937903),
    (30, 'plateau', [(16, 1), (32, 2), (64, 4), (128, 1), (256, 22)], 0.6937511930492197),
    (20, 'plateau', [(16, 1), (32, 1), (64, 3), (128, 4), (256, 11)], 1.2100235818488008),
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 1), (256, 16)], 0.39774762130354524),
    (20, 'plateau', [(16, 1), (32, 2), (64, 1), (128, 1), (256, 15)], 0.7859375578642639),
    (20, 'plateau', [(16, 1), (32, 5), (64, 3), (128, 1), (256, 10)], 1.1864029314323004),
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 3), (256, 14)], 0.4030788027882578),
    (20, 'plateau', [(16, 1), (32, 3), (64, 14), (128, 2)], 0.7049764774294602),
    (20, 'plateau', [(16, 1), (32, 2), (64, 1), (128, 5), (256, 11)], 1.1473680574537233),
    (20, 'plateau', [(16, 1), (32, 1), (64, 4), (128, 1), (256, 13)], 0.37557311729383386),
    (20, 'plateau', [(16, 1), (32, 1), (64, 4), (128, 4), (256, 10)], 0.8033807588745457),
    (20, 'plateau', [(16, 1), (32, 1), (64, 4), (128, 2), (256, 12)], 1.0512681335806344),
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 1), (256, 16)], 0.4160230908559),
    (30, 'plateau', [(16, 1), (32, 1), (64, 6), (128, 3), (256, 19)], 0.8436841381773299),
    (20, 'plateau', [(16, 1), (32, 2), (64, 1), (128, 3), (256, 13)], 1.0966266714282846),
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 2), (256, 15)], 0.436333957679119),
    (20, 'plateau', [(16, 2), (32, 8), (64, 2), (128, 1), (256, 7)], 0.9373357666626307),
    (20, 'plateau', [(16, 1), (32, 4), (64, 2), (128, 13)], 1.489175827732907),
    (20, 'plateau', [(16, 1), (32, 1), (64, 1), (128, 3), (256, 14)], 0.40854362809142963),
    (20, 'plateau', [(16, 1), (32, 1), (64, 2), (128, 2), (256, 14)], 0.6444200881863917),
]


def test_core_tail_fixed_budget_solves_keep_their_pinned_work():
    # a faster kernel may round differently, but must not change the work:
    # the same iterations, stop and batch sizes, and the value to rounding.
    # eta-hat is 0 or 1/2 per point, as the sweep's rounds estimate it
    H = make_core_tail_instance(4).hypotheses.labelings
    n = H.shape[1]
    rng = np.random.default_rng(28)
    for seed, (iterations, stop_reason, runs, value) in enumerate(CORE_TAIL_SOLVES):
        eta = 0.5 * rng.integers(0, 2, n)
        anchor = int(np.argmax(H @ (2.0 * eta - 1.0)))
        rep = smd_solve(gap_objective(H, eta, anchor, 2.0 ** -(seed % 3)), seed=seed, **DEFAULT_SOLVER)
        assert (rep.iterations, rep.stop_reason) == (iterations, stop_reason)
        assert rep.batch_trajectory == [b for b, count in runs for _ in range(count)]
        assert rep.value_estimate == pytest.approx(value, rel=1e-12, abs=0)


def test_all_zero_batch_does_not_certify():
    # the live score is a negative multiple of z_0: both draws of seed 3's
    # first batch have z_0 > 0, so every value and the gradient are 0
    obj = gap_objective(np.array([[0, 0], [1, 0]], dtype=np.int8), np.array([0.2, 0.6]), 0, 0.5)
    seed = 3
    assert np.all(np.random.default_rng([seed, 0]).standard_normal((2, 2))[:, 0] > 0)
    rep = smd_solve(obj, tol=1e-3, b0=2, seed=seed, max_iters=40)
    assert rep.iterations > 1 and rep.batch_trajectory[:2] == [2, 4]
    assert rep.value_estimate > 0


def test_backtracking_ties_on_the_draws_the_trial_was_scored_on(monkeypatch):
    # a trial step ties when its value is within one paired standard error
    # of the iterate's on the iteration's draws, also on iterations that
    # double the batch for the next one
    inst = make_thresholds(32, 13, 0.4)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, 12, 0.5)
    seed = 4
    calls = []

    def spy(o, lam, Z):
        vals, argmax = batch_values(o, lam, Z)
        if not np.array_equal(Z, np.random.default_rng([seed, 1 << 30]).standard_normal(Z.shape)):
            calls.append((Z, np.array(lam), vals))  # not the evaluation batch
        return vals, argmax

    monkeypatch.setattr(aced.design, "batch_values", spy)
    rep = smd_solve(obj, seed=seed, **DEFAULT_SOLVER)
    groups = []  # per iteration: the iterate, then its trials, on one draw
    for Z, lam, vals in calls:
        if groups and groups[-1][0] is Z:
            groups[-1][1].append((lam, vals))
        else:
            groups.append((Z, [(lam, vals)]))
    assert len(groups) == rep.iterations
    doubling_ties = 0
    for t in range(len(groups) - 1):
        (_, vals), *trials = groups[t][1]
        for j, (lam, cvals) in enumerate(trials):
            accepted = j == len(trials) - 1 and np.array_equal(lam, groups[t + 1][1][0][0])
            diff = np.mean(cvals) - np.mean(vals)
            se = np.std(cvals - vals) / math.sqrt(vals.size)
            assert (diff <= se) == accepted
            doubling_ties += rep.batch_trajectory[t + 1] > vals.size and se / math.sqrt(2) < diff <= se
    assert doubling_ties >= 1


def _linear_oracle_objective(maximizer=None):
    """An oracle-backed gap objective on 8 points in the plane, through the
    logistic oracle unless another maximizer is given."""
    X = np.random.default_rng(5).standard_normal((8, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * X[:, 0]))
    maximizer = maximizer or partial(_max_labeling, HypothesisClass(oracle=LinearOracleClass(X)))
    return oracle_gap_objective(8, (X[:, 1] >= 0).astype(np.int8), eta, 0.5, maximizer,
                                line_search_iters=3)


def test_oracle_solve_replays_identically():
    # the working set lives in the solve: a second solve of one objective
    # starts again from the anchor and repeats the first bit for bit
    obj = _linear_oracle_objective()
    a, b = (smd_solve(obj, tol=1e-3, b0=2, seed=3, max_iters=12, max_batch=16) for _ in range(2))
    assert np.array_equal(a.design.lam, b.design.lam)
    assert (a.value_estimate, a.certificate, a.batch_trajectory, a.iterations, a.stop_reason) == (
        b.value_estimate, b.certificate, b.batch_trajectory, b.iterations, b.stop_reason)
    assert obj.V.shape == (1, 8) and a.value_estimate > 0  # the objective itself never grew


def test_oracle_sees_only_each_iterates_first_draws(monkeypatch):
    # one line search on each of the first max(b0, 2) draws of each
    # iterate's batch, also once the batch has doubled; trials and
    # candidates ask the oracle nothing
    seed, b0, calls, searched = 2, 3, [], []
    inner = _linear_oracle_objective().maximizer
    obj = _linear_oracle_objective(lambda w: calls.append(w) or inner(w))

    def spy(lam, zeta, *args):
        searched.append((np.array(lam), np.array(zeta)))
        return line_search_max(lam, zeta, *args)

    monkeypatch.setattr(aced.design, "line_search_max", spy)
    rep = smd_solve(obj, tol=1e-6, b0=b0, seed=seed, max_iters=6, max_batch=16)
    assert rep.iterations == 6 and max(rep.batch_trajectory) > b0
    assert len(searched) == rep.iterations * b0
    assert len(calls) <= rep.iterations * b0 * obj.line_search_iters
    for it, B in enumerate(rep.batch_trajectory):
        Z = np.random.default_rng([seed, it]).standard_normal((B, 8))
        group = searched[it * b0:(it + 1) * b0]
        assert all(np.array_equal(zeta, Z[s]) for s, (_, zeta) in enumerate(group))
        assert all(np.array_equal(lam, group[0][0]) for lam, _ in group)


def _spy_line_searches(monkeypatch):
    """Per line search of design's, the number of maximizer calls it made."""
    asked = []

    def spy(lam, zeta, anchor_labeling, eta_hat, scale, maximizer, n_max):
        asked.append(0)

        def asking(w):
            asked[-1] += 1
            return maximizer(w)

        return line_search_max(lam, zeta, anchor_labeling, eta_hat, scale, asking, n_max)

    monkeypatch.setattr(aced.design, "line_search_max", spy)
    return asked


def _counting_explicit_maximizer(H):
    calls = []

    def maximizer(w):
        calls.append(w.copy())
        i = int(np.argmax(H @ w))
        return i, H[i]

    return maximizer, calls


def test_growth_at_eta_one_half_asks_the_oracle_once_per_draw(monkeypatch):
    # eta-hat = 1/2 makes the search's slope c = 0, so the weight vector
    # d - r c after the first answer would be w = d again: each search asks once
    rng = np.random.default_rng(4)
    H = np.unique(rng.integers(0, 2, size=(12, 6)), axis=0).astype(np.int8)
    maximizer, calls = _counting_explicit_maximizer(H)
    obj = oracle_gap_objective(6, H[0], np.full(6, 0.5), 0.05, maximizer, line_search_iters=4)
    lam, Z = floor_simplex(rng.random(6)), rng.standard_normal((5, 6))
    asked = _spy_line_searches(monkeypatch)
    work = _grow_working_set(obj, lam, Z, {obj.anchor_labeling.tobytes()})
    assert asked == [1] * len(Z)
    for w, zeta in zip(calls, Z):
        assert np.array_equal(w, -zeta / (6 * np.sqrt(lam)))
    assert work.V.shape[0] > 1


def test_growth_asks_no_weight_vector_twice_where_no_eta_is_one_half(monkeypatch):
    # c has no zero entry: a search asks at most n_max weight vectors (three
    # of these eight would ask a third at n_max = 3), none twice in the growth
    rng = np.random.default_rng(6)
    H = np.unique(rng.integers(0, 2, size=(12, 6)), axis=0).astype(np.int8)
    eta = np.where(rng.random(6) < 0.5, rng.uniform(0.05, 0.45, 6), rng.uniform(0.55, 0.95, 6))
    maximizer, calls = _counting_explicit_maximizer(H)
    obj = oracle_gap_objective(6, H[0], eta, 0.05, maximizer, line_search_iters=2)
    lam, Z = floor_simplex(rng.random(6)), rng.standard_normal((8, 6))
    asked = _spy_line_searches(monkeypatch)
    _grow_working_set(obj, lam, Z, {obj.anchor_labeling.tobytes()})
    assert len({w.tobytes() for w in calls}) == len(calls) == sum(asked)
    assert all(1 <= a <= obj.line_search_iters for a in asked) and max(asked) > 1


def _twin_designs(n, eta_of):
    """On the halfspace twin of the rng(0) pool of n points in the plane,
    eta-hat eta_of(X), scale 0.05, b0 = 4 and line_search_iters = 8: the
    exact values of the uniform, explicit and oracle designs on 4000 fresh
    draws common to all three, the oracle solve's report, the oracle and the
    twin's labelings."""
    X = np.random.default_rng(0).standard_normal((n, 2))
    eta = eta_of(X)
    oracle = LinearOracleClass(X)
    H = explicit_twin(oracle).labelings
    anchor = int(np.argmin(plugin_errors(H, eta)))
    solver = dict(DEFAULT_SOLVER, b0=4)
    maximizer = partial(_max_labeling, HypothesisClass(oracle=oracle))
    explicit = gap_objective(H, eta, anchor, 0.05)
    exact_rep = smd_solve(explicit, seed=1, **solver)
    oracle_rep = smd_solve(oracle_gap_objective(n, H[anchor], eta, 0.05, maximizer, line_search_iters=8),
                           seed=1, **solver)
    Z = np.random.default_rng(99).standard_normal((4000, n))
    uniform, best, found = (float(np.mean(batch_values(explicit, lam, Z)[0]))
                            for lam in (np.full(n, 1 / n), exact_rep.design.lam, oracle_rep.design.lam))
    return uniform, best, found, oracle_rep, oracle, H


def test_oracle_design_is_near_the_exact_design_on_the_halfspace_twin():
    # 16 points in the plane; eta-hat is 1/2 in the band |x_0| < 1/2 and
    # decided outside it, so at scale 0.05 the cheap disagreements sit in the
    # band and uniform is 1.24 times the exact optimum
    uniform, best, found, oracle_rep, oracle, H = _twin_designs(
        16, lambda X: np.where(np.abs(X[:, 0]) < 0.5, 0.5, (X[:, 0] > 0).astype(float)))
    assert H.shape == (16 * 16 - 16 + 2, 16)
    assert uniform > 1.2 * best
    # the stated factor 1.02: measured 1.002 here, with headroom
    assert found <= 1.02 * best and found < uniform
    # the solve's own value reads its working set, a lower bound: 5.581 here
    assert oracle_rep.value_estimate <= found
    # every oracle answer is a halfspace of the pool, so a row of the twin
    rows = {h.tobytes() for h in H}
    for w in np.random.default_rng(3).standard_normal((20, 16)):
        assert _max_labeling(HypothesisClass(oracle=oracle), w)[1].tobytes() in rows


def test_oracle_design_leaves_the_uniform_start_where_half_the_pool_is_decided():
    # 20 points; eta-hat is 1/2 where x_0 > 1/2 and 0 elsewhere. Uniform
    # scores 7.174 and the explicit design 5.567; measured 5.568 here
    uniform, best, found, *_ = _twin_designs(20, lambda X: np.where(X[:, 0] > 0.5, 0.5, 0.0))
    assert found <= 1.05 * best < uniform


@pytest.mark.parametrize("n", [20, 40])
def test_line_search_reaches_the_enumerated_maximum_with_an_exact_maximizer(n):
    # the twin's exact argmax as the maximizer, at scale 0.05, where the
    # plug-in gap weighs in the ratio: measured 100/100 draws at both sizes
    # with a median of 3 calls (max 5)
    rng = np.random.default_rng(n)
    H = halfspace_labelings(rng.standard_normal((n, 2)))
    hits, calls = 0, []
    for _ in range(100):
        eta, lam, zeta = rng.random(n), rng.dirichlet(np.ones(n)), rng.standard_normal(n)
        anchor = int(np.argmin(plugin_errors(H, eta)))
        exact = batch_values(gap_objective(H, eta, anchor, 0.05), lam, zeta[None, :])[0][0]
        maximizer, asked = _counting_explicit_maximizer(H)
        value = line_search_max(lam, zeta, H[anchor], eta, 0.05, maximizer)[0]
        assert value <= exact * (1 + 1e-12)
        hits += value >= exact * (1 - 1e-12)
        calls.append(len(asked))
    assert hits >= 97 and np.median(calls) <= 5


@pytest.mark.parametrize("oracle", [False, True])
def test_capped_solve_proposes_no_step_after_its_last_iteration(monkeypatch, oracle):
    # the returned design is the best scored candidate, so backtracking
    # trials after the last iteration's candidates would be thrown away
    seed = 1
    if oracle:
        obj = _linear_oracle_objective()
    else:
        inst = make_thresholds(8, 3, 0.6)
        obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, 2, 0.5)
    draws = []

    def spy(o, lam, Z):
        draws.append(Z)
        return batch_values(o, lam, Z)

    monkeypatch.setattr(aced.design, "batch_values", spy)
    rep = smd_solve(obj, tol=1e-12, b0=2, seed=seed, max_iters=2, eval_samples=4)
    assert rep.stop_reason == "cap" and rep.iterations == 2
    kinds = []  # each batch_values call: an iterate's batch, one of its trials, or a candidate
    for j, Z in enumerate(draws):
        if np.array_equal(Z, np.random.default_rng([seed, 1 << 30]).standard_normal(Z.shape)):
            kinds.append("candidate")
        else:
            kinds.append("trial" if any(Z is W for W in draws[:j]) else "iterate")
    last = len(kinds) - 1 - kinds[::-1].index("iterate")
    assert kinds.count("iterate") == rep.iterations
    assert "trial" in kinds[:last] and "candidate" in kinds[:last]
    assert set(kinds[last + 1:]) <= {"candidate"}


@pytest.mark.parametrize("settings, name", [
    ({"max_iters": 0}, "max_iters"),
    ({"tol": -1.0}, "tol"),
    ({"tol": 0.0}, "tol"),
    ({"max_batch": 0}, "max_batch"),
    ({"b0": 16, "max_batch": 8}, "max_batch"),
    ({"b0": 0, "max_batch": 1}, "max_batch"),
    ({"max_halvings": -1}, "max_halvings"),
    ({"eval_samples": -1}, "eval_samples"),
    ({"b0": 0.5}, "b0"),
    ({"max_batch": 64.0}, "max_batch"),
    ({"max_halvings": True}, "max_halvings"),
    ({"eval_samples": "8"}, "eval_samples"),
    ({"max_iters": 2.5}, "max_iters"),
    ({"rel_tol": -0.1}, "rel_tol"),
    ({"rel_tol": "abc"}, "rel_tol"),
    ({"tol": float("nan")}, "tol"),
    ({"b0": -1}, "b0"),  # once accepted, and run as b0 = 2
])
def test_bad_solver_settings_raise_before_anything_is_drawn(monkeypatch, settings, name):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the settings")

    inst = make_thresholds(8, 3, 0.6)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, 2, 0.5)
    monkeypatch.setattr(aced.design.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^{name} "):
        smd_solve(obj, **{"tol": 1e-3, **settings})


def test_edge_solver_settings_are_accepted():
    # the smallest settings that run: one iteration, no trials, no extra
    # evaluation draws, a batch that never grows past its start
    inst = make_thresholds(8, 3, 0.6)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, 2, 0.5)
    rep = smd_solve(obj, tol=1e-3, b0=np.int64(2), max_iters=1, max_halvings=0, eval_samples=0,
                    max_batch=2)
    assert rep.iterations == 1 and rep.batch_trajectory == [2]


def test_no_trial_accepted_steps_by_the_first_trial_at_zero_halvings(monkeypatch):
    # at max_halvings 0 no trial is scored, and every step is the one taken
    # when none is accepted: min(1, 2 step) from step 1, so always 1
    inst = make_thresholds(8, 3, 0.6)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, 2, 0.5)
    steps, scored = [], []
    mirror = aced.design._mirror_step

    def mirror_spy(log_lam, g, step):
        steps.append((step, mirror(log_lam, g, step)))
        return steps[-1][1]

    def values_spy(o, lam, Z):
        scored.append((lam, Z))
        return batch_values(o, lam, Z)

    monkeypatch.setattr(aced.design, "_mirror_step", mirror_spy)
    monkeypatch.setattr(aced.design, "batch_values", values_spy)
    rep = smd_solve(obj, tol=1e-12, b0=4, seed=3, max_iters=4, max_halvings=0, eval_samples=8)
    assert rep.stop_reason == "cap" and rep.iterations == 4
    assert [step for step, _ in steps] == [1.0] * 3  # a capped solve proposes no step after its last
    Z_eval = np.random.default_rng([3, 1 << 30]).standard_normal((8, 8))
    iterates = [(lam, Z) for lam, Z in scored if not np.array_equal(Z, Z_eval)]
    assert len(iterates) == rep.iterations  # each batch scored once: no trial
    for (_, stepped), (lam, _) in zip(steps, iterates[1:]):
        assert lam is stepped


def test_gap_values_follow_a_lam_changed_in_place():
    # scoring must read lam's values, not its identity or write flag
    inst = make_thresholds(8, 3, 0.5)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, anchor=2, scale=0.25)
    Z = np.random.default_rng(0).standard_normal((16, 8))
    lam = np.full(8, 1 / 8)
    lam.flags.writeable = False
    first = batch_values(obj, lam, Z)[0].copy()
    lam.flags.writeable = True
    lam[:] = np.linspace(1.0, 2.0, 8) / np.linspace(1.0, 2.0, 8).sum()
    lam.flags.writeable = False
    again = batch_values(obj, lam, Z)[0]
    assert np.array_equal(again, batch_values(obj, lam.copy(), Z)[0])
    assert not np.array_equal(again, first)


def test_objectives_and_reports_are_frozen():
    # both are held by the round memo or the fixed-confidence design cache
    # and shared across runs
    inst = make_thresholds(8, 3, 0.5)
    obj = gap_objective(inst.hypotheses.labelings, inst.labels.eta, anchor=2, scale=0.25)
    rep = psi_design(inst.hypotheses.labelings, inst.labels.eta, 2, 0.25)
    for value, name in ((obj, "anchor"), (obj, "V"), (rep, "design"), (rep, "stop_reason")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
