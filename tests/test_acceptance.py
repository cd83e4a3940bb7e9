"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Monte Carlo criteria use fixed seeds throughout.
"""
import math

import numpy as np
import pytest
from scipy import stats

from aced.algorithms import (
    aced_fixed_budget,
    aced_fixed_confidence,
    aced_waterfilled,
    baseline_passive,
    baseline_uniform_disagreement,
)
from aced.bench import load_config, run
from aced.complexity import (
    disagreement_coefficient,
    gamma_star,
    make_core_tail_instance,
    make_thresholds,
    rho_star,
)
from aced.core import HypothesisClass, LabelModel, gap_table
from aced.design import (
    Design,
    floor_simplex,
    _disagreement_supports,
    gap_objective,
    psi_design,
    rho_design,
    sample_unique,
    smd_solve,
    waterfill,
)
from aced.estimators import (
    QueryLog,
    build_admissible_sequence,
    chaining_estimate,
    ips_estimate,
    naive_estimate,
    ridge_shift,
)
from aced.oracles import weighted_max
from test_design_parity import psi_sample, rho_terms, rho_value


def report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_core_tail_gap():
    m = 8
    inst = make_core_tail_instance(m)
    assert inst.n == 72
    theta = disagreement_coefficient(inst.hypotheses, inst.labels, 0.01)
    theta_floor = math.sqrt(72) / (2 * math.sqrt(2))
    rho = rho_star(inst.hypotheses, inst.labels, 0.0)
    ceiling = 4 * m * m / (m + 1) ** 2  # the explicit-design bound, 3.1605...
    ok = theta >= theta_floor and rho.value <= ceiling * 1.05
    report(1, "core-tail separation", ok,
           f"theta={theta:.3f} (>= {theta_floor:.3f}), rho*={rho.value:.4f} "
           f"(<= {ceiling * 1.05:.4f}, cert {rho.certificate:.3f})")


def test_criterion_2_thresholds_width_bound():
    n, eps = 64, 0.25
    inst = make_thresholds(n, 32, eps)
    # the stated ceiling lives on the set-sum scale; the classification
    # normalization reaches it through epsilon -> eps / n
    g = gamma_star(inst.hypotheses, inst.labels, eps / n, mc_samples=4000,
                   solver={"tol": 1e-3, "rel_tol": 0.05, "b0": 64,
                           "max_iters": 1200, "max_batch": 2048}, seed=0)
    ceiling = 194 * math.log2(n) * math.log(math.log2(2 * n)) / eps**2
    ok = g.value <= ceiling
    report(2, "thresholds width bound", ok,
           f"gamma*={g.value:.1f} +- {g.stderr:.1f} <= {ceiling:.0f}")


def test_criterion_3_ridge_coverage():
    n, t, delta, reps = 6, 200, 0.1, 2000
    rng = np.random.default_rng(123)
    lam = floor_simplex(np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]))
    eta = np.array([0.9, 0.1, 0.7, 0.4, 0.6, 0.2])
    mu = 2 * eta - 1
    v = np.array([1.0, -1.0, 1.0, 0.0, 0.0, 0.0])  # support 3
    s = ridge_shift(v, lam, t, delta)
    bound = (math.sqrt(2 / 3) + 1) * math.sqrt(
        2 * float((v**2 / lam).sum()) * math.log(2 / delta) / t
    )
    counts = rng.multinomial(t, lam, size=reps)
    pos = rng.binomial(counts, eta[None, :])
    S = 2.0 * pos - counts
    mu_hat = S / (t * lam[None, :] + s)
    dev = np.abs((mu_hat - mu[None, :]) @ v)
    violations = int((dev > bound).sum())
    ok = violations <= (delta + 0.02) * reps
    report(3, "ridge-IPS coverage", ok,
           f"{violations}/{reps} violations (allowed {int((delta + 0.02) * reps)})")


def test_criterion_4_gaussian_width_lower_bound():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(20):
        m, n = int(rng.integers(2, 17)), int(rng.integers(3, 11))
        H = np.unique(rng.integers(0, 2, size=(m, n)), axis=0).astype(float)
        lam = floor_simplex(rng.random(n))
        scale = 1.0 / np.sqrt(lam)
        diffs = (H[:, None, :] - H[None, :, :]).reshape(-1, n) * scale
        Z = rng.standard_normal((3000, n))
        W = (diffs @ Z.T).max(axis=0)
        est = float(W.mean()) ** 2
        se_sq = 2.0 * abs(float(W.mean())) * float(W.std(ddof=1)) / math.sqrt(len(W))
        max_norm_sq = float((diffs**2).sum(axis=1).max())
        if est < (2 / math.pi) * max_norm_sq - 3 * se_sq:
            failures.append(trial)
    report(4, "width lower bound", not failures, f"failed trials: {failures}")


def _grid_simplex(n, step=0.01):
    if n == 2:
        for a in np.arange(step, 1.0, step):
            yield np.array([a, 1.0 - a])
    else:
        for a in np.arange(step, 1.0, step):
            for b in np.arange(step, 1.0 - a + step / 2, step):
                c = 1.0 - a - b
                if c >= step / 2:
                    yield np.array([a, b, c])


def test_criterion_5_solver_grid_optimality():
    rng = np.random.default_rng(3)
    fixtures = []
    # n=2, |H|=2 true-gap
    fixtures.append(("true_gap", np.array([[0, 0], [1, 0]], dtype=np.int8),
                     np.array([0.1, 0.6]), 0.2))
    # n=3, |H|=4 fixed budget
    fixtures.append(("fixed_budget", np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]],
                                              dtype=np.int8), np.array([0.2, 0.5, 0.8]), 0.5))
    # n=3, |H|=8 true-gap
    H8 = np.unique(rng.integers(0, 2, size=(10, 3)), axis=0).astype(np.int8)[:8]
    fixtures.append(("true_gap", H8, np.array([0.85, 0.3, 0.55]), 0.15))
    # deterministic modes
    fixtures.append(("rho", np.array([[0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int8),
                     np.array([0.0, 0.0, 0.0]), 0.3))
    fixtures.append(("psi", np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
                                     dtype=np.int8), np.array([0.1, 0.2, 0.9]), 0.25))
    detail = []
    ok = True
    for mode, H, eta, scale in fixtures:
        n = H.shape[1]
        errs = (eta.sum() + H.astype(float) @ (1 - 2 * eta)) / n
        anchor = int(np.argmin(errs))
        if mode == "rho":
            rep = rho_design(H, eta, scale, anchor)
            terms = rho_terms(H, eta, scale, anchor)

            def evaluate(lam):
                return rho_value(terms, Design(lam).lam)

        elif mode == "psi":
            rep = psi_design(H, eta, anchor, scale, floor_at_scale=True)
            terms = _disagreement_supports(H, eta, anchor, scale, floor_at_scale=True)

            def evaluate(lam):
                return psi_sample(terms, Design(lam).lam)[0]

        else:
            obj = gap_objective(H, eta, anchor, scale, mode=mode)
            rep = smd_solve(obj, tol=1e-4, rel_tol=0.01, b0=64, seed=11,
                            max_iters=4000, max_batch=4096)
            Z = np.random.default_rng(999).standard_normal((4000, n))

            def evaluate(lam):
                scores = (obj.V @ (Z / np.sqrt(lam)).T) / obj.den[:, None]
                return float(np.maximum(scores.max(axis=0), 0.0).mean())

        grid_best = min(evaluate(floor_simplex(g)) for g in _grid_simplex(n))
        solved = evaluate(rep.design.lam)
        ok_here = solved <= grid_best * 1.05 + 1e-9
        ok &= ok_here
        detail.append(f"{mode}: solver {solved:.4f} vs grid {grid_best:.4f}")
    report(5, "solver within 5% of grid", ok, "; ".join(detail))


def test_criterion_6_fixed_confidence_success():
    inst = make_thresholds(16, 7, 1.0, seed=0)
    gt = gap_table(inst.hypotheses, inst.labels)
    cache = {}
    wins = 0
    hstar_always_survived = True
    for seed in range(100):
        rec = aced_fixed_confidence(inst, delta=0.1, seed=seed, design_cache=cache)
        if rec.returned == gt.h_star:
            wins += 1
            for entry in rec.designs:
                if gt.h_star not in entry["survivors"]:
                    hstar_always_survived = False
    ok = wins >= 90 and hstar_always_survived
    report(6, "fixed-confidence success", ok,
           f"{wins}/100 runs returned h*, h* retained in all successful runs: "
           f"{hstar_always_survived}")


def test_criterion_7_beats_uniform_disagreement():
    n01 = n10 = a_err = b_err = 0
    reps = 200
    for seed in range(reps):
        inst = make_core_tail_instance(4, persistent=True, seed=seed)
        ra = aced_fixed_budget(inst, T=60, epsilon=0.1, estimator_kind="naive", seed=seed)
        rb = baseline_uniform_disagreement(inst, T=60, delta=0.1, seed=seed)
        a_bad = ra.returned != 0
        b_bad = rb.returned != 0
        a_err += a_bad
        b_err += b_bad
        n01 += (not a_bad) and b_bad
        n10 += a_bad and (not b_bad)
    p = stats.binomtest(n01, n01 + n10, 0.5, alternative="greater").pvalue if n01 + n10 else 1.0
    ok = a_err < b_err and p < 0.05
    report(7, "beats uniform disagreement", ok,
           f"errors {a_err}/{reps} vs {b_err}/{reps}, one-sided p={p:.2e}")


def test_waterfilled_beats_passive_at_a_fixed_budget():
    """Lower error at equal labels, the paper's fixed-budget claim, on the
    one setting where a gain over passive sampling has been measured: the
    noiseless pool make_thresholds(128, 60, 1.0, persistent=True, seed=s),
    aced_waterfilled (T=48, epsilon=1/64, N_batch=8) against
    baseline_passive (T=48), paired by seed s. A run's excess risk is the
    true gap of the hypothesis it returns. Measured with this loop on a
    2-vCPU x86_64 host: at 40 seeds the means are 0.0047 against 0.0164,
    ACED lower in 24, higher in 4 and tied in 12, one-sided Wilcoxon
    p = 1.8e-4, in 11.0 s; at the 34 seeds run here, 0.0046 against
    0.0154, lower in 19, higher in 4 and tied in 11, p = 1.1e-3, in
    7.7-9.0 s. 36 seeds took 8.3-10.3 s, over the 10 s this test may take.
    With the uniform design waterfilled in place of the solved one, the 34
    seeds read 0.0156 against 0.0154, p = 0.63. aced_fixed_budget at its
    default ips estimator answers from its last round's labels only and
    fails this comparison, so it is not run here."""
    aced, passive = [], []
    for seed in range(34):
        inst = make_thresholds(128, 60, 1.0, persistent=True, seed=seed)
        gaps = gap_table(inst.hypotheses, inst.labels).gaps
        aced.append(gaps[aced_waterfilled(inst, T=48, epsilon=1 / 64, N_batch=8, seed=seed).returned])
        passive.append(gaps[baseline_passive(inst, T=48, seed=seed).returned])
    p = stats.wilcoxon(aced, passive, alternative="less").pvalue
    assert np.mean(aced) < np.mean(passive) and p < 0.01, (np.mean(aced), np.mean(passive), p)


def test_criterion_8_waterfilling_fidelity():
    n, reps = 20, 1000
    rng = np.random.default_rng(5)
    tilt = rng.random(n)
    lam1 = floor_simplex(np.ones(n))
    lam2 = floor_simplex(1.0 + 0.25 * tilt)
    lam3 = floor_simplex(1.0 + 0.5 * tilt)
    counts = np.zeros(n)
    draws_per_round = 1
    for rep in range(reps):
        seen = set()
        priors = []
        for k, lam in enumerate((lam1, lam2, lam3), start=1):
            p_k = waterfill(lam, priors)
            priors.append(p_k.lam)
            picks, _ = sample_unique(p_k, draws_per_round, seen,
                                     rng=np.random.default_rng([rep, k]))
            for i in picks:
                counts[i] += 1
                seen.add(i)
    freq = counts / counts.sum()
    tv = 0.5 * float(np.abs(freq - lam3).sum())
    report(8, "waterfilling fidelity", tv <= 0.05, f"TV={tv:.4f} (<= 0.05)")


def test_criterion_9_estimator_unbiasedness():
    rng = np.random.default_rng(31)
    n, t, reps = 5, 40, 10_000
    lam = floor_simplex(np.array([0.35, 0.25, 0.2, 0.1, 0.1]))
    eta = np.array([0.85, 0.25, 0.5, 0.65, 0.1])
    idx = rng.choice(n, size=(reps, t), p=lam)
    ys = rng.random((reps, t)) < eta[idx]
    est = np.zeros((reps, n))
    for i in range(n):
        est[:, i] = np.where(idx == i, ys / lam[i], 0.0).sum(axis=1) / t
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / math.sqrt(reps)
    ips_ok = bool(np.all(np.abs(mean - eta) <= 3 * se))
    # plus a direct consistency check of the log-based implementations
    log = QueryLog.from_rows((1, int(i), float(lam[i]), int(y)) for i, y in zip(idx[0], ys[0]))
    assert np.allclose(ips_estimate(log, n).values, est[0], atol=1e-12)

    labels = LabelModel(np.array([0.0, 1.0, 1.0, 0.0, 1.0]), persistent=True, seed=2)
    full = QueryLog.from_rows((1, i, 0.2, labels.query(i)) for i in range(5))
    naive_ok = bool(np.array_equal(naive_estimate(full, 5).values, labels.eta))
    ok = ips_ok and naive_ok
    report(9, "estimator unbiasedness", ok,
           f"IPS within 3 SE: {ips_ok}, naive exact under persistent coverage: {naive_ok}")


def test_criterion_10_oracle_reduction_identity():
    rng = np.random.default_rng(17)
    bad = 0
    for _ in range(1000):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 9))
        hclass = HypothesisClass(rng.integers(0, 2, size=(m, n)).astype(np.int8))
        w = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
        h, value = weighted_max(hclass, w)
        brute = hclass.labelings.astype(float) @ w
        if not (abs(value - brute.max()) < 1e-9 and abs(brute[h] - brute.max()) < 1e-9):
            bad += 1
    report(10, "oracle reduction identity", bad == 0, f"{bad}/1000 mismatches")


def test_criterion_11_chaining_feasibility():
    n, delta, t = 64, 0.1, 1500
    inst = make_thresholds(n, 32, 0.25, seed=9)
    H = inst.hypotheses.labelings
    assert H.shape[0] == 64
    lam = floor_simplex(1.0 / (np.arange(n) + 1.0))
    rng = np.random.default_rng(77)
    feasible = 0
    caps_ok = True
    for rep in range(500):
        idx = rng.choice(n, size=t, p=lam)
        ys = (rng.random(t) < inst.labels.eta[idx]).astype(int)
        log = QueryLog.from_rows((1, int(i), float(lam[i]), int(y)) for i, y in zip(idx, ys))
        est = chaining_estimate(H, log, lam, delta)
        feasible += est.flags["feasible"]
    seq = build_admissible_sequence(H, lam, t)
    for k, lv in enumerate(seq.levels[1:], start=1):
        caps_ok &= len(lv) <= 2 ** (2**k)
    caps_ok &= len(seq.levels[0]) == 1
    ok = feasible >= (1 - delta) * 500 and caps_ok
    report(11, "chaining feasibility", ok,
           f"feasible {feasible}/500 (needed {int((1 - delta) * 500)}), caps ok: {caps_ok}")


def test_criterion_12_benchmark_determinism(tmp_path):
    cfg_text = f"""
[instance]
generator = core_tail
m = 3
persistent = true
seed = 4

[run]
seeds = 0,1,2
output_dir = {tmp_path / "a"}

[algorithm passive]
T = 12

[algorithm aced_waterfilled]
T = 9
epsilon = 0.25
N_batch = 3
"""
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(cfg_text)
    p1 = run(load_config(cfg_file), out_dir=tmp_path / "a")
    p2 = run(load_config(cfg_file), out_dir=tmp_path / "b")

    same = (open(p1["results"]).read() == open(p2["results"]).read()
            and open(p1["curves"]).read() == open(p2["curves"]).read()
            and open(p1["records"]).read() == open(p2["records"]).read())
    report(12, "benchmark determinism", same, "replayed bodies byte-identical")
