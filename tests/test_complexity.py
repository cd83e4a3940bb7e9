import math
import time

import numpy as np
import pytest

from aced.complexity import (
    TsybakovSpec,
    complexity_report,
    disagreement_bound_check,
    disagreement_coefficient,
    gamma_star,
    make_core_tail_instance,
    make_thresholds,
    make_tsybakov,
    psi_star,
    rho_star,
    tsybakov_holds,
)
from aced.core import HypothesisClass, LabelModel, gap_table
from aced.design import Design, ObjectiveDegenerateError, _disagreement_supports, floor_simplex
from test_design_parity import psi_sample, rho_terms, rho_value

QUICK = {"tol": 1e-4, "rel_tol": 0.02, "b0": 32, "max_iters": 2000, "max_batch": 2048}


def test_rho_star_core_tail_matches_explicit_design_bound():
    inst = make_core_tail_instance(4)
    r = rho_star(inst.hypotheses, inst.labels, 0.0)
    assert r.value <= 4 * 16 / 25 * 1.02  # 2.56 with 2% solver slack
    # the optimal design halves its mass between core and tail blocks
    assert r.design.lam[:4].sum() == pytest.approx(0.5, abs=0.02)


def test_rho_star_two_point_analytic():
    H = np.array([[0, 0], [1, 0]], dtype=np.int8)
    labels = LabelModel(np.array([0.0, 0.5]))
    gap = 0.5  # err(h1) - err(h0) = eta-weighted single coordinate
    gt = gap_table(HypothesisClass(H), labels)
    assert gt.gaps[1] == pytest.approx(0.5)
    r = rho_star(HypothesisClass(H), labels, 0.0)
    assert r.value == pytest.approx((1 / 4) / gap**2, rel=0.02)
    assert r.design.lam[0] > 0.95


def test_rho_star_grid_agreement_n3():
    rng = np.random.default_rng(6)
    H = np.unique(rng.integers(0, 2, size=(6, 3)), axis=0).astype(np.int8)
    eta = np.array([0.9, 0.15, 0.55])
    labels = LabelModel(eta)
    hclass = HypothesisClass(H)
    r = rho_star(hclass, labels, 0.1)
    gt = gap_table(hclass, labels)
    terms = rho_terms(hclass.labelings, eta, 0.1, gt.h_star)
    best = np.inf
    step = 0.01
    for a in np.arange(step, 1, step):
        for b in np.arange(step, 1 - a + step / 2, step):
            lam = np.array([a, b, 1 - a - b])
            if lam[2] <= 0:
                continue
            v = rho_value(terms, Design(lam).lam)
            best = min(best, v)
    assert r.value <= best * 1.05


def test_rho_star_singleton_convention():
    hclass = HypothesisClass(np.array([[0, 1]]))
    r = rho_star(hclass, LabelModel(np.array([0.5, 0.5])), 0.0)
    assert r.value == 0.0


def test_classification_and_bandit_scales_agree():
    # rho objective in classification scale at (lam, eps) equals the
    # bandit-scale ratio with gap and floor both multiplied by n
    rng = np.random.default_rng(3)
    H = np.unique(rng.integers(0, 2, size=(5, 4)), axis=0).astype(np.int8)
    eta = rng.random(4)
    labels = LabelModel(eta)
    hclass = HypothesisClass(H)
    gt = gap_table(hclass, labels)
    eps = 0.07
    terms = rho_terms(hclass.labelings, eta, eps, gt.h_star)
    lam = floor_simplex(rng.random(4))
    v_cls = rho_value(terms, Design(lam).lam)
    n = 4
    mu = 2 * eta - 1
    hs = hclass.labelings[gt.h_star]
    v_band = 0.0
    for h in range(hclass.size):
        if h == gt.h_star:
            continue
        diff = hclass.labelings[h] != hs
        band_gap = float(mu @ (hs.astype(float) - hclass.labelings[h]))
        v_band = max(v_band, (1.0 / lam[diff]).sum() / max(band_gap, n * eps) ** 2)
    assert v_cls == pytest.approx(v_band, rel=1e-9)


def test_gamma_star_two_hypotheses_half_normal():
    # E[max(0, X)]^2 with X ~ N(0, sigma^2) equals sigma^2 / (2 pi)
    H = np.array([[0, 0, 0], [1, 1, 0]], dtype=np.int8)
    eta = np.array([0.2, 0.2, 0.5])
    labels = LabelModel(eta)
    hclass = HypothesisClass(H)
    g = gamma_star(hclass, labels, 0.0, mc_samples=120_000, solver=QUICK, seed=1)
    gt = gap_table(hclass, labels)
    gap = gt.gaps[1]
    lam = g.design.lam
    sigma2 = float(((H[0] - H[1]) ** 2 / lam).sum()) / (9 * gap * gap)
    assert g.value == pytest.approx(sigma2 / (2 * math.pi), rel=0.05)


def test_gamma_star_duplication_invariance():
    H = np.array([[0, 0], [1, 0]], dtype=np.int8)
    labels = LabelModel(np.array([0.1, 0.5]))
    g1 = gamma_star(HypothesisClass(H), labels, 0.05, mc_samples=2000, solver=QUICK, seed=2)
    Hdup = np.array([[0, 0], [1, 0], [1, 0]], dtype=np.int8)
    g2 = gamma_star(HypothesisClass(Hdup), labels, 0.05, mc_samples=2000, solver=QUICK, seed=2)
    assert g1.value == pytest.approx(g2.value, rel=1e-9)  # dedup makes them identical


def test_gamma_star_diagnostic_solve_leaves_the_uniform_start():
    # at the default DIAGNOSTIC_SOLVER; the uniform design scores about 32.5
    inst = make_thresholds(16, 7, 0.5)
    start = time.perf_counter()
    g = gamma_star(inst.hypotheses, inst.labels, 0.05)
    assert time.perf_counter() - start < 5.0
    assert not np.allclose(g.design.lam, 1.0 / 16)
    assert g.value <= 23.1 and g.converged


@pytest.mark.parametrize("mc_samples, low", [(8, True), (4000, False)])
def test_gamma_star_flags_a_low_precision_estimate(mc_samples, low):
    # the flag is set when the Monte Carlo standard error exceeds 20% of the value
    inst = make_core_tail_instance(2)
    g = gamma_star(inst.hypotheses, inst.labels, 0.05, mc_samples=mc_samples,
                   solver={"max_iters": 30})
    assert g.flags["low_precision"] is low
    assert (g.stderr > 0.2 * g.value) is low


def test_psi_star_core_tail_exceeds_rho_bound():
    inst = make_core_tail_instance(4)
    p = psi_star(inst.hypotheses, inst.labels, 0.0)
    assert p.value >= 16 / 5 - 1e-6  # m^2/(m+1): forced tail coordinates
    assert p.value == pytest.approx(4.0, rel=0.02)  # full value n/(m+1)
    assert p.value > 4 * 16 / 25  # strictly above the rho* ceiling


def test_psi_star_singleton_and_grid():
    hclass = HypothesisClass(np.array([[1, 0]]))
    assert psi_star(hclass, LabelModel(np.array([0.5, 0.5])), 0.1).value == 0.0

    rng = np.random.default_rng(8)
    H = np.unique(rng.integers(0, 2, size=(5, 3)), axis=0).astype(np.int8)
    eta = np.array([0.8, 0.3, 0.6])
    labels = LabelModel(eta)
    hclass = HypothesisClass(H)
    p = psi_star(hclass, labels, 0.05)
    gt = gap_table(hclass, labels)
    terms = _disagreement_supports(hclass.labelings, eta, gt.h_star, 0.05, floor_at_scale=True)
    best = np.inf
    step = 0.01
    for a in np.arange(step, 1, step):
        for b in np.arange(step, 1 - a + step / 2, step):
            lam = np.array([a, b, 1 - a - b])
            if lam[2] <= 0:
                continue
            v, _ = psi_sample(terms, Design(lam).lam)
            best = min(best, v)
    assert p.value <= best * 1.05


def test_psi_star_is_the_closed_form_minimum():
    from aced.design import LAMBDA_FLOOR

    inst = make_thresholds(16, 7, 0.5)
    H, eta = inst.hypotheses.labelings, inst.labels.eta
    gt = gap_table(inst.hypotheses, inst.labels)
    for eps, expected in ((0.05, 9.0579), (0.1, 6.9746)):
        p = psi_star(inst.hypotheses, inst.labels, eps)
        assert p.converged and p.certificate == 0.0
        den = np.maximum(gt.gaps, eps)
        support = (H != H[gt.h_star]) & (np.arange(H.shape[0]) != gt.h_star)[:, None]
        a = np.where(support, 1.0 / den[:, None], 0.0).max(axis=0)
        exact = a.sum() / inst.n
        assert exact == pytest.approx(expected, abs=1e-4)
        # the design floor puts LAMBDA_FLOOR mass on each coordinate no
        # hypothesis disagrees on, which costs exactly that relative excess
        dead = int((a == 0).sum())
        assert p.value >= exact
        assert p.value == pytest.approx(exact * (1.0 + dead * LAMBDA_FLOOR), rel=1e-12)
        assert np.allclose(p.design.lam, a / a.sum(), atol=1e-8)


def test_theta_singleton_zero():
    hclass = HypothesisClass(np.array([[0, 1, 0]]))
    assert disagreement_coefficient(hclass, LabelModel(np.full(3, 0.5)), 0.01) == 0.0


def test_theta_core_tail_exact():
    for m in (4, 8):
        inst = make_core_tail_instance(m)
        theta = disagreement_coefficient(inst.hypotheses, inst.labels, 0.01)
        assert theta == pytest.approx(m)  # |DIS| = n at radius (m+1)/n
        assert theta >= math.sqrt(inst.n) / (2 * math.sqrt(2))


def test_theta_matches_r_grid_brute_force():
    inst = make_core_tail_instance(4)
    hclass, labels = inst.hypotheses, inst.labels
    xi = 0.1
    exact = disagreement_coefficient(hclass, labels, xi)
    H = hclass.labelings
    gt = gap_table(hclass, labels)
    dist = (H != H[gt.h_star][None, :]).mean(axis=1)
    brute = 0.0
    for r in np.arange(xi, 1.0001, 1e-3):
        ball = H[dist <= r + 1e-12]
        if ball.shape[0] <= 1:
            continue
        dis = np.any(ball != ball[0][None, :], axis=0).sum()
        brute = max(brute, (dis / inst.n) / r)
    assert exact >= brute - 1e-9
    assert exact == pytest.approx(brute, rel=1e-2)  # grid resolution only


def test_theta_monotone_in_xi():
    inst = make_thresholds(16, 5, 1.0)
    last = np.inf
    for xi in (0.01, 0.05, 0.1, 0.3, 0.6):
        th = disagreement_coefficient(inst.hypotheses, inst.labels, xi)
        assert th <= last + 1e-12
        last = th


def test_measures_monotone_in_epsilon():
    inst = make_thresholds(8, 3, 1.0)
    hclass, labels = inst.hypotheses, inst.labels
    rho_last = gamma_last = psi_last = np.inf
    for eps in (0.05, 0.1, 0.3, 0.6):
        r = rho_star(hclass, labels, eps).value
        g = gamma_star(hclass, labels, eps, mc_samples=3000, solver=QUICK, seed=5)
        p = psi_star(hclass, labels, eps).value
        assert r <= rho_last * 1.03 + 1e-9
        assert g.value <= gamma_last * 1.10 + 3 * g.stderr  # MC slack
        assert p <= psi_last * 1.03 + 1e-9
        rho_last, gamma_last, psi_last = r, g.value, p


def test_theta_to_rho_separation_grows_with_m():
    for m in (4, 6, 8):
        inst = make_core_tail_instance(m)
        theta = disagreement_coefficient(inst.hypotheses, inst.labels, 0.01)
        rho = rho_star(inst.hypotheses, inst.labels, 0.0).value
        assert theta / rho >= m / 4


def test_disagreement_bound_check_noiseless():
    inst = make_thresholds(16, 9, 1.0)
    ok, report = disagreement_bound_check(inst.hypotheses, inst.labels, epsilon=1 / 16,
                                          mode="noiseless", c_bound=9.0)
    assert ok, report
    assert math.isfinite(report["ratio"]) and report["ratio"] <= 9.0


def test_disagreement_bound_check_tsybakov():
    inst = make_thresholds(8, 4, 1.0)
    spec = TsybakovSpec(a=1.0, alpha=1.0)
    assert tsybakov_holds(inst.hypotheses, inst.labels, spec)
    ok, report = disagreement_bound_check(inst.hypotheses, inst.labels, epsilon=0.125,
                                          mode="tsybakov", tsybakov=spec, c_bound=9.0)
    assert ok, report


def test_disagreement_bound_check_degenerate_single_gap():
    H = np.array([[0, 0], [1, 1]], dtype=np.int8)
    labels = LabelModel(np.array([0.0, 0.0]))
    ok, report = disagreement_bound_check(HypothesisClass(H), labels, epsilon=0.5,
                                          mode="noiseless")
    assert math.isfinite(report["ratio"])  # delta_min guard worked


def test_disagreement_bound_check_rejects_bad_premise():
    inst = make_thresholds(8, 4, 0.5)  # noisy labels
    with pytest.raises(ValueError):
        disagreement_bound_check(inst.hypotheses, inst.labels, 0.1, mode="noiseless")


def test_core_tail_shapes():
    inst = make_core_tail_instance(1)
    assert inst.n == 2 and inst.hypotheses.size == 2
    inst = make_core_tail_instance(4)
    gt = gap_table(inst.hypotheses, inst.labels)
    assert np.allclose(gt.gaps[1:], 0.25)


def test_thresholds_instance_gaps():
    n, k_star, eps = 12, 5, 0.4
    inst = make_thresholds(n, k_star, eps)
    gt = gap_table(inst.hypotheses, inst.labels)
    assert gt.h_star == k_star - 1
    for k in range(1, n + 1):
        assert gt.gaps[k - 1] == pytest.approx(eps * abs(k - k_star) / n, abs=1e-12)
    tiny = make_thresholds(2, 1, 1.0)
    assert tiny.hypotheses.size == 2


def test_make_tsybakov_paths():
    inst = make_tsybakov(6, a=4.0, alpha=0.5, seed=1)
    assert tsybakov_holds(inst.hypotheses, inst.labels, TsybakovSpec(a=4.0, alpha=0.5))
    # enormous a accepts anything
    inst2 = make_tsybakov(5, a=1e6, alpha=1.0, seed=2, max_tries=3)
    assert inst2.n == 5
    # a tight spec over a crowded class has near-ties that violate it
    with pytest.raises(ValueError):
        make_tsybakov(8, a=1.0, alpha=1.0, seed=3, max_tries=5, m_hyp=30)


def test_complexity_report_shape():
    inst = make_thresholds(8, 3, 1.0)
    rep = complexity_report(inst, epsilon=0.2, xis=(0.05, 0.2), mc_samples=1500,
                            solver=QUICK, seed=0)
    assert rep.rho_star.value >= 0 and rep.psi_star.value >= 0
    assert set(rep.theta) == {0.05, 0.2}
    # width-vs-rho relation holds with a modest logged constant
    c_emp = rep.gamma_star.value / (max(rep.rho_star.value, 1e-12) * math.log(inst.hypotheses.size))
    assert c_emp > 0


def test_rho_star_is_certified_on_thresholds():
    inst = make_thresholds(16, 7, 0.5)
    r = rho_star(inst.hypotheses, inst.labels, 0.05)
    assert 13.1686 <= r.value <= 13.1700
    assert r.converged and 0.0 <= r.certificate <= 1e-4 * r.value


@pytest.mark.parametrize("mc_samples", [0, 1, 2.5])
def test_gamma_star_rejects_mc_samples_it_cannot_use(mc_samples):
    # 0 divided by zero and 1 gave a nan stderr without a flag
    inst = make_thresholds(8, 5, 1.0)
    with pytest.raises(ValueError, match="^mc_samples"):
        gamma_star(inst.hypotheses, inst.labels, 0.1, mc_samples=mc_samples)
    with pytest.raises(ValueError, match="^mc_samples"):
        complexity_report(inst, 0.1, mc_samples=mc_samples)


def test_rho_dual_bound_is_below_the_value():
    inst = make_thresholds(16, 7, 0.5)
    gt = gap_table(inst.hypotheses, inst.labels)
    S, coeff = rho_terms(inst.hypotheses.labelings, inst.labels.eta, 0.05, gt.h_star)
    value = rho_star(inst.hypotheses, inst.labels, 0.05).value
    rng = np.random.default_rng(4)
    for _ in range(50):
        mu = rng.dirichlet(np.ones(coeff.size))
        w = (mu * coeff) @ S
        assert np.sqrt(w).sum() ** 2 <= value


def test_rho_iteration_cap_is_reported(monkeypatch):
    import aced.design

    monkeypatch.setattr(aced.design, "RHO_MAX_ITERS", 1)
    inst = make_thresholds(16, 7, 0.5)
    r = rho_star(inst.hypotheses, inst.labels, 0.05)
    assert not r.converged and r.certificate > 0


def test_rho_star_core_tail_closed_form_against_theta():
    # mu uniform on the tail hypotheses is dual-optimal: rho* = 4 m^2/(m+1)^2
    # stays below 4 while theta = m grows
    for m in (3, 4, 8, 12):
        inst = make_core_tail_instance(m)
        r = rho_star(inst.hypotheses, inst.labels, 0.0)
        assert r.converged
        assert r.value == pytest.approx(4 * m * m / (m + 1) ** 2, rel=1e-4)
        theta = disagreement_coefficient(inst.hypotheses, inst.labels, 0.01)
        assert theta / r.value >= m / 4


def test_disagreement_bound_check_reports_rho_gap():
    inst = make_thresholds(16, 9, 1.0)
    _, report = disagreement_bound_check(inst.hypotheses, inst.labels, epsilon=1 / 16,
                                         mode="noiseless")
    r = rho_star(inst.hypotheses, inst.labels, 1 / 16)
    assert report["rho_converged"] is True
    assert report["rho_gap"] == r.certificate
    assert 0.0 <= report["rho_gap"] <= 1e-4 * report["rho_star"]


def test_zero_gap_duplicate_of_h_star_is_degenerate_for_every_measure():
    # at epsilon = 0 a copy of h* has gap 0: rho*, gamma* and psi* all refuse it
    inst = make_thresholds(6, 3, 1.0)
    H = inst.hypotheses.labelings
    hclass = HypothesisClass(np.vstack([H, H[2]]), dedup=False)
    assert gap_table(hclass, inst.labels).h_star == 2
    for measure in (rho_star, gamma_star, psi_star):
        with pytest.raises(ObjectiveDegenerateError):
            measure(hclass, inst.labels, 0.0)
