"""Each reference check passes on real output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""
import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from aced.algorithms import aced_fixed_confidence, aced_waterfilled, baseline_passive  # noqa: E402
from aced.complexity import complexity_report, make_core_tail_instance, make_thresholds  # noqa: E402
from aced.core import gap_table  # noqa: E402


def test_best_hypothesis_matches_gap_table():
    inst = make_thresholds(10, 4, 0.5, seed=0)
    L, eta = inst.hypotheses.labelings, inst.labels.eta
    assert checks.best_hypothesis(L, eta) == gap_table(inst.hypotheses, inst.labels).h_star
    tied = np.array([[0, 1], [1, 0], [0, 1]])
    assert checks.best_hypothesis(tied, np.array([0.5, 0.5])) == 0


def test_plugin_erm_ties_and_repeats():
    L = np.array([[1, 0], [0, 1]])
    # point 0 queried twice counts once, so the rows tie on one mistake
    assert checks.plugin_erm(L, [(0, 0), (0, 0), (1, 0)]) == 0
    assert checks.plugin_erm(L, [(0, 0), (1, 0), (1, 0)]) == 0
    assert checks.plugin_erm(L, [(1, 1)]) == 1
    assert checks.plugin_erm(L, []) == 0


def _bench_outputs():
    inst = make_core_tail_instance(3, persistent=True, seed=2)
    truth = inst.labels.realized_labels()
    recs = [aced_waterfilled(inst, T=6, epsilon=0.25, N_batch=3, seed=1), baseline_passive(inst, T=6, seed=1)]
    records, rows = [], {}
    for label, rec in zip(("aced_waterfilled", "passive"), recs):
        d = {"label": label, "seed": 1, "returned": rec.returned,
             "returned_labeling": rec.returned_labeling,
             "queries": [[q.round, q.index, q.prob, q.label] for q in rec.queries]}
        records.append(d)
        acc = float(np.mean(np.array(rec.returned_labeling) == truth))
        rows[(label, 1)] = [(len(rec.queries), acc)]
    want = {"aced_waterfilled": {"max_queries": 6, "unique": True, "erm": True},
            "passive": {"queries": 6, "unique": True, "erm": True}}
    return inst.hypotheses.labelings, truth, rows, records, want


def test_bench_checks_catch_corruption():
    L, truth, rows, records, want = _bench_outputs()
    assert checks.check_bench_round(rows, records, L, truth, want) == []

    def broken(edit):
        r, recs = copy.deepcopy(rows), copy.deepcopy(records)
        edit(r, recs)
        return checks.check_bench_round(r, recs, L, truth, want)

    def wrong_return(r, recs):
        recs[1]["returned"] = 1 + recs[1]["returned"]

    def repeat_index(r, recs):
        recs[0]["queries"][1][1] = recs[0]["queries"][0][1]

    def short_budget(r, recs):
        recs[1]["queries"].pop()

    def wrong_label(r, recs):
        recs[1]["queries"][0][3] = 1 - recs[1]["queries"][0][3]

    def wrong_accuracy(r, recs):
        q, acc = r[("passive", 1)][-1]
        r[("passive", 1)][-1] = (q, acc - 1.0 / len(truth))

    for edit in (wrong_return, repeat_index, short_budget, wrong_label, wrong_accuracy):
        assert broken(edit), edit.__name__

    # an oracle class has no enumeration: the final accuracy is held to the
    # returned labeling, or else to being a whole count of correct points
    oracle_want = {"aced_waterfilled": {"final_is_returned": True}, "passive": {}}
    assert checks.check_bench_round(rows, records, None, truth, oracle_want) == []
    r = copy.deepcopy(rows)
    r[("aced_waterfilled", 1)][-1] = (6, r[("aced_waterfilled", 1)][-1][1] - 1.0 / len(truth))
    r[("passive", 1)][-1] = (6, 0.5 / len(truth))
    assert len(checks.check_bench_round(r, records, None, truth, oracle_want)) == 2


def test_fixed_confidence_checks_catch_corruption():
    inst = make_thresholds(8, 3, 1.0, seed=0)
    h_star = checks.best_hypothesis(inst.hypotheses.labelings, inst.labels.eta)
    rec = aced_fixed_confidence(inst, delta=0.1, seed=0, design_cache={})
    assert checks.check_fixed_confidence([rec], h_star) == (1, [])
    lost = copy.deepcopy(rec)
    lost.designs[0]["survivors"] = [s for s in lost.designs[0]["survivors"] if s != h_star]
    assert checks.check_fixed_confidence([lost], h_star)[1]
    rising = copy.deepcopy(rec)
    rising.eliminations = [1, 2]
    assert checks.check_fixed_confidence([rising], h_star)[1]
    wrong = copy.deepcopy(rec)
    wrong.returned = h_star + 1
    assert checks.check_fixed_confidence([wrong], h_star)[0] == 0


@pytest.mark.parametrize("make", [lambda: make_core_tail_instance(2),
                                  lambda: make_thresholds(8, 3, 0.5)])
def test_complexity_checks_catch_corruption(make):
    inst = make()
    L, eta, eps = inst.hypotheses.labelings, inst.labels.eta, 0.1
    rep = complexity_report(inst, eps, solver={"max_iters": 60, "max_batch": 256}, seed=0)
    assert checks.check_complexity(rep, L, eta, eps) == []
    rho_lo, rho_unif = checks.rho_bounds(L, eta, eps)
    psi_min, psi_unif = checks.psi_closed_form(L, eta, eps), checks.psi_uniform(L, eta, eps)
    gamma_lo = checks.gamma_lower_bound(L, eta, eps)

    def broken(measure, value):
        r = copy.deepcopy(rep)
        if measure == "theta":
            r.theta = value
        else:
            getattr(r, measure).value = value
        return checks.check_complexity(r, L, eta, eps)

    assert broken("theta", {x: t * 1.5 + 0.1 for x, t in rep.theta.items()})
    assert broken("psi_star", 0.9 * psi_min)
    assert broken("psi_star", 1.1 * psi_unif)
    assert broken("rho_star", 0.9 * rho_lo)
    assert broken("rho_star", 1.1 * rho_unif)
    assert broken("gamma_star", gamma_lo - 3.5 * rep.gamma_star.stderr - 1e-9)


def test_psi_closed_form_is_attained():
    inst = make_thresholds(8, 3, 0.5)
    L, eta, eps = inst.hypotheses.labelings, inst.labels.eta, 0.05
    _, h, S, den = checks._supports_and_floors(L, eta, eps)
    a = np.where(S, 1.0 / den[:, None], 0.0).max(axis=0)
    lam = a / a.sum()
    value = max(float(1.0 / (len(lam) * lam[i] * den[k])) for k in range(len(den)) for i in np.flatnonzero(S[k]))
    assert value == pytest.approx(checks.psi_closed_form(L, eta, eps))


def test_halfspace_realizability():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert checks.halfspace_realizable(X, [0, 1, 1, 1])
    assert checks.halfspace_realizable(X, [0, 0, 0, 0])
    assert checks.halfspace_realizable(X, [1, 1, 1, 1])
    assert not checks.halfspace_realizable(X, [0, 1, 1, 0])  # xor


def test_theta_matches_definition_on_a_grid():
    inst = make_thresholds(10, 4, 0.5)
    L, eta = inst.hypotheses.labelings, inst.labels.eta
    hs = L[checks.best_hypothesis(L, eta)]
    dist = (L != hs).mean(axis=1)
    for xi in (0.05, 0.1, 0.3):
        grid = np.linspace(xi, 1.0, 2001)
        brute = max(((L[dist <= r] != hs).any(axis=0).sum() / (L.shape[1] * r)) for r in grid)
        theta = checks.disagreement_coefficient(L, eta, xi)
        assert brute <= theta * (1 + 1e-12) and theta == pytest.approx(brute, rel=2e-3)
