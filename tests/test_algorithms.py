import json
import math
from functools import partial

import numpy as np
import pytest

from aced.algorithms import (
    P_MIN,
    RunRecord,
    _design_record,
    _iwal_probability,
    aced_fixed_budget,
    aced_fixed_budget_efficient,
    aced_fixed_confidence,
    aced_waterfilled,
    baseline_iwal,
    baseline_passive,
    baseline_uniform_disagreement,
)
from aced.complexity import make_core_tail_instance, make_thresholds
from aced.core import HypothesisClass, ImplicitClassError, Instance, LabelModel, Pool, gap_table
from aced.design import Design, gap_objective, smd_solve
from aced.oracles import LinearOracleClass


def fresh(maker, *args, **kw):
    return maker(*args, **kw)


def test_fixed_confidence_singleton_returns_immediately():
    inst = Instance(Pool(n=3), HypothesisClass(np.array([[0, 1, 0]])),
                    LabelModel(np.full(3, 0.5)))
    rec = aced_fixed_confidence(inst, delta=0.1, seed=0)
    assert rec.returned == 0 and len(rec.queries) == 0


def test_fixed_confidence_survivors_non_increasing_and_sound():
    cache = {}
    inst = make_thresholds(16, 7, 1.0, seed=0)
    gt = gap_table(inst.hypotheses, inst.labels)
    for seed in range(5):
        rec = aced_fixed_confidence(inst, delta=0.1, seed=seed, design_cache=cache)
        sizes = rec.eliminations
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert rec.returned == gt.h_star
        for entry in rec.designs:
            assert gt.h_star in entry["survivors"]


def test_fixed_confidence_determinism():
    inst = make_thresholds(8, 3, 1.0, seed=1)
    r1 = aced_fixed_confidence(inst, delta=0.2, seed=7)
    inst2 = make_thresholds(8, 3, 1.0, seed=1)
    r2 = aced_fixed_confidence(inst2, delta=0.2, seed=7)
    assert r1.to_jsonl() == r2.to_jsonl()


def test_fixed_confidence_flags_rounds_cut_to_the_query_cap(monkeypatch):
    import aced.algorithms as alg

    inst = make_thresholds(8, 3, 1.0, seed=1)
    free = aced_fixed_confidence(inst, delta=0.2, seed=7)
    assert "round_queries_capped" not in free.flags
    for cap in (1, 40, 100):
        monkeypatch.setattr(alg, "MAX_ROUND_QUERIES", cap)
        rec = aced_fixed_confidence(inst, delta=0.2, seed=7)
        wanted = [max(1, math.ceil(d["value"] * 2 ** (2 * (d["round"] + 1)))) for d in rec.designs]
        assert [d["N"] for d in rec.designs] == [min(w, cap) for w in wanted]
        cut = sum(w > cap for w in wanted)
        assert cut >= 1 and rec.flags["round_queries_capped"] == cut


def test_fixed_confidence_counts_infeasible_rounds(monkeypatch):
    import aced.algorithms as alg

    inst = make_thresholds(8, 3, 0.6, seed=1)
    run = lambda: aced_fixed_confidence(inst, delta=0.2, round_cap=3, seed=0)
    assert run().flags["infeasible_rounds"] == 0
    chaining = alg.chaining_estimate

    def round_one_infeasible(labelings, log, lam, delta, **kwargs):
        est = chaining(labelings, log, lam, delta, **kwargs)
        if log.round[0] == 1:
            est.flags["feasible"] = False
        return est

    monkeypatch.setattr(alg, "chaining_estimate", round_one_infeasible)
    rec = run()
    assert rec.flags["rounds"] >= 2 and rec.flags["infeasible_rounds"] == 1


def test_algorithms_and_curve_scoring_build_no_query_records(monkeypatch):
    from aced import bench
    from aced.estimators import QueryRecord

    made = []
    init = QueryRecord.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(QueryRecord, "__init__", counting)
    QueryRecord(1, 0, 0.5, 1)
    assert len(made) == 1  # the counter sees a construction
    made.clear()
    inst = make_thresholds(8, 3, 0.6, seed=1)
    recs = [aced_fixed_confidence(inst, delta=0.2, round_cap=3, seed=0)]
    recs += [aced_fixed_budget(inst, T=24, epsilon=0.25, estimator_kind=kind, seed=0)
             for kind in ("naive", "ips", "chaining")]
    points = [bench._curve_points(inst, rec) for rec in recs]
    assert all(len(rec.queries) for rec in recs) and all(points)
    assert made == []


def test_fixed_budget_single_round_when_eps_half():
    inst = make_thresholds(8, 3, 1.0, persistent=True, seed=0)
    rec = aced_fixed_budget(inst, T=24, epsilon=0.5, estimator_kind="naive", seed=0)
    assert rec.flags.get("rounds") is None  # no such flag; rounds from designs
    assert len(rec.designs) == 1 and rec.designs[0]["N"] == 24


def test_fixed_budget_single_round_when_eps_between_half_and_one():
    # log2(1 / 0.75) < 1, so the round count is raised to one
    inst = make_thresholds(8, 3, 1.0, persistent=True, seed=0)
    rec = aced_fixed_budget(inst, T=24, epsilon=0.75, estimator_kind="naive", seed=0)
    assert len(rec.designs) == 1 and rec.designs[0]["N"] == 24
    assert len(rec.queries) == 24 and {q.round for q in rec.queries} == {1}


def test_fixed_budget_budget_too_small():
    inst = make_thresholds(8, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        aced_fixed_budget(inst, T=2, epsilon=0.1, estimator_kind="naive", seed=0)


def test_fixed_budget_logs_probabilities_of_designs():
    inst = make_thresholds(8, 5, 1.0, persistent=True, seed=2)
    rec = aced_fixed_budget(inst, T=30, epsilon=0.25, estimator_kind="ips", seed=2)
    lam_by_round = {d["round"]: d["lam"] for d in rec.designs}
    for q in rec.queries:
        assert q.prob == pytest.approx(lam_by_round[q.round][q.index], abs=1e-12)
    assert np.unique(rec.queries.index).size <= 30


def test_fixed_budget_estimator_kinds_run():
    inst = make_thresholds(8, 5, 1.0, persistent=True, seed=3)
    for kind in ("naive", "ips", "chaining"):
        rec = aced_fixed_budget(inst, T=30, epsilon=0.25, estimator_kind=kind, seed=3)
        assert 0 <= rec.returned < 8
    with pytest.raises(ValueError):
        aced_fixed_budget(inst, T=30, epsilon=0.25, estimator_kind="other", seed=3)


def test_fixed_budget_determinism():
    mk = lambda: make_core_tail_instance(3, persistent=True, seed=5)
    r1 = aced_fixed_budget(mk(), T=24, epsilon=0.2, estimator_kind="naive", seed=9)
    r2 = aced_fixed_budget(mk(), T=24, epsilon=0.2, estimator_kind="naive", seed=9)
    assert r1.to_jsonl() == r2.to_jsonl()


def test_efficient_mixes_designs_and_covers_tails():
    inst = make_core_tail_instance(4, persistent=True, seed=1)
    rec = aced_fixed_budget_efficient(inst, T=60, epsilon=0.1, seed=1)
    d = rec.designs[0]
    lam = np.array(d["lam"])
    assert np.allclose(lam, 0.5 * (np.array(d["lam_gap"]) + np.array(d["lam_psi"])), atol=1e-12)
    # the worst-coordinate half forces mass on every tail coordinate
    assert lam[4:].min() >= 1.0 / (4 * 16)


def test_efficient_round_hashes_only_its_gap_design(monkeypatch):
    # the worst-coordinate design is a closed form: it needs no seed, so the
    # one content hash per round is the gap design's
    import aced.algorithms as alg

    tags = []
    content_seed = alg._content_seed
    monkeypatch.setattr(alg, "_content_seed", lambda *parts: tags.append(parts[0])
                        or content_seed(*parts))
    rec = aced_fixed_budget_efficient(make_core_tail_instance(3, persistent=True, seed=1),
                                      T=24, epsilon=0.2, seed=1)
    assert len(rec.designs) == 2 and tags == ["fbe1", "fbe1"]


def test_efficient_parity_with_ips_on_thresholds():
    wins_a = wins_b = 0
    for seed in range(20):
        inst = make_thresholds(16, 9, 1.0, persistent=True, seed=seed)
        gt = gap_table(inst.hypotheses, inst.labels)
        ra = aced_fixed_budget(inst, T=120, epsilon=0.2, estimator_kind="ips", seed=seed)
        rb = aced_fixed_budget_efficient(inst, T=120, epsilon=0.2, seed=seed)
        wins_a += ra.returned == gt.h_star
        wins_b += rb.returned == gt.h_star
    assert abs(wins_a - wins_b) <= 6  # same statistical ballpark


def test_waterfilled_requires_persistent_labels():
    inst = make_thresholds(8, 3, 1.0, persistent=False, seed=0)
    with pytest.raises(ValueError):
        aced_waterfilled(inst, T=8, epsilon=0.25, seed=0)


def test_waterfilled_budget_and_uniqueness():
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=4)
    rec = aced_waterfilled(inst, T=10, epsilon=0.25, N_batch=4, seed=4)
    idxs = [q.index for q in rec.queries]
    assert len(idxs) == len(set(idxs))  # fresh points only
    assert np.unique(rec.queries.index).size <= 10
    assert rec.flags["budget_unspent"] == 2  # 2 rounds of 4 draws leave 2 of T = 10


def test_waterfilled_pool_exhaustion_flag():
    inst = make_thresholds(4, 2, 1.0, persistent=True, seed=0)
    rec = aced_waterfilled(inst, T=64, epsilon=0.03125, N_batch=2, seed=0)
    assert rec.flags["pool_exhausted"]
    assert np.unique(rec.queries.index).size == 4
    assert "budget_unspent" not in rec.flags  # min(T, n) = 4 labels, all spent


def test_waterfilled_shortfall_is_flagged():
    # 3 rounds of at most 10 draws spend 30 of T = 40
    inst = make_thresholds(64, 30, 0.2, persistent=True, seed=1)
    rec = aced_waterfilled(inst, T=40, epsilon=0.125, N_batch=10)
    assert len(rec.queries) == 30
    assert rec.flags["budget_unspent"] == 10
    full = aced_waterfilled(inst, T=30, epsilon=0.125, N_batch=10)
    assert len(full.queries) == 30 and "budget_unspent" not in full.flags


def test_iid_fixed_budget_leftover_is_flagged():
    # three rounds of T // 3 i.i.d. draws leave T % 3 labels unspent
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=4)
    short = aced_fixed_budget(inst, T=10, epsilon=0.125, estimator_kind="naive")
    assert len(short.queries) == 9 and short.flags["budget_unspent"] == 1
    short = aced_fixed_budget_efficient(inst, T=11, epsilon=0.125)
    assert len(short.queries) == 9 and short.flags["budget_unspent"] == 2
    full = aced_fixed_budget(inst, T=9, epsilon=0.125, estimator_kind="naive")
    assert len(full.queries) == 9 and "budget_unspent" not in full.flags


@pytest.mark.parametrize("algorithm, kw, key", [
    (baseline_passive, {"T": -2}, "T"),  # once took permutation(n)[:-2]: 14 labels
    (baseline_passive, {"T": True}, "T"),  # once bought 1 label
    (baseline_uniform_disagreement, {"T": 2.5}, "T"),  # once a TypeError
    (aced_fixed_budget, {"T": 8.0, "epsilon": 0.25}, "T"),
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "N_batch": 1.5}, "N_batch"),  # once 9 labels
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "N_batch": 0}, "N_batch"),  # once 0 labels
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "N_batch": -3}, "N_batch"),
    # line_search_iters caps each oracle line search's calls (2.5 once failed
    # mid-run with a TypeError)
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "line_search_iters": 0}, "line_search_iters"),
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "line_search_iters": -3}, "line_search_iters"),
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "line_search_iters": True}, "line_search_iters"),
    (aced_waterfilled, {"T": 8, "epsilon": 0.25, "line_search_iters": 2.5}, "line_search_iters"),
    # round_cap: an integer >= 0 (2.5 once ran 3 rounds, -1 none, True one)
    (aced_fixed_confidence, {"delta": 0.1, "round_cap": 2.5}, "round_cap"),
    (aced_fixed_confidence, {"delta": 0.1, "round_cap": -1}, "round_cap"),
    (aced_fixed_confidence, {"delta": 0.1, "round_cap": True}, "round_cap"),
])
def test_bad_budgets_are_rejected(algorithm, kw, key):
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=4)
    with pytest.raises(ValueError, match=rf"^'{key}' must be"):
        algorithm(inst, seed=0, **kw)


def test_fixed_confidence_checks_round_cap_before_any_round(monkeypatch):
    solves = _counted_solves(monkeypatch)
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=4)
    with pytest.raises(ValueError, match="^'round_cap' must be"):
        aced_fixed_confidence(inst, delta=0.1, round_cap=2.5, seed=0)
    rec = aced_fixed_confidence(inst, delta=0.1, round_cap=0, seed=0)  # zero rounds stay legal
    assert solves == [] and rec.flags["rounds"] == 0 and rec.flags["round_cap_hit"]
    assert len(rec.queries) == 0 and rec.params["round_cap"] == 0


def test_waterfilled_solves_no_round_without_budget(monkeypatch):
    # round 1 draws N_batch = T = 6 labels, so round 2 has nothing to spend
    # and must break before its design solve
    import aced.algorithms as alg

    solves = []

    def counting_solve(*args, **kw):
        solves.append(1)
        return smd_solve(*args, **kw)

    monkeypatch.setattr(alg, "smd_solve", counting_solve)
    inst = make_thresholds(16, 7, 1.0, persistent=True, seed=1)
    rec = aced_waterfilled(inst, T=6, epsilon=0.1, N_batch=6, seed=0)
    assert len(rec.designs) == 1 and np.unique(rec.queries.index).size == 6
    assert len(solves) == 1


def test_waterfilled_single_uniform_round_is_passive_like():
    # eps = 0.5 gives one round; the recorded sampling probabilities are p_1
    inst = make_thresholds(8, 5, 1.0, persistent=True, seed=6)
    rec = aced_waterfilled(inst, T=4, epsilon=0.5, N_batch=4, seed=6)
    assert len(rec.designs) == 1
    p1 = np.array(rec.designs[0]["p_k"])
    assert p1.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p1, rec.designs[0]["lam"], atol=1e-12)


def test_waterfilled_oracle_backed_runs():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 2))
    w_true = np.array([1.0, -0.5])
    y = (X @ w_true > 0).astype(float)
    pool = Pool(n=24, features=X)
    inst = Instance(pool, HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(y, persistent=True, seed=0))
    rec = aced_waterfilled(inst, T=12, epsilon=0.25, N_batch=6, seed=0,
                           solver={"max_iters": 6, "b0": 2, "rel_tol": 0.5,
                                   "tol": 1e-3, "max_batch": 8},
                           line_search_iters=4)
    assert rec.returned == -1 and len(rec.returned_labeling) == 24
    acc = np.mean(np.array(rec.returned_labeling) == y)
    assert acc >= 0.75


def test_waterfilled_oracle_makes_no_capped_fits(monkeypatch):
    from aced import oracles

    converged = []
    fit = oracles._fit_logistic

    def counting_fit(*args, **kwargs):
        out = fit(*args, **kwargs)
        converged.append(out[2])
        return out

    monkeypatch.setattr(oracles, "_fit_logistic", counting_fit)
    test_waterfilled_oracle_backed_runs()
    # pinned: the oracle line-searches only max(b0, 2) = 2 draws per solve
    # iteration; round 1's searches (eta-hat = 1/2) make one fit each, and a
    # later search stops once its ratio stops rising
    assert len(converged) == 44 and all(converged)


def test_passive_full_budget_is_exact_erm():
    inst = make_thresholds(8, 3, 1.0, persistent=True, seed=1)
    gt = gap_table(inst.hypotheses, inst.labels)
    rec = baseline_passive(inst, T=8, seed=0)
    assert rec.returned == gt.h_star


def test_passive_zero_budget_defaults_to_first_hypothesis():
    inst = make_thresholds(6, 2, 1.0, seed=0)
    rec = baseline_passive(inst, T=0, seed=0)
    assert rec.returned == 0 and len(rec.queries) == 0


def test_uniform_disagreement_stops_on_empty_dis():
    inst = Instance(Pool(n=3), HypothesisClass(np.array([[0, 1, 0]])),
                    LabelModel(np.full(3, 0.5)))
    rec = baseline_uniform_disagreement(inst, T=10, seed=0)
    assert rec.returned == 0 and len(rec.queries) == 0
    assert rec.flags["certified"]


def test_uniform_disagreement_wastes_budget_on_tails():
    inst = make_core_tail_instance(4, persistent=True, seed=2)
    rec = baseline_uniform_disagreement(inst, T=60, delta=0.1, seed=2)
    tail_fraction = np.mean([q.index >= 4 for q in rec.queries])
    assert tail_fraction >= 0.6  # m^2/(m+m^2) = 0.8 in expectation
    assert not rec.flags["certified"]


def test_uniform_disagreement_matches_passive_on_easy_thresholds():
    # with enough budget the version space certifies and both are exact
    pw = bw = 0
    for seed in range(30):
        inst = make_thresholds(8, 5, 1.0, persistent=True, seed=seed)
        gt = gap_table(inst.hypotheses, inst.labels)
        pw += baseline_passive(inst, T=400, seed=seed).returned == gt.h_star
        rb = baseline_uniform_disagreement(inst, T=400, delta=0.1, seed=seed)
        bw += rb.returned == gt.h_star
    assert bw >= pw


def _counting_labels(inst):
    """Make inst's label source record each index it is queried at; returns that list."""
    drawn, query = [], inst.labels.query
    inst.labels.query = lambda i: drawn.append(i) or query(i)
    return drawn


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -1.0, math.nan])
def test_uniform_disagreement_rejects_delta_before_any_label(delta):
    inst = make_thresholds(16, 7, 0.5, persistent=True, seed=1)
    drawn = _counting_labels(inst)
    with pytest.raises(ValueError, match=r"^delta must be in \(0,1\)$"):
        baseline_uniform_disagreement(inst, T=20, delta=delta, seed=0)
    assert drawn == []
    assert len(baseline_uniform_disagreement(inst, T=20, delta=0.5, seed=0).queries) == len(drawn) > 0


def test_iwal_probability_rule_boundary():
    # zero loss gap always queries, whatever the aggressiveness
    for k in (2, 10, 500):
        assert _iwal_probability(0.0, k, 0.01, 1.0) == 1.0
    # continuity at the threshold
    import math

    k, C0 = 50, 0.05
    s = math.sqrt(C0 * math.log(k) / (k - 1))
    thr = s + s * s
    assert _iwal_probability(thr * 0.999, k, C0, 1.0) == 1.0
    assert _iwal_probability(thr * 1.001, k, C0, 1.0) < 1.0


@pytest.mark.parametrize("C0", [math.nan, math.inf, -1.0, -1e-300])
def test_iwal_rejects_c0_before_the_first_step(C0):
    inst = make_thresholds(16, 7, 0.5, persistent=True, seed=1)
    drawn = _counting_labels(inst)
    stream = iter(range(16))
    with pytest.raises(ValueError, match="^C0 must be a finite number >= 0"):
        baseline_iwal(inst, stream, C0=C0, seed=0)
    assert drawn == [] and next(stream) == 0


def test_iwal_accepts_c0_zero():
    # C0 = 0 gives zero slack, so a positive gap gets P_MIN
    assert _iwal_probability(3.0, 5, 0.0, 1.0) == P_MIN
    inst = make_thresholds(16, 7, 0.5, persistent=True, seed=1)
    rec = baseline_iwal(inst, range(16), C0=0.0, seed=0)
    assert rec.params["C0"] == 0.0 and len(rec.progress) == 16


@pytest.mark.parametrize("k", [1, 2, 10])
@pytest.mark.parametrize("aggressiveness", [0.5, 1.0])
def test_iwal_probability_at_zero_slack(k, aggressiveness):
    # a zero gap is queried surely at every slack, C0 = 0 included
    assert _iwal_probability(0.0, k, 0.0, aggressiveness) == 1.0
    assert _iwal_probability(0.3, k, 0.0, aggressiveness) == P_MIN


@pytest.mark.parametrize("C0", [0.0, 1e-12])
def test_iwal_queries_a_zero_gap_at_c0_zero_as_at_a_tiny_c0(C0):
    # every gap on this stream is 0 until the first label; at C0 = 0 the
    # P_MIN floor once came first, and no label was ever drawn
    inst = make_thresholds(16, 7, 0.5, persistent=True, seed=1)
    rec = baseline_iwal(inst, list(range(16)) * 2, C0=C0, seed=0)
    assert rec.queries.rows() == [(2, 1, 1.0, 0)]


def _oracle_instance(features=True):
    X = np.random.default_rng(2).standard_normal((6, 2))
    return Instance(Pool(n=6, features=X if features else None),
                    HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(np.full(6, 0.5), persistent=True, seed=1))


BAD_INPUT = [
    # each algorithm that enumerates the class names itself
    (lambda: aced_fixed_confidence(_oracle_instance(), 0.1), ImplicitClassError,
     "aced_fixed_confidence needs an explicitly enumerated class"),
    (lambda: aced_fixed_budget(_oracle_instance(), 8, 0.25), ImplicitClassError,
     "aced_fixed_budget needs an explicitly enumerated class"),
    (lambda: aced_fixed_budget_efficient(_oracle_instance(), 8, 0.25), ImplicitClassError,
     "aced_fixed_budget_efficient needs an explicitly enumerated class"),
    (lambda: baseline_uniform_disagreement(_oracle_instance(), 8), ImplicitClassError,
     "uniform_disagreement needs an explicitly enumerated class"),
    (lambda: baseline_iwal(_oracle_instance(), range(6), C0=0.1, variant="oracular1"),
     ImplicitClassError, "iwal variant 'oracular1' needs an explicitly enumerated class"),
    (lambda: baseline_iwal(_oracle_instance(features=False), range(6), C0=0.1), ValueError,
     "oracle-backed streaming needs pool features"),
    (lambda: aced_fixed_confidence(make_thresholds(8, 3, 1.0), 0.0), ValueError, "delta must be in (0,1)"),
    (lambda: aced_fixed_confidence(make_thresholds(8, 3, 1.0), 1.0), ValueError, "delta must be in (0,1)"),
    (lambda: aced_fixed_budget(make_thresholds(8, 3, 1.0), 8, 0.0), ValueError,
     "epsilon must be in (0,1)"),
    (lambda: aced_fixed_budget(make_thresholds(8, 3, 1.0), 8, 1.0), ValueError,
     "epsilon must be in (0,1)"),
]


@pytest.mark.parametrize("call, exc, fragment", BAD_INPUT, ids=[case[2] for case in BAD_INPUT])
def test_bad_algorithm_input_is_refused(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


def test_iwal_explicit_runs_and_dedups_stream():
    inst = make_thresholds(12, 7, 1.0, persistent=True, seed=3)
    stream = list(range(12)) * 2
    rec = baseline_iwal(inst, stream, C0=0.1, variant="iwal0", seed=3)
    assert 0 <= rec.returned < 12
    assert all(0 < q.prob <= 1 for q in rec.queries)


def test_iwal_flip_disagrees_at_stream_point():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(16, 2))
    y = (X[:, 0] > 0).astype(float)
    inst = Instance(Pool(n=16, features=X),
                    HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(y, persistent=True, seed=0))
    # the constructed flip hypothesis must disagree at every stream point
    # (asserted inside the implementation)
    rec = baseline_iwal(inst, list(range(16)), C0=0.1, variant="iwal0", seed=1)
    assert len(rec.returned_labeling) == 16


def test_iwal_c0_sweep_spreads_query_counts():
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=5)
    stream = list(range(16)) * 10
    counts = []
    for C0 in (1e-7, 1e-5, 1e-3, 1e-1, 1.0):
        rec = baseline_iwal(inst, stream, C0=C0, variant="iwal0", seed=5)
        counts.append(max(len(rec.queries), 1))
    assert max(counts) / min(counts) > 10.0


def test_iwal_variants_run():
    inst = make_thresholds(10, 4, 1.0, persistent=True, seed=6)
    stream = list(range(10)) * 2
    outs = {}
    for variant in ("iwal0", "iwal1", "oracular0", "oracular1"):
        rec = baseline_iwal(inst, stream, C0=0.01, variant=variant, seed=6)
        outs[variant] = rec.returned
    assert set(outs) == {"iwal0", "iwal1", "oracular0", "oracular1"}
    with pytest.raises(ValueError):
        baseline_iwal(inst, stream, C0=0.01, variant="bogus", seed=6)


def test_runrecord_serialization_round_trip():
    inst = make_thresholds(8, 3, 1.0, persistent=True, seed=0)
    rec = aced_fixed_budget(inst, T=12, epsilon=0.25, estimator_kind="naive", seed=1)
    line = rec.to_jsonl()
    back = RunRecord.from_jsonl(line)
    assert back.to_jsonl() == line
    assert back.queries == rec.queries


def test_design_from_an_all_zero_batch_reports_no_certificate():
    # the live score is a negative multiple of z_0 and seed 3's first 2-draw
    # batch has z_0 > 0: a solve capped at 3 iterations returns the uniform
    # start, proposed by iteration 1 on that all-zero batch
    obj = gap_objective(np.array([[0, 0], [1, 0]], dtype=np.int8), np.array([0.2, 0.6]), 0, 0.5)
    rep = smd_solve(obj, tol=1e-3, b0=2, seed=3, max_iters=3)
    assert rep.stop_reason == "cap" and np.array_equal(rep.design.lam, [0.5, 0.5])
    assert rep.certificate == math.inf  # not 0.0: an all-zero batch proves nothing
    rec = RunRecord(algorithm="aced_waterfilled", seed=0, params={})
    rec.designs.append(_design_record(1, rep, {}))

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    assert json.loads(rec.to_jsonl(), parse_constant=reject)["designs"][0]["certificate"] is None


def test_budget_accounting_all_fixed_budget_variants():
    inst = make_core_tail_instance(3, persistent=True, seed=7)
    T = 24
    for runner in (
        lambda: aced_fixed_budget(inst, T=T, epsilon=0.2, estimator_kind="naive", seed=7),
        lambda: aced_fixed_budget_efficient(inst, T=T, epsilon=0.2, seed=7),
        lambda: aced_waterfilled(make_core_tail_instance(3, persistent=True, seed=7),
                                 T=T, epsilon=0.2, N_batch=5, seed=7),
        lambda: baseline_passive(inst, T=T, seed=7),
        lambda: baseline_uniform_disagreement(inst, T=T, seed=7),
    ):
        rec = runner()
        assert np.unique(rec.queries.index).size <= T


def test_passive_success_monotone_in_budget():
    # Monte Carlo: expected accuracy of the returned hypothesis grows with T
    from aced.bench import _score

    rates = []
    for T in (2, 5, 10):
        hits = 0
        for seed in range(40):
            inst = make_thresholds(10, 6, 1.0, persistent=True, seed=seed)
            gt = gap_table(inst.hypotheses, inst.labels)
            hits += baseline_passive(inst, T=T, seed=seed).returned == gt.h_star
        rates.append(hits)
    assert rates[0] <= rates[1] + 3 and rates[1] <= rates[2] + 3
    assert rates[2] >= rates[0]


def test_fixed_budget_full_coverage_matches_observed_erm():
    # persistent noise + every disagreement coordinate observed: the
    # returned hypothesis is the ERM on the realized labels
    inst = make_thresholds(8, 3, 1.0, persistent=True, seed=11)
    rec = aced_fixed_budget(inst, T=600, epsilon=0.25, estimator_kind="naive", seed=11)
    seen = {q.index for q in rec.queries}
    H = inst.hypotheses.labelings
    dis = set(np.flatnonzero(np.any(H != H[0][None, :], axis=0)).tolist())
    assert dis <= seen  # every disagreement coordinate observed
    truth = inst.labels.realized_labels()
    errs = (H != truth[None, :]).mean(axis=1)
    assert rec.returned == int(np.argmin(errs))


def test_waterfilled_default_batch_is_quarter_pool():
    inst = make_thresholds(16, 9, 1.0, persistent=True, seed=0)
    rec = aced_waterfilled(inst, T=8, epsilon=0.5, seed=0)
    assert rec.params["N_batch"] == min(250, 16 // 4)


def test_iwal_oracle_counts_capped_fits_without_warning(monkeypatch):
    import warnings

    from aced import oracles

    capped = []
    fit = oracles._fit_logistic

    def counting_fit(X, w, y, reg, tol, max_iter, **kwargs):
        # one Newton step: Newton never caps on this instance, so force it
        out = fit(X, w, y, reg, tol, 1, **kwargs)
        capped.append(not out[2])
        return out

    monkeypatch.setattr(oracles, "_fit_logistic", counting_fit)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * (X[:, 0] - 0.5 * X[:, 1])))
    inst = Instance(Pool(n=5, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(eta, persistent=True, seed=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = baseline_iwal(inst, list(range(5)), C0=0.1, variant="iwal0", seed=1)
    assert not caught
    assert rec.flags["logistic_cap_hits"] == sum(capped) > 0


def test_iwal_oracle_refits_the_erm_only_after_a_query(monkeypatch):
    # the unconstrained ERM is a pure function of the queried sample, which
    # changes only when a point is queried: one fit per distinct sample
    from aced import oracles

    samples = []
    erm = oracles.erm_logistic

    def spy(X, w, y, theta0=None):
        samples.append((X.tobytes(), w.tobytes(), y.tobytes()))
        return erm(X, w, y, theta0=theta0)

    monkeypatch.setattr(oracles, "erm_logistic", spy)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * (X[:, 0] - 0.5 * X[:, 1])))
    inst = Instance(Pool(n=10, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(eta, persistent=True, seed=3))
    stream = np.concatenate([rng.permutation(10) for _ in range(3)])
    rec = baseline_iwal(inst, stream, C0=0.01, seed=14)
    first = int(rec.queries.round[0])  # the step of the first query
    assert 0 < len(samples) == len(set(samples)) <= len(rec.queries)
    assert len(samples) < len(stream) - first


def test_iwal_oracle_warm_refits_give_the_cold_run(monkeypatch):
    # each ERM refit starts from the last ERM. On this pool a query
    # contradicts a large-norm fit of a separable sample, where the loss is
    # flat and Newton stalls; the refit begins again from zero, so the run
    # is the one cold refits make
    from aced import oracles

    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2))
    u = rng.standard_normal(2)
    eta = 1.0 / (1.0 + np.exp(-2.0 * (X @ (u / np.linalg.norm(u)))))
    stream_rng = np.random.default_rng([7, 17])
    stream = np.concatenate([stream_rng.permutation(40) for _ in range(2)])

    def run():
        inst = Instance(Pool(n=40, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                        LabelModel(eta, persistent=True, seed=7))
        return baseline_iwal(inst, stream, C0=0.01, seed=7).to_jsonl()

    warm = run()
    erm = oracles.erm_logistic
    monkeypatch.setattr(oracles, "erm_logistic", lambda X, w, y, theta0=None: erm(X, w, y))
    assert run() == warm


@pytest.mark.parametrize("variant", ["oracular0", "oracular1"])
def test_iwal_oracular_rejects_oracle_backed_class(variant):
    # the oracular variants score every hypothesis on the revealed labels
    X = np.random.default_rng(2).standard_normal((5, 2))
    inst = Instance(Pool(n=5, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(np.full(5, 0.5), persistent=True, seed=1))
    with pytest.raises(ImplicitClassError):
        baseline_iwal(inst, list(range(5)), C0=0.1, variant=variant, seed=1)


def test_fixed_confidence_warm_run_does_no_design_work(monkeypatch):
    # nor builds a sampling CDF: each cached design keeps the one its first
    # draw built (Design._cdf's builder is counted as "func"); nor builds
    # slab rows: each cached chaining plan keeps its rows and ridge weights
    import aced.algorithms as alg
    import aced.estimators as est

    inst = make_thresholds(16, 7, 1.0, seed=0)
    cache = {}
    first = aced_fixed_confidence(inst, delta=0.1, seed=3, design_cache=cache)
    calls = []
    for owner, name in ((alg, "smd_solve"), (est, "build_admissible_sequence"),
                        (alg, "_content_seed"), (Design._cdf, "func"), (est, "_slab_rows")):
        def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    again = aced_fixed_confidence(inst, delta=0.1, seed=3, design_cache=cache)
    assert calls == [] and again.to_jsonl() == first.to_jsonl()
    aced_fixed_confidence(inst, delta=0.1, seed=3, design_cache={})  # the counters see a cold run
    assert calls.count("func") == len(first.designs) and calls.count("smd_solve") == len(first.designs)
    assert calls.count("_slab_rows") == len(first.designs)


def _replayed_indices(rec, n):
    """Each round's indices redrawn from the record alone: Generator.choice
    on the round's seed, design and draw count."""
    return [np.random.default_rng([rec.seed, d["round"]]).choice(n, size=d["N"], p=np.array(d["lam"]))
            for d in rec.designs]


@pytest.mark.parametrize("run", ["fixed_confidence", "fixed_budget", "efficient"])
def test_iid_runs_replay_from_their_records(run):
    inst = make_thresholds(16, 7, 1.0, seed=0)
    rec = {"fixed_confidence": lambda: aced_fixed_confidence(inst, delta=0.1, seed=11),
           "fixed_budget": lambda: aced_fixed_budget(inst, T=60, epsilon=0.1, seed=11),
           "efficient": lambda: aced_fixed_budget_efficient(inst, T=60, epsilon=0.1, seed=11)}[run]()
    back = RunRecord.from_jsonl(rec.to_jsonl())
    assert len(back.designs) >= 2
    for d, idx in zip(back.designs, _replayed_indices(back, inst.n)):
        np.testing.assert_array_equal(back.queries.index[back.queries.round == d["round"]], idx)
    assert back.queries == rec.queries


def test_fixed_confidence_cache_keys_on_solver_params_and_round():
    # delta 0.4 in round 2 and delta 0.1 in round 1 share delta_k = 0.05,
    # and here round 1 at delta 0.4 keeps every hypothesis: the two rounds
    # solve one design but draw different query counts
    inst = lambda: make_thresholds(8, 3, 0.4, seed=0)  # fresh label draws per run
    runs = [(delta, solver, seed) for delta in (0.4, 0.1)
            for solver in ({"max_iters": 2}, None) for seed in (0, 1)]
    cache = {}
    shared = [aced_fixed_confidence(inst(), delta=d, seed=seed, solver=s, design_cache=cache)
              for d, s, seed in runs]
    fresh = [aced_fixed_confidence(inst(), delta=d, seed=seed, solver=s) for d, s, seed in runs]
    assert [r.to_jsonl() for r in shared] == [r.to_jsonl() for r in fresh]
    m = inst().hypotheses.size
    assert [len(r.designs[0]["survivors"]) for r in fresh[:4:2]] == [m, m]


def _counted_solves(monkeypatch):
    """The list that gets one entry per smd_solve call of the algorithms module."""
    import aced.algorithms as alg

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return smd_solve(*args, **kwargs)

    monkeypatch.setattr(alg, "smd_solve", counted)
    return calls


FIXED_BUDGET_RUNS = {
    "naive": (aced_fixed_budget, {"T": 60, "epsilon": 0.1, "estimator_kind": "naive"}),
    "ips": (aced_fixed_budget, {"T": 60, "epsilon": 0.1, "estimator_kind": "ips"}),
    "efficient": (aced_fixed_budget_efficient, {"T": 60, "epsilon": 0.1}),
    "waterfilled": (aced_waterfilled, {"T": 12, "epsilon": 0.1, "N_batch": 4}),
}


@pytest.mark.parametrize("variant", FIXED_BUDGET_RUNS)
def test_fixed_budget_warm_repeat_solves_nothing(monkeypatch, variant):
    # a second identical run, on a freshly built instance, reads every round
    # solve from the memo and replays the cold run byte for byte
    import aced.algorithms as alg

    algo, params = FIXED_BUDGET_RUNS[variant]
    calls = _counted_solves(monkeypatch)
    cold = algo(make_core_tail_instance(4, persistent=True, seed=3), seed=5, **params)
    assert len(calls) == len(cold.designs)
    calls.clear()
    warm = algo(make_core_tail_instance(4, persistent=True, seed=3), seed=5, **params)
    assert calls == [] and warm.to_jsonl() == cold.to_jsonl()
    # a memoized design refuses in-place writes
    assert not any(rep.design.lam.flags.writeable for rep in alg._ROUND_SOLVES.values())


MEMO_RUNS = dict(FIXED_BUDGET_RUNS, chaining=(
    aced_fixed_budget, {"T": 60, "epsilon": 0.1, "estimator_kind": "chaining"}))
del MEMO_RUNS["ips"]
MEMO_POOLS = {"thresholds": partial(make_thresholds, 16, 7, 0.6, persistent=True, seed=2),
              "core_tail": partial(make_core_tail_instance, 3, persistent=True, seed=7)}


@pytest.mark.parametrize("pool", MEMO_POOLS)
@pytest.mark.parametrize("variant", ["naive", "chaining", "efficient", "waterfilled"])
def test_round_memo_changes_no_record(monkeypatch, variant, pool):
    # every seed's record is the same with the memo warm (here it holds
    # every round solve of the seeds run before) and after clearing it
    import aced.algorithms as alg

    algo, params = MEMO_RUNS[variant]
    inst = MEMO_POOLS[pool]()
    seeds = range(4)
    for seed in seeds:  # fills the memo
        algo(inst, seed=seed, **params)
    calls = _counted_solves(monkeypatch)
    warm = [algo(inst, seed=seed, **params).to_jsonl() for seed in seeds]
    assert calls == [] and len(alg._ROUND_SOLVES) > 0
    for seed, line in zip(seeds, warm):
        alg._ROUND_SOLVES.clear()
        assert algo(inst, seed=seed, **params).to_jsonl() == line
    assert len(calls) >= len(seeds)


THRESHOLDS_8 = np.array([[int(i >= t) for i in range(8)] for t in range(9)])
SOLVER_CHANGES = {"max_iters": 7, "b0": 8, "eval_samples": 64}


@pytest.mark.parametrize("change", [*SOLVER_CHANGES, "labels", "eta_hat"])
def test_round_memo_misses_where_the_solve_differs(monkeypatch, change):
    # two rounds of aced_fixed_budget. A solver setting is outside the seed's
    # content key but keys every memo entry; labels reach the key from round
    # 2 on, through eta-hat; a starting eta-hat one ulp away keys round 1
    import aced.algorithms as alg
    from aced.estimators import EtaEstimate

    def run(flipped=False, eta_hat=0.0, solver=None):
        eta = ((np.arange(8) >= 3) != flipped).astype(float)
        inst = Instance(Pool(n=8), HypothesisClass(THRESHOLDS_8),
                        LabelModel(eta, persistent=True, seed=0))
        rec = RunRecord(algorithm="aced_fixed_budget", seed=2, params={})
        start = EtaEstimate(values=np.full(8, eta_hat), counts=np.zeros(8, dtype=int))
        return alg._fixed_budget_loop(inst, rec, 24, 0.25, start, estimator_kind="naive",
                                      solver=solver)

    if change == "labels":
        changed = partial(run, flipped=True)
    elif change == "eta_hat":
        changed = partial(run, eta_hat=np.nextafter(0.0, 1.0))
    else:
        changed = partial(run, solver={change: SOLVER_CHANGES[change]})
    calls = _counted_solves(monkeypatch)
    cold = changed()
    assert len(calls) == 2
    alg._ROUND_SOLVES.clear()
    base = run()
    calls.clear()
    warm = changed()
    # only the labels change leaves round 1 (the prior eta-hat) as it was
    assert len(calls) == 2 - (change == "labels")
    assert warm.to_jsonl() == cold.to_jsonl()
    assert warm.to_jsonl() != base.to_jsonl()


def test_oracle_backed_rounds_bypass_the_round_memo():
    import aced.algorithms as alg

    aced_fixed_budget(make_core_tail_instance(3, persistent=True, seed=1), T=24, epsilon=0.25,
                      seed=1)
    size = len(alg._ROUND_SOLVES)
    assert size > 0
    X = np.random.default_rng(0).normal(size=(12, 2))
    inst = Instance(Pool(n=12, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel((X[:, 0] > 0).astype(float), persistent=True, seed=0))
    rec = aced_waterfilled(inst, T=8, epsilon=0.25, N_batch=4, seed=0,
                           solver={"max_iters": 2, "b0": 2, "max_batch": 4}, line_search_iters=2)
    assert len(rec.designs) == 2 and len(alg._ROUND_SOLVES) == size


def test_round_memo_keeps_the_most_recently_used_solves(monkeypatch):
    # one-round runs, one distinct solve each (tol is in the "fb" key); past
    # the bound the least recently used entry goes, and a hit counts as a use
    import aced.algorithms as alg

    inst = Instance(Pool(n=8), HypothesisClass(THRESHOLDS_8),
                    LabelModel((np.arange(8) >= 3).astype(float), persistent=True, seed=0))

    def run(i):
        solver = {"tol": 1e-3 * (1 + i / 1024), "max_iters": 1}
        return aced_fixed_budget(inst, T=4, epsilon=0.5, seed=0, solver=solver)

    calls = _counted_solves(monkeypatch)
    kept = alg.ROUND_SOLVES_KEPT
    for i in range(kept + 3):
        run(i)
    assert len(calls) == kept + 3 and len(alg._ROUND_SOLVES) == kept
    calls.clear()
    run(3)  # the least recently used entry: a hit, which makes it the most recent
    run(kept + 3)  # a new solve evicts entry 4, not entry 3
    run(3)
    assert len(calls) == 1
    run(4)
    run(2)  # evicted by the first overflow
    assert len(calls) == 3 and len(alg._ROUND_SOLVES) == kept
