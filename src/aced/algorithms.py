"""Active-classification algorithms and baselines.

The fixed-confidence eliminator, three fixed-budget variants sharing
one round loop (the naive/IPS/chaining form, the mixed-design form, and
the practical waterfilled form for persistent labels), plus passive,
uniform-disagreement, and streaming importance-weighted baselines.
Every run yields a RunRecord sufficient to replay it bit-for-bit.

A fixed-budget round solve on an explicit class is a pure function of
the round's content and the solver settings, so the process keeps the
ROUND_SOLVES_KEPT most recently used ones and a repeat (round 1 of every
seed, or a later round that reaches the same eta-hat) reads its design
from there.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .core import Instance, check_integer, disagreement_region
from .design import (
    Design,
    gap_objective,
    oracle_gap_objective,
    pair_width_objective,
    psi_design,
    sample_unique,
    smd_solve,
    waterfill,
)
from .estimators import (
    EtaEstimate,
    QueryLog,
    chaining_estimate,
    chaining_plan,
    estimated_errors_all,
    ips_estimate,
    naive_estimate,
)
from .oracles import weighted_max

DEFAULT_SOLVER = {"tol": 1e-3, "rel_tol": 0.1, "b0": 16, "max_iters": 150, "max_batch": 256}
# aced_fixed_confidence's round k draws C_BUDGET * value * 4^(k+1) samples, capped
C_BUDGET = 1.0
MAX_ROUND_QUERIES = 1_000_000
# confidence of the fixed-budget chaining estimator in every round
CHAINING_DELTA = 0.1
# IWAL's floor on the query probability
P_MIN = 1e-6
# the explicit-class round solves of the fixed-budget family, keyed on
# (content digest, solver settings), least recently used first; at most
# ROUND_SOLVES_KEPT are kept. An entry is a pure function of its key, so
# two threads that race on one key at worst solve it twice.
ROUND_SOLVES_KEPT = 256
_ROUND_SOLVES = OrderedDict()


@dataclass(eq=False)
class RunRecord:
    """Full query log plus per-round designs and reports for one run.

    queries is a columnar QueryLog; its JSON form is the list of
    [round, index, prob, label] rows in query order.
    """

    algorithm: str
    seed: int
    params: dict
    queries: QueryLog = field(default_factory=QueryLog)
    designs: list = field(default_factory=list)
    eliminations: list = field(default_factory=list)
    progress: list = field(default_factory=list)  # (round, unique queries, hypothesis)
    returned: int = 0
    returned_labeling: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["queries"] = self.queries.rows()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_jsonl(cls, line: str) -> "RunRecord":
        d = json.loads(line)
        d["queries"] = QueryLog.from_rows(d["queries"])
        d["progress"] = [tuple(p) for p in d["progress"]]
        return cls(**d)


def _content_seed(*parts) -> tuple:
    """(seed, digest): the SHA-256 digest of the parts (an array by its bytes
    and shape, anything else by its repr) and the solver seed cut from it,
    its first 8 bytes read big-endian."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(p.tobytes())
            h.update(str(p.shape).encode())
        else:
            h.update(repr(p).encode())
    digest = h.digest()
    return int.from_bytes(digest[:8], "big"), digest


def _design_record(k, rep, extra) -> dict:
    """The RunRecord.designs entry of round k, solved as rep, with extra keys."""
    return {
        "round": k,
        "lam": rep.design.lam.tolist(),
        "value": rep.value_estimate,
        "certificate": rep.certificate if math.isfinite(rep.certificate) else None,
        "converged": rep.converged, "stop_reason": rep.stop_reason,
        **extra,
    }


def _round_log(k, idx, probs, ys) -> QueryLog:
    """The QueryLog of round k, built from its parallel arrays: pool
    indices, their sampling probabilities and the observed labels."""
    return QueryLog(np.full(len(idx), k), idx, probs, ys)


def _fc_round_design(H_active, delta_k: float, k: int, solver_params: dict) -> tuple:
    """Everything fixed-confidence round k needs before it draws a label:
    (solver report, wanted query count, query count n_k after the cap,
    chaining plan for n_k queries, H_active as float64 for
    estimated_errors_all, the round's design record less its survivors).
    A pure function of its arguments; the solver seed derives from
    (H_active, delta_k, tol)."""
    seed, _ = _content_seed("fc", H_active, delta_k, solver_params["tol"])
    rep = smd_solve(pair_width_objective(H_active, delta_k), seed=seed, **solver_params)
    wanted = max(1, math.ceil(C_BUDGET * rep.value_estimate * 2 ** (2 * (k + 1))))
    n_k = int(min(wanted, MAX_ROUND_QUERIES))
    return (rep, wanted, n_k, chaining_plan(H_active, rep.design.lam, n_k, delta_k),
            H_active.astype(float), _design_record(k, rep, {"N": n_k, "delta_k": delta_k}))


def aced_fixed_confidence(
    instance: Instance,
    delta: float,
    round_cap: int = 40,
    solver: dict | None = None,
    design_cache: dict | None = None,
    seed: int = 0,
) -> RunRecord:
    """Elimination with per-round optimized designs at confidence delta.

    Each round solves the pair-width design, queries enough samples to
    halve the resolved gap scale (C_BUDGET times the design value times
    4^(k+1)), re-estimates with the feasibility estimator at
    delta_k = delta / (2 k^2), and drops every hypothesis beaten by more
    than the current scale. Stops at a singleton or at the round cap (then
    returns the plug-in minimizer, flagged). A round whose query count was
    cut to MAX_ROUND_QUERIES is counted in flags["round_queries_capped"],
    present only when some round was cut. A round_cap that check_budget
    rejects raises ValueError before any round. rec.queries joins the
    round logs once, after the last round.

    A design_cache entry holds every label-free input of a round
    (_fc_round_design): the solver report, the wanted and capped query
    counts, the chaining plan (slab rows, ridge weights and signs at 13
    bytes per nonzero, and the fallback's denominator), the active rows as
    float64 and the round's design record less its survivors. Its key is
    ("fc", shape and bytes of the active rows, delta_k, k, solver
    settings): the bytes hash exactly, so a cache shared across instances,
    deltas or solver settings returns only what a fresh solve would. A hit
    costs one lookup and then only draws, queries, estimates (two segment
    sums) and eliminates: the design keeps its sampling CDF
    (Design.sample), and the record is copied with its own lam list.
    """
    check_budget({"round_cap": round_cap})
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    H = instance.hypotheses.enumerated("aced_fixed_confidence")
    solver_params = dict(DEFAULT_SOLVER, **(solver or {}))
    settings = tuple(sorted(solver_params.items()))
    cache = {} if design_cache is None else design_cache
    rec = RunRecord(algorithm="aced_fixed_confidence", seed=seed,
                    params={"delta": delta, "c_budget": C_BUDGET, "round_cap": round_cap})
    active = np.arange(H.shape[0])
    errs = np.zeros(active.size)
    k = 0
    infeasible_rounds = 0
    capped_rounds = 0
    queried = np.zeros(H.shape[1], dtype=bool)
    round_logs = []
    while active.size > 1 and k < round_cap:
        k += 1
        delta_k = delta / (2.0 * k * k)
        H_active = H[active]
        key = ("fc", H_active.shape, H_active.tobytes(), delta_k, k, settings)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = _fc_round_design(H_active, delta_k, k, solver_params)
        rep, wanted, n_k, plan, H_float, record = entry
        lam = rep.design.lam
        capped_rounds += wanted > MAX_ROUND_QUERIES
        idx = rep.design.sample(n_k, np.random.default_rng([seed, k]))
        ys = instance.labels.query_many(idx)
        round_log = _round_log(k, idx, lam[idx], ys)
        round_logs.append(round_log)
        queried[idx] = True
        est = chaining_estimate(H_active, round_log, lam, delta_k, plan=plan)
        if not est.flags.get("feasible", True):
            infeasible_rounds += 1
        errs = estimated_errors_all(H_float, est)
        keep = errs < errs.min() + 2.0 ** (-(k + 1))
        active = active[keep]
        errs = errs[keep]
        rec.designs.append({**record, "lam": list(record["lam"]), "survivors": active.tolist()})
        rec.eliminations.append(int(active.size))
        best = int(active[int(np.argmin(errs))])
        rec.progress.append((k, int(np.count_nonzero(queried)), best))
    rec.queries = QueryLog.concat(round_logs)
    rec.returned = int(active[int(np.argmin(errs))])
    rec.flags["certified"] = bool(active.size == 1)
    if active.size > 1:
        rec.flags["round_cap_hit"] = True
    rec.flags["rounds"] = k
    rec.flags["infeasible_rounds"] = infeasible_rounds
    if capped_rounds:
        rec.flags["round_queries_capped"] = capped_rounds
    rec.returned_labeling = H[rec.returned].tolist()
    return rec


def check_budget(budget: dict) -> None:
    """Reject a label budget no run can spend, a round cap no loop can
    count to, or an oracle line search that may ask nothing, as a
    ValueError whose message starts with the quoted key: T and round_cap
    are integers >= 0, N_batch (unless None) and line_search_iters
    integers >= 1, and bools are refused. A key not given is not checked."""
    for key, low in (("T", 0), ("round_cap", 0), ("N_batch", 1), ("line_search_iters", 1)):
        if budget.get(key) is not None:
            check_integer(repr(key), budget[key], low)


def _fixed_budget_rounds(T: int, epsilon: float) -> tuple:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0,1)")
    rounds = max(1, int(math.floor(math.log2(1.0 / epsilon))))  # 1 for epsilon in (1/2, 1)
    if T < rounds:
        raise ValueError(f"budget {T} smaller than the number of rounds {rounds}")
    return rounds, T // rounds


def _prior_estimate(n: int) -> EtaEstimate:
    """eta-hat_0 = 0: every hypothesis judged by its size."""
    return EtaEstimate(values=np.zeros(n), counts=np.zeros(n, dtype=int))


def _max_labeling(hclass, w):
    """The weighted-max hypothesis under weights w, as (handle, labeling)."""
    handle, _ = weighted_max(hclass, w)
    return handle, hclass.labeling(handle)


def _erm_handle(hclass, est):
    """Plug-in ERM under eta-hat, as (handle, labeling): the plug-in error is
    minimized where the weights 2 eta-hat - 1 are maximized (for an explicit
    class, ties go to the lowest index)."""
    return _max_labeling(hclass, 2.0 * est.values - 1.0)


def _fixed_budget_loop(instance, rec, T, epsilon, est, *, estimator_kind, solver, mix_psi=False,
                       N_batch=None, line_search_iters=20):
    """The round loop of the fixed-budget family; fills in and returns rec.

    Round k anchors at the plug-in ERM of the estimate est, solves the gap
    design at scale 2^(1-k) (mixed 50/50 with the worst-coordinate design
    when mix_psi), samples, queries and re-estimates ("naive" over every
    label so far, "ips" or "chaining" over the round's draws). A round
    takes T // rounds i.i.d. draws or, given N_batch, waterfills the
    design and draws up to N_batch fresh points until T unique labels are
    spent or the pool runs out. The ERM is computed once per round, after
    estimating: it is the progress entry, the next anchor and the answer.
    A run that leaves labels unspent flags their number as budget_unspent:
    T % rounds for i.i.d. rounds, min(T, n) - spent for a waterfilled run
    (unique labels); a run that spent it all has no such key. A T or
    N_batch or line_search_iters that check_budget rejects raises
    ValueError before any round.

    The seed tags ("fb" with its trailing tol, "fbe1", "wf", "wf-oracle")
    stay verbatim because they seed the solver. The worst-coordinate design
    is solved in closed form from (H, eta-hat, anchor, scale), so it is not
    seeded.

    On an explicit class the round's SHA-256 digest of (tag, H, eta-hat,
    anchor, scale[, tol]) gives the seed (its first 8 bytes) and, with the
    merged solver settings, the key of the process-wide memo _ROUND_SOLVES:
    a hit skips the objective and the solve, and returns the same report a
    fresh solve would, its design keeping the sampling CDF that its first
    draw built (Design.sample). Oracle-backed rounds are always
    solved, since the maximizer's answers depend on the pool features and
    the fit settings, which their key does not hold.
    """
    hclass = instance.hypotheses
    n = instance.n
    check_budget({"T": T, "N_batch": N_batch, "line_search_iters": line_search_iters})
    solver_params = dict(DEFAULT_SOLVER, **(solver or {}))
    settings = tuple(sorted(solver_params.items()))
    rounds, N = _fixed_budget_rounds(T, epsilon)
    unique = N_batch is not None
    queried = np.zeros(n, dtype=bool)
    marginals = []
    if unique:
        rec.flags["pool_exhausted"] = False
    handle, anchor_lab = _erm_handle(hclass, est)
    for k in range(1, rounds + 1):
        if unique:  # a round with no budget or pool left solves nothing
            spent = int(np.count_nonzero(queried))
            want = min(N_batch, T - spent, n - spent)
            if want <= 0:
                rec.flags["pool_exhausted"] = spent >= n
                break
        eta, scale = est.values, 2.0 ** (-k + 1)
        if hclass.explicit:
            H, anchor = hclass.labelings, int(handle)
            tag = "wf" if unique else "fbe1" if mix_psi else "fb"
            key = (tag, H, eta, anchor, scale) + ((solver_params["tol"],) if tag == "fb" else ())
            seed, digest = _content_seed(*key)
            rep = _ROUND_SOLVES.pop((digest, settings), None)
            if rep is None:
                rep = smd_solve(gap_objective(H, eta, anchor, scale), seed=seed, **solver_params)
            _ROUND_SOLVES[digest, settings] = rep  # re-inserted: now the most recently used
            if len(_ROUND_SOLVES) > ROUND_SOLVES_KEPT:
                _ROUND_SOLVES.popitem(last=False)
        else:
            seed, _ = _content_seed("wf-oracle", anchor_lab, eta, scale)
            obj = oracle_gap_objective(n, anchor_lab, eta, scale, partial(_max_labeling, hclass),
                                       line_search_iters)
            rep = smd_solve(obj, seed=seed, **solver_params)
        design = rep.design
        if mix_psi:
            rep_psi = psi_design(H, eta, anchor, scale, floor_at_scale=False)
            design = Design(0.5 * (design.lam + rep_psi.design.lam))
        rng = np.random.default_rng([rec.seed, k])
        if unique:
            design = waterfill(rep.design.lam, marginals)
            marginals.append(design.lam)
            idx, fallback = sample_unique(design, want, np.flatnonzero(queried), rng=rng)
            if fallback:
                rec.flags["sampling_fallback"] = True
        else:
            idx = design.sample(N, rng)
        lam = design.lam
        ys = instance.labels.query_many(idx)
        round_log = _round_log(k, idx, lam[idx], ys)
        rec.queries = rec.queries + round_log
        queried[idx] = True
        if estimator_kind == "naive":
            est = naive_estimate(rec.queries, n)
        elif estimator_kind == "ips":
            est = ips_estimate(round_log, n)
        else:
            est = chaining_estimate(H, round_log, lam, CHAINING_DELTA)
        if mix_psi:
            rec.designs.append({
                "round": k, "lam": lam.tolist(), "lam_gap": rep.design.lam.tolist(),
                "lam_psi": rep_psi.design.lam.tolist(),
                "value_gap": rep.value_estimate, "value_psi": rep_psi.value_estimate,
                "N": N, "anchor": anchor, "stop_reason": rep.stop_reason,
            })
        elif unique:
            rec.designs.append(_design_record(k, rep, {"p_k": lam.tolist(), "N": len(idx)}))
        else:
            rec.designs.append(_design_record(k, rep, {"N": N, "anchor": anchor}))
        handle, anchor_lab = _erm_handle(hclass, est)
        rec.progress.append((k, int(np.count_nonzero(queried)),
                             int(handle) if hclass.explicit else -1))
    unspent = min(T, n) - int(np.count_nonzero(queried)) if unique else T - rounds * N
    if unspent > 0:
        rec.flags["budget_unspent"] = unspent
    rec.returned = int(handle) if hclass.explicit else -1
    rec.returned_labeling = [int(v) for v in anchor_lab]
    return rec


def aced_fixed_budget(
    instance: Instance,
    T: int,
    epsilon: float,
    estimator_kind: str = "ips",
    seed: int = 0,
    solver: dict | None = None,
) -> RunRecord:
    """Fixed budget split over floor(log2(1/eps)) rounds of optimized designs.

    Each round anchors at the current plug-in minimizer, solves the
    gap-ratio design at scale 2^(1-k), queries N = T // rounds i.i.d.
    draws from it and re-estimates; the T % rounds labels left over are
    flagged as budget_unspent. The naive estimator pools all labels seen so
    far; the IPS and feasibility estimators use the round's own draws
    (whose probabilities they need).
    """
    if estimator_kind not in ("naive", "ips", "chaining"):
        raise ValueError("estimator_kind must be naive, ips, or chaining")
    instance.hypotheses.enumerated("aced_fixed_budget")  # aced_waterfilled serves an oracle class
    rec = RunRecord(algorithm="aced_fixed_budget", seed=seed,
                    params={"T": T, "epsilon": epsilon, "estimator_kind": estimator_kind})
    return _fixed_budget_loop(instance, rec, T, epsilon, _prior_estimate(instance.n),
                              estimator_kind=estimator_kind, solver=solver)


def aced_fixed_budget_efficient(
    instance: Instance,
    T: int,
    epsilon: float,
    seed: int = 0,
    solver: dict | None = None,
) -> RunRecord:
    """Fixed budget with a mixed design: each round samples a 50/50 mix of
    the gap design and the worst-coordinate design and estimates with
    plain IPS. As in aced_fixed_budget, T % rounds labels stay unspent and
    are flagged as budget_unspent. It enumerates the class, so an
    oracle-backed class raises ImplicitClassError; the waterfilled variant
    serves those."""
    instance.hypotheses.enumerated("aced_fixed_budget_efficient")
    rec = RunRecord(algorithm="aced_fixed_budget_efficient", seed=seed,
                    params={"T": T, "epsilon": epsilon})
    return _fixed_budget_loop(instance, rec, T, epsilon, _prior_estimate(instance.n),
                              estimator_kind="ips", solver=solver, mix_psi=True)


def aced_waterfilled(
    instance: Instance,
    T: int,
    epsilon: float,
    N_batch: int | None = None,
    seed: int = 0,
    solver: dict | None = None,
    line_search_iters: int = 20,
) -> RunRecord:
    """Practical fixed budget for persistent labels.

    Rounds solve the gap design on the running naive estimate, waterfill
    against the cumulative sampling marginals, and query fresh unique
    points only, at most N_batch a round; repeated indices never arise.
    The run spends at most min(T, floor(log2(1/epsilon)) * N_batch)
    unique labels, so T is not always spent: a run left with
    min(T, n) - spent > 0 labels flags that number as budget_unspent.
    Pool exhaustion stops the run early, flagged. On an oracle-backed
    class, line_search_iters caps the oracle calls of each line search
    (design.line_search_max's n_max), an integer >= 1.
    """
    if not instance.labels.persistent:
        raise ValueError("waterfilled variant expects a persistent label model")
    n = instance.n
    if N_batch is None:
        N_batch = min(250, max(1, n // 4))
    rec = RunRecord(algorithm="aced_waterfilled", seed=seed,
                    params={"T": T, "epsilon": epsilon, "N_batch": N_batch})
    return _fixed_budget_loop(instance, rec, T, epsilon, naive_estimate(QueryLog(), n),
                              estimator_kind="naive", solver=solver, N_batch=N_batch,
                              line_search_iters=line_search_iters)


def baseline_passive(instance: Instance, T: int, seed: int = 0) -> RunRecord:
    """Uniform unique draws followed by plug-in ERM on what was observed."""
    check_budget({"T": T})
    n = instance.n
    rec = RunRecord(algorithm="passive", seed=seed, params={"T": T})
    order = np.random.default_rng([seed, 0]).permutation(n)[:min(T, n)]
    rec.queries = _round_log(1, order, np.full(order.size, 1.0 / n),
                             instance.labels.query_many(order))
    handle, lab = _erm_handle(instance.hypotheses, naive_estimate(rec.queries, n))
    rec.returned = int(handle) if instance.hypotheses.explicit else -1
    rec.returned_labeling = [int(v) for v in lab]
    rec.progress.append((1, len(rec.queries), rec.returned))
    return rec


def baseline_uniform_disagreement(
    instance: Instance,
    T: int,
    delta: float = 0.1,
    seed: int = 0,
) -> RunRecord:
    """Uniform sampling on the disagreement region with a Bernstein
    version space and a naive union bound over the class.

    If the budget ends before the version space is a singleton, the run
    is scored by a seeded uniformly-drawn survivor: an elimination
    algorithm's answer is only determined once it has certified one.
    """
    check_budget({"T": T})
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    H = instance.hypotheses.enumerated("uniform_disagreement")
    m, n = H.shape
    rec = RunRecord(algorithm="uniform_disagreement", seed=seed,
                    params={"T": T, "delta": delta})
    rng = np.random.default_rng([seed, 0])
    alive = np.ones(m, dtype=bool)
    cum = np.zeros(m)  # importance-weighted mistake sums
    queried = np.zeros(n, dtype=bool)
    rows = []  # (round, index, probability, label) per query
    for t in range(1, T + 1):
        dis = disagreement_region(H[alive])
        if dis.size == 0:
            break
        lam_val = 1.0 / dis.size
        i = rng.choice(dis)
        y = instance.labels.query(i)
        rows.append((1, i, lam_val, y))
        cum += (H[:, i] != y) / (n * lam_val)
        queried[i] = True
        errs = cum / t
        live_idx = np.flatnonzero(alive)
        best_h = live_idx[int(np.argmin(errs[live_idx]))]
        best = errs[best_h]
        # per-hypothesis Bernstein radius: the variance of one importance
        # weighted loss difference against the empirical best is at most
        # |h (xor) best| * |DIS| / n^2 under uniform mass on DIS
        diff_sizes = (H != H[best_h][None, :]).sum(axis=1)
        lg = math.log(2.0 * m * t * (t + 1) / delta)
        var_bound = diff_sizes * dis.size / (n * n)
        radius = np.sqrt(2.0 * var_bound * lg / t) + (dis.size / n) * lg / (3.0 * t)
        alive &= errs - best <= 2.0 * radius
        rec.eliminations.append(int(alive.sum()))
        live_idx = np.flatnonzero(alive)
        rec.progress.append((1, int(np.count_nonzero(queried)),
                             int(live_idx[np.argmin(errs[live_idx])])))
    rec.queries = QueryLog.from_rows(rows)
    survivors = np.flatnonzero(alive)
    if survivors.size == 1:
        rec.returned = int(survivors[0])
        rec.flags["certified"] = True
    else:
        rec.returned = int(rng.choice(survivors))
        rec.flags["certified"] = False
    rec.returned_labeling = [int(v) for v in H[rec.returned]]
    return rec


def _iwal_probability(G: float, k: int, C0: float, aggressiveness: float) -> float:
    """IWAL's query probability at stream step k for the loss gap G (flip
    hypothesis minus ERM), by the rejection-threshold rule: with slack
    s = sqrt(C0 * aggressiveness * log(max(k, 2)) / max(k - 1, 1)), a gap
    G <= s + s^2 queries surely, and a larger one with probability 1/x^2,
    where x > 1 solves G = s x + s^2 x^2; never below P_MIN. At s = 0
    (C0 = 0) a zero gap still queries surely and a positive one gets P_MIN,
    the limits of both rules as C0 falls to 0."""
    s = math.sqrt(C0 * aggressiveness * math.log(max(k, 2)) / max(k - 1, 1))
    if G <= s + s * s:
        return 1.0
    if s <= 0:
        return P_MIN
    x = (math.sqrt(1.0 + 4.0 * G) - 1.0) / (2.0 * s)
    return max(P_MIN, min(1.0, 1.0 / (x * x)))


def baseline_iwal(
    instance: Instance,
    stream,
    C0: float,
    variant: str = "iwal0",
    seed: int = 0,
) -> RunRecord:
    """Streaming importance-weighted active learner.

    For each stream point, compare the ERM with the cheapest hypothesis
    forced to flip the prediction there; the loss gap between them sets
    the query probability through the rejection-threshold rule with
    aggressiveness C0 (documented in _iwal_probability; variants
    iwal1/oracular1 halve the slack). iwal0/iwal1 count losses as
    importance-weighted mistakes over the queried points. The oracular
    variants count plain mistakes over every label revealed so far (the
    stream point's label under a persistent model, else the label last
    queried there); they enumerate the class, so an oracle-backed class
    raises ImplicitClassError. On an oracle-backed class the ERM changes
    only with the queried sample, so it is refit only after a query, each
    refit starting from the last ERM (the first from zero), and
    flags["logistic_cap_hits"] counts the logistic fits made that stopped
    at their iteration cap.
    """
    if variant not in ("iwal0", "iwal1", "oracular0", "oracular1"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 <= C0 < math.inf:
        raise ValueError(f"C0 must be a finite number >= 0, got {C0!r}")
    hclass = instance.hypotheses
    explicit = hclass.explicit
    oracular = variant.startswith("oracular")
    if oracular:  # scores every hypothesis on the revealed labels
        hclass.enumerated(f"iwal variant {variant!r}")
    aggressiveness = 0.5 if variant.endswith("1") else 1.0
    rec = RunRecord(algorithm=f"iwal_{variant}", seed=seed,
                    params={"C0": C0, "variant": variant})
    rng = np.random.default_rng([seed, 0])
    queried = np.zeros(instance.n, dtype=bool)
    rows = []  # (step, index, probability, label) per query
    revealed = {}  # oracular: the label last queried at each index
    if explicit:
        H = hclass.labelings
        cum = np.zeros(H.shape[0])  # each hypothesis's mistakes, as the variant counts them
    else:
        from .oracles import erm_flip_constrained, erm_logistic

        feats = instance.pool.features
        if feats is None:
            raise ValueError("oracle-backed streaming needs pool features")
        X_q, w_q, y_q = np.empty((0, feats.shape[1])), np.empty(0), np.empty(0, dtype=int)
        rec.flags["logistic_cap_hits"] = 0

        def fit(hyp):
            rec.flags["logistic_cap_hits"] += not hyp.converged
            return hyp

        fitted = None  # the ERM of (X_q, w_q, y_q), until a query appends to them
        start = None  # the last ERM's (w, b): the next refit starts there

        def erm(x):  # before the first query: any hypothesis labeling x 1
            nonlocal fitted, start
            if not w_q.size:
                return erm_flip_constrained(X_q, w_q, y_q, x, +1)
            if fitted is None:
                fitted = fit(erm_logistic(X_q, w_q, y_q, theta0=start))
                start = np.append(fitted.w, fitted.b)
            return fitted
    for step, i in enumerate(stream, start=1):
        i, denom = int(i), max(step - 1, 1)
        if explicit:
            hk = int(np.argmin(cum))
            flip = np.flatnonzero(H[:, i] != H[hk, i])
            if flip.size == 0:
                rec.progress.append((step, int(np.count_nonzero(queried)), hk))
                continue
            G = float(cum[flip].min() - cum[hk]) / denom
        else:
            hyp = erm(feats[i])
            pred = int(hyp.predict(feats[i])[0])
            flip_hyp = fit(erm_flip_constrained(X_q, w_q, y_q, feats[i], -1 if pred == 1 else 1))
            assert int(flip_hyp.predict(feats[i])[0]) != pred
            loss_flip, loss = (float((w_q * (h.predict(X_q) != y_q)).sum()) / denom
                               for h in (flip_hyp, hyp))
            G = max(0.0, loss_flip - loss)
        p = _iwal_probability(G, step, C0, aggressiveness)
        if rng.random() < p:
            y = instance.labels.query(i)
            rows.append((step, i, p, y))
            queried[i] = True
            if not explicit:
                X_q, w_q, y_q = np.vstack([X_q, feats[i]]), np.append(w_q, 1.0 / p), np.append(y_q, y)
                fitted = None
            elif oracular:
                revealed[i] = y
            else:
                cum += (H[:, i] != y) / p
        if oracular:
            y = instance.labels.query(i) if instance.labels.persistent else revealed.get(i)
            if y is not None:
                cum += H[:, i] != y
        if explicit:
            rec.progress.append((step, int(np.count_nonzero(queried)), int(np.argmin(cum))))
    rec.queries = QueryLog.from_rows(rows)
    if explicit:
        rec.returned = int(np.argmin(cum))
        rec.returned_labeling = [int(v) for v in H[rec.returned]]
    else:
        rec.returned = -1
        rec.returned_labeling = [int(v) for v in erm(feats[0]).predict(feats)]
    return rec


REGISTRY = {
    "aced_fixed_confidence": aced_fixed_confidence,
    "aced_fixed_budget": aced_fixed_budget,
    "aced_fixed_budget_efficient": aced_fixed_budget_efficient,
    "aced_waterfilled": aced_waterfilled,
    "passive": baseline_passive,
    "uniform_disagreement": baseline_uniform_disagreement,
    "iwal": baseline_iwal,
}
