"""Reference checks for the benchmark's outputs.

Every function here recomputes a quantity from its definition with plain
numpy (and scipy's LP solver for realizability), without calling the
package, so that the benchmark can tell a wrong answer from a fast one.
Each check returns a list of failure messages; an empty list means the
output passed.
"""
from __future__ import annotations

import math

import numpy as np


def pool_errors(labelings, eta) -> np.ndarray:
    """Expected pool error of every labeling, from the label means."""
    L = np.asarray(labelings, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return (eta[None, :] * (1.0 - L) + (1.0 - eta[None, :]) * L).mean(axis=1)


def best_hypothesis(labelings, eta) -> int:
    """Brute-force h*: the lowest index among the smallest pool errors."""
    errs = pool_errors(labelings, eta)
    return int(np.flatnonzero(errs == errs.min())[0])


def plugin_erm(labelings, queries) -> int:
    """Fewest mistakes on the queried labels, ties to the lowest index.

    ``queries`` holds (index, label) pairs. Labels are persistent, so a
    point queried twice counts once.
    """
    L = np.asarray(labelings)
    seen = dict((int(i), int(y)) for i, y in queries)
    mistakes = np.zeros(L.shape[0], dtype=int)
    for i, y in seen.items():
        mistakes += L[:, i] != y
    return int(np.flatnonzero(mistakes == mistakes.min())[0])


def disagreement_coefficient(labelings, eta, xi: float) -> float:
    """theta(xi) = sup over r >= xi of |DIS(B(h*, r))| / (n r).

    The ball's disagreement region is the union of the points where a
    member differs from h*. Between two realized distances the region is
    constant and the ratio falls, so the sup is taken over r = xi and the
    realized distances at or above xi.
    """
    L = np.asarray(labelings)
    n = L.shape[1]
    hs = L[best_hypothesis(L, eta)]
    differs = L != hs[None, :]
    dist = differs.mean(axis=1)
    radii = [r for r in set(dist.tolist()) | {xi} if r >= xi and r > 0]
    best = 0.0
    for r in radii:
        region = differs[dist <= r].any(axis=0)
        best = max(best, region.sum() / (n * r))
    return float(best)


def _supports_and_floors(labelings, eta, epsilon):
    """Disagreement supports S_h with h* and the floored gaps max(gap, eps)."""
    L = np.asarray(labelings)
    errs = pool_errors(L, eta)
    h = best_hypothesis(L, eta)
    S = L != L[h][None, :]
    den = np.maximum(errs - errs[h], epsilon)
    live = np.arange(L.shape[0]) != h
    return L, h, S[live], den[live]


def psi_closed_form(labelings, eta, epsilon: float) -> float:
    """psi_min = (1/n) sum_i max over h with i in S_h of 1/den_h."""
    L, _, S, den = _supports_and_floors(labelings, eta, epsilon)
    a = np.where(S, 1.0 / den[:, None], 0.0).max(axis=0, initial=0.0)
    return float(a.sum() / L.shape[1])


def psi_uniform(labelings, eta, epsilon: float) -> float:
    """The worst-coordinate objective at the uniform design: max_h 1/den_h."""
    _, _, S, den = _supports_and_floors(labelings, eta, epsilon)
    return float((1.0 / den[S.any(axis=1)]).max(initial=0.0))


def rho_bounds(labelings, eta, epsilon: float) -> tuple:
    """(Cauchy-Schwarz lower bound, value at the uniform design) for rho*.

    With coeff_h = 1/(n^2 den_h^2), sum_{i in S_h} 1/lam_i >= |S_h|^2 on
    the simplex, and the uniform design gives n |S_h|.
    """
    L, _, S, den = _supports_and_floors(labelings, eta, epsilon)
    n = L.shape[1]
    coeff = 1.0 / (n * n * den**2)
    size = S.sum(axis=1)
    return float((coeff * size**2).max()), float((coeff * n * size).max())


def gamma_lower_bound(labelings, eta, epsilon: float) -> float:
    """max_h (sum_i |V_hi|)^2 / (2 pi den_h^2), V_h = (h* - h) / n.

    E max_h >= max_h E[max(0, <V_h, z/sqrt(lam)>)] / den_h
    = max_h ||V_h||_{1/lam} / (sqrt(2 pi) den_h), and the weighted norm is
    at least the l1 norm on the simplex.
    """
    L, _, S, den = _supports_and_floors(labelings, eta, epsilon)
    l1 = S.sum(axis=1) / L.shape[1]
    return float((l1**2 / (2.0 * math.pi * den**2)).max())


def halfspace_realizable(X, labeling) -> bool:
    """Is there (w, b) with w.x + b >= 0 exactly on the points labeled 1?

    Feasibility LP: w.x + b >= 0 on the ones and w.x + b <= -1 on the
    zeros (any strict separation can be rescaled to that margin).
    """
    from scipy.optimize import linprog

    X = np.asarray(X, dtype=float)
    y = np.asarray(labeling)
    sign = np.where(y == 1, -1.0, 1.0)
    A = sign[:, None] * np.hstack([X, np.ones((X.shape[0], 1))])
    b = np.where(y == 1, 0.0, -1.0)
    res = linprog(np.zeros(X.shape[1] + 1), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * (X.shape[1] + 1), method="highs")
    return res.status == 0


# ---- per-workload checks on decoded outputs ------------------------------


def check_bench_round(rows, records, labelings, truth, expectations) -> list:
    """Checks shared by the bench.run workloads.

    rows: {(algorithm label, seed): [(queries, pool_acc), ...]} from
    results.csv; records: list of decoded runrecords.jsonl lines;
    labelings: explicit class or None for an oracle class; truth: the
    realized labels; expectations: {algorithm label: dict} with optional
    keys ``queries`` (exact count), ``max_queries``, ``unique``, ``erm``
    (returned hypothesis equals the plug-in ERM) and ``final_is_returned``
    (for an oracle class, the final accuracy is that of the returned
    labeling; otherwise it need only be a whole count over n).
    """
    bad = []
    truth = np.asarray(truth)
    n = truth.size
    for rec in records:
        label = rec["label"]
        want = expectations[label]
        where = f"{label}/seed {rec['seed']}"
        idx = [q[1] for q in rec["queries"]]
        pairs = [(q[1], q[3]) for q in rec["queries"]]
        if "queries" in want and len(idx) != want["queries"]:
            bad.append(f"{where}: {len(idx)} labels queried, budget is exactly {want['queries']}")
        if len(idx) > want.get("max_queries", math.inf):
            bad.append(f"{where}: {len(idx)} labels queried over the budget {want['max_queries']}")
        if want.get("unique") and len(set(idx)) != len(idx):
            bad.append(f"{where}: an index was queried twice")
        if any(y != truth[i] for i, y in pairs):
            bad.append(f"{where}: a queried label differs from the realized label")
        if want.get("erm") and rec["returned"] != plugin_erm(labelings, pairs):
            bad.append(f"{where}: returned {rec['returned']}, plug-in ERM is "
                       f"{plugin_erm(labelings, pairs)}")
        curve = rows.get((label, rec["seed"]))
        if not curve:
            bad.append(f"{where}: no rows in results.csv")
            continue
        final_acc = curve[-1][1]  # rows of one run are in round order
        if labelings is not None:
            ref = float(np.mean(np.asarray(labelings)[plugin_erm(labelings, pairs)] == truth))
        elif want.get("final_is_returned"):
            ref = float(np.mean(np.asarray(rec["returned_labeling"]) == truth))
        else:
            ref = round(final_acc * n) / n  # an accuracy on n points is k/n
        if abs(final_acc - ref) > 1e-9:
            bad.append(f"{where}: final pool_acc {final_acc!r}, recomputed {ref!r}")
    return bad


def check_fixed_confidence(records, h_star: int) -> tuple:
    """(runs that returned h*, failures): h* survives every round of the
    runs that return it, and survivor counts never rise. The caller holds
    the share of returns to 1 - delta over the whole run."""
    bad = []
    wins = 0
    for rec in records:
        counts = rec.eliminations
        if any(b > a for a, b in zip(counts, counts[1:])):
            bad.append(f"seed {rec.seed}: survivor count rose {counts}")
        if rec.returned == h_star:
            wins += 1
            if any(h_star not in d["survivors"] for d in rec.designs):
                bad.append(f"seed {rec.seed}: h* eliminated in a run that returned it")
    return wins, bad


def check_complexity(report, labelings, eta, epsilon: float, tol: float = 1e-9) -> list:
    """theta from its definition, psi/rho/gamma bounds, uniform-design ceilings."""
    bad = []
    for xi, theta in report.theta.items():
        ref = disagreement_coefficient(labelings, eta, xi)
        if abs(theta - ref) > tol * max(1.0, ref):
            bad.append(f"theta({xi}) = {theta!r}, definition gives {ref!r}")
    psi, rho, gamma = report.psi_star.value, report.rho_star.value, report.gamma_star
    psi_min = psi_closed_form(labelings, eta, epsilon)
    if psi < psi_min * (1.0 - tol):
        bad.append(f"psi* = {psi!r} below the closed-form minimum {psi_min!r}")
    if psi > psi_uniform(labelings, eta, epsilon) * (1.0 + tol):
        bad.append(f"psi* = {psi!r} worse than the uniform design")
    rho_lo, rho_unif = rho_bounds(labelings, eta, epsilon)
    if rho < rho_lo * (1.0 - tol):
        bad.append(f"rho* = {rho!r} below the Cauchy-Schwarz bound {rho_lo!r}")
    if rho > rho_unif * (1.0 + tol):
        bad.append(f"rho* = {rho!r} worse than the uniform design {rho_unif!r}")
    gamma_lo = gamma_lower_bound(labelings, eta, epsilon)
    if gamma.value < gamma_lo - 3.0 * gamma.stderr:
        bad.append(f"gamma* = {gamma.value!r} more than 3 standard errors below {gamma_lo!r}")
    return bad
