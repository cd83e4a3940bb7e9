"""Experimental-design objectives on the simplex and their solvers.

The stochastic objectives are optimized by mirror descent
(exponentiated gradient) with batch doubling and a backtracking step;
candidate designs are scored on common draws, and the best is returned
once a first-order certificate holds, the best score plateaus or the
iteration cap is hit. Gap-style objectives maximize a Gaussian-perturbed
excess-error ratio per sample; pair-width objectives combine a squared
Gaussian width with a worst-pair inverse-mass penalty. A batch of draws
is scored in one matrix product with the objective's rows; the gap
modes take their gradient moments from per-row sums of the draws each
row won, so a step's work is a few small products. The two
deterministic designs behind the complexity measures need no descent:
psi_design solves the worst-coordinate objective in closed form, and
rho_design the inverse-information objective through its dual,
certified by the exact duality gap. Its multiplicative
(Silvey-Titterington-Torsney) step is over-relaxed by an exponent and
kept only when it raises the dual bound at least as far as the plain
step, which cuts the iterations about sevenfold (267 to 39 on
make_thresholds(16, 7, 0.5) at eps = 0.1). An oracle-backed gap objective is
solved by column generation (Kelley's cutting planes): the solve keeps
the working set W of labelings its oracle line searches have returned,
asks the oracle only on the first max(b0, 2) draws of each iterate's
batch, and reads every inner value off W's rows as for an explicit
class, a lower bound on the supremum over the class. Waterfilling
reconciles per-round designs with the cumulative sampling distribution
in closed form: round k samples the simplex projection of what k times
its design still asks for beyond the k - 1 distributions already
sampled.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import plugin_errors
from .estimators import pair_distance_matrix

LAMBDA_FLOOR = 1e-9


class ObjectiveDegenerateError(RuntimeError):
    """A gap-objective denominator came out nonpositive."""


def floor_simplex(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    total = lam.sum()
    if not np.isfinite(total) or total <= 0:
        return np.full(lam.size, 1.0 / lam.size)
    lam = np.maximum(lam / total, LAMBDA_FLOOR)
    lam = np.maximum(lam / lam.sum(), LAMBDA_FLOOR)  # renormalization may dip below once
    return lam / lam.sum()


@dataclass(frozen=True, eq=False)
class Design:
    """A sampling distribution on the pool, floored at LAMBDA_FLOOR and renormalized."""

    lam: np.ndarray

    def __post_init__(self):
        lam = floor_simplex(self.lam)
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError("design does not normalize")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def uniform(cls, n: int) -> "Design":
        return cls(np.full(n, 1.0 / n))


@dataclass(eq=False)
class DesignObjective:
    """One of the stochastic design criteria, with precomputed per-hypothesis data.

    modes, and the fields each reads besides mode and n:
      fixed_budget     E[max_h (anchor-h) gap ratio], additive scale: V, den, anchor
      true_gap         same ratio with true gaps floored at epsilon: V, den, anchor
      fixed_confidence E[max_h - min_h score]^2 + penalty * max-pair inverse mass: V, den, penalty
    Every objective is scored through its rows V and den. The gap modes
    divide the rows, V / den, and score a batch with one product; their
    gradient sums, per row, the draws that row won. The pair-width mode
    divides its scores by den (all ones). An oracle-backed fixed_budget
    objective (maximizer set) has one row per labeling of its working set
    W, the anchor first; smd_solve grows W with what the oracle returns,
    from anchor_labeling, eta, scale and line_search_iters, on a copy that
    lives in the solve.
    """

    mode: str
    n: int
    V: np.ndarray | None = None        # (m, n) score rows, 1/n folded in
    den: np.ndarray | None = None      # (m,) positive denominators
    anchor: int = 0
    penalty: float = 0.0
    scale: float = 0.0
    eta: np.ndarray | None = None      # eta-hat for oracle-backed line search
    anchor_labeling: np.ndarray | None = None
    maximizer: object = None           # weighted-max oracle, oracle-backed mode
    line_search_iters: int = 20        # the most oracle calls one line search makes


def _gap_denominators(labelings, eta, anchor, scale, floor_at_scale):
    """scale + estimated excess error, or true excess floored at scale."""
    errs = plugin_errors(labelings, eta)
    gaps = errs - errs[anchor]
    den = np.maximum(gaps, scale) if floor_at_scale else scale + gaps
    if np.any(den[np.arange(len(den)) != anchor] <= 0):
        raise ObjectiveDegenerateError("nonpositive gap denominator")
    den[anchor] = 1.0
    return den


def gap_objective(labelings, eta, anchor: int, scale: float, mode: str = "fixed_budget") -> DesignObjective:
    """Gap-ratio objective anchored at a hypothesis index.

    mode fixed_budget uses denominators scale + plug-in excess error;
    mode true_gap floors the true excess error at scale (= epsilon).
    """
    L = np.asarray(labelings, dtype=float)
    n = L.shape[1]
    den = _gap_denominators(L, eta, anchor, scale, floor_at_scale=(mode == "true_gap"))
    V = (L[anchor][None, :] - L) / n
    V[anchor] = 0.0
    return DesignObjective(mode=mode, n=n, V=V, den=den, anchor=anchor)


def oracle_gap_objective(n, anchor_labeling, eta, scale: float, maximizer,
                         line_search_iters: int = 20) -> DesignObjective:
    """Fixed-budget gap objective over a class reached through a weighted-max
    oracle. It starts as the explicit objective on W = {anchor}: one zero
    row, so every value is 0 until smd_solve adds the labelings its line
    searches return (_grow_working_set)."""
    return DesignObjective(mode="fixed_budget", n=n, V=np.zeros((1, n)), den=np.ones(1), anchor=0,
                           anchor_labeling=np.asarray(anchor_labeling, np.int8),
                           eta=np.asarray(eta, dtype=float), scale=scale, maximizer=maximizer,
                           line_search_iters=line_search_iters)


def _grow_working_set(obj: DesignObjective, lam, Z, seen: set) -> DesignObjective:
    """obj with a row for each labeling, not yet in seen, that its oracle
    returns while line_search_max searches each draw of Z at lam; seen (the
    bytes of the int8 labelings already in W) gains them. A row is
    (anchor - lab)/n over _ratio_denominator(scale + plug-in gap), the ratio
    line_search_max scores; obj itself is returned when nothing is new."""
    new = []

    def collecting(w):
        handle, lab = obj.maximizer(w)
        lab_key = np.asarray(lab, dtype=np.int8).tobytes()
        if lab_key not in seen:
            seen.add(lab_key)
            new.append(lab)
        return handle, lab

    for zeta in Z:
        line_search_max(lam, zeta, obj.anchor_labeling, obj.eta, obj.scale, collecting,
                        obj.line_search_iters)
    if not new:
        return obj
    rows = (obj.anchor_labeling - np.array(new, dtype=np.int8)) / obj.n
    den = [_ratio_denominator(obj.scale + float(row @ (2.0 * obj.eta - 1.0)), obj.scale) for row in rows]
    return replace(obj, V=np.vstack([obj.V, rows]), den=np.concatenate([obj.den, den]))


def pair_width_objective(labelings, delta: float) -> DesignObjective:
    """Squared pair Gaussian width plus 2 log(1/delta) worst-pair inverse mass.
    The widest pair on a draw x is max_h L_h.x - min_h L_h.x: V = L/n, den = 1."""
    L = np.asarray(labelings, dtype=float)
    m, n = L.shape
    return DesignObjective(mode="fixed_confidence", n=n, V=L / n, den=np.ones(m),
                           penalty=2.0 * math.log(1.0 / delta))


def batch_values(obj: DesignObjective, lam: np.ndarray, Z: np.ndarray):
    """Per-sample values of a stochastic objective on a batch of Gaussian draws.

    A score column's value is max(max, 0) in the gap modes, max - min in the
    pair-width mode; batch_gradient also gets the (m, B) score matrix, to
    differentiate the max. The gap modes divide the rows first and score
    the batch in one product, ((V / den) / sqrt(lam)) @ Z^T; the pair-width
    mode scales the draws, (V @ (Z / sqrt(lam))^T) / den.
    """
    if obj.mode == "fixed_confidence":
        scores = (obj.V @ (Z / np.sqrt(lam)).T) / obj.den[:, None]
        return scores.max(axis=0) - scores.min(axis=0), scores
    scores = ((obj.V / obj.den[:, None]) / np.sqrt(lam)) @ Z.T
    return np.maximum(scores.max(axis=0), 0.0), scores


def batch_gradient(obj: DesignObjective, lam: np.ndarray, Z: np.ndarray, vals, argmax):
    """Batch mean and mean square of the per-sample gradients, from batch_values.

    A draw z's gradient is -1/2 w z lam^(-3/2), w the row that won it. In
    the pair-width mode w is the argmax row of V minus the argmin row. In
    the gap modes it is the argmax row of Vd = V / den, the anchor's where
    the value is <= 0; with G the (m, B) 0/1 indicator of those rows, the
    moments are per-row sums of the draws each row won:
    mean = -1/2 lam^(-3/2) sum_h Vd_h (G @ Z)_h / B and
    mean square = 1/4 lam^(-3) sum_h Vd_h^2 (G @ Z^2)_h / B.
    """
    inv32 = lam ** (-1.5)
    if obj.mode == "fixed_confidence":
        W = obj.V[np.argmax(argmax, axis=0)] - obj.V[np.argmin(argmax, axis=0)]
        grads = -0.5 * W * Z * inv32
        return grads.mean(axis=0), (grads**2).mean(axis=0)
    B = Z.shape[0]
    rows = np.argmax(argmax, axis=0)
    rows[vals <= 0] = obj.anchor
    G = np.zeros(argmax.shape)
    G[rows, np.arange(B)] = 1.0
    Vd = obj.V / obj.den[:, None]
    gmean = -0.5 * inv32 * (Vd * (G @ Z)).sum(axis=0) / B
    gsq = 0.25 * inv32**2 * (Vd**2 * (G @ Z**2)).sum(axis=0) / B
    return gmean, gsq


def _outer(obj, lam, vals):
    """(value, slope, gpen) at lam from per-sample values: the mean, 1, None
    for gap modes; for fixed_confidence mean^2 + penalty * worst-pair inverse
    mass (the squared design distance of rows V_a, V_b), the square's slope
    2 * mean, and that mass's gradient -(V_a - V_b)^2 / lam^2."""
    mean = float(vals.sum() / vals.size)
    if obj.mode != "fixed_confidence":
        return mean, 1.0, None
    dist = pair_distance_matrix(obj.V, lam, 1)
    a, b = divmod(int(np.argmax(dist)), dist.shape[1])
    gpen = -((obj.V[a] - obj.V[b]) ** 2) / lam**2
    return mean**2 + obj.penalty * float(dist[a, b]) ** 2, 2.0 * mean, gpen


def _mirror_step(log_lam, g, step):
    u = log_lam - step * g
    u -= u.max()  # scale-invariant; keeps exp finite
    return floor_simplex(np.exp(u))


def _paired_se(a, b) -> float:
    """Standard error of mean(a - b) over the draws both were scored on: the
    population standard deviation over sqrt(size), reduced in np.std's order."""
    d = a - b
    d -= d.sum() / d.size
    d *= d
    return math.sqrt(d.sum() / d.size) / math.sqrt(d.size)


@dataclass(eq=False)
class SolverReport:
    """Solver output: design, value, certificate and why it stopped."""

    design: Design
    value_estimate: float
    certificate: float  # smd_solve: the proposing iteration's, inf if its batch was all zeros
    batch_trajectory: list
    iterations: int
    stop_reason: str  # "exact", "certificate", "plateau" or "cap"

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"


def _disagreement_supports(labelings, eta, anchor: int, scale: float, floor_at_scale: bool) -> tuple:
    """(S, den): the 0/1 rows S_h of the coordinates where h disagrees with
    the anchor, and the gap denominators of _gap_denominators, inf at the
    anchor (no self-term)."""
    L = np.asarray(labelings, dtype=float)
    den = _gap_denominators(L, np.asarray(eta, dtype=float), anchor, scale, floor_at_scale)
    den[anchor] = np.inf
    return (L != L[anchor][None, :]).astype(float), den


def psi_design(labelings, eta, anchor: int, scale: float, floor_at_scale: bool = True) -> SolverReport:
    """Closed-form minimizer of the worst-coordinate importance-weight
    objective max over h and i in S_h of 1/(n lam_i den_h).

    floor_at_scale gives the diagnostic denominators max(eps, gap);
    otherwise the in-algorithm form scale + plug-in gap. With
    a_i = max over h with i in S_h of 1/den_h the objective is
    max_i a_i / (n lam_i), so lam proportional to a equalizes every
    coordinate at the optimum (1/n) sum_i a_i.
    """
    S, den = _disagreement_supports(labelings, eta, anchor, scale, floor_at_scale)
    design = Design(np.where(S > 0, 1.0 / den[:, None], 0.0).max(axis=0))
    ratio = np.where(S > 0, (1.0 / (S.shape[1] * design.lam))[None, :] / den[:, None], -np.inf)
    return SolverReport(design=design, value_estimate=float(ratio.max()), certificate=0.0,
                        batch_trajectory=[], iterations=0, stop_reason="exact")


RHO_REL_GAP = 1e-4
RHO_MAX_ITERS = 20_000
# The largest exponent of rho_design's over-relaxed step: a run of accepted
# steps doubles it from 2, so it reaches 64 after five, and a step that
# scores below the plain one resets it to 2. On make_thresholds(16, 7, 0.5)
# the solve certifies in 39 iterations at eps = 0.1 and 36 at eps = 0.05
# (the plain step alone takes 267 and 271).
RHO_MAX_EXPONENT = 64
PLATEAU_WINDOW = 10  # smd_solve iterations between candidate averages and plateau tests


def rho_design(labelings, eta, epsilon: float, anchor: int) -> SolverReport:
    """Certified minimizer of the worst inverse-information-to-gap-squared
    ratio max_h c_h S_h.(1/lam), c_h = 1/(n max(eps, gap_h))^2 (exactly 0
    at the anchor), through its dual.

    For hypothesis weights mu on the simplex and w = sum_h mu_h c_h S_h,
    min over lam of sum_i w_i / lam_i is (sum_i sqrt(w_i))^2, attained at
    lam proportional to sqrt(w): a lower bound on the minimax value. With
    vals_h = c_h S_h.(1/lam) at that lam, each iteration renormalizes two
    candidate weights, the Silvey-Titterington-Torsney step mu_h vals_h
    and its over-relaxed form mu_h (vals_h / max vals)^kappa (Silvey,
    Titterington & Torsney 1978), scores both by their bound in one
    product, and keeps the over-relaxed step when its bound is at least the
    plain step's (then kappa doubles, up to RHO_MAX_EXPONENT), else the
    plain step (then kappa goes back to 2). The guard is needed because the
    over-relaxed step is monotone only for small kappa (Yu 2010); an
    over-relaxed step that underflows to all zeros scores nan and is not
    kept. Any mu on the simplex gives a valid bound, so the certificate is
    exact whichever step produced mu; a weight that underflows to 0 stays
    0. The best primal iterate is returned with the exact duality gap as
    its certificate, once that gap is at most RHO_REL_GAP of the value
    ("certificate") or after RHO_MAX_ITERS iterations ("cap").
    """
    S, den = _disagreement_supports(labelings, eta, anchor, epsilon, floor_at_scale=True)
    coeff = 1.0 / (S.shape[1] ** 2 * den**2)
    CS = coeff[:, None] * S
    mu = np.full(CS.shape[0], 1.0 / CS.shape[0])
    root = np.sqrt(mu @ CS)
    kappa = 2
    best_value, best_root, bound = np.inf, None, 0.0
    stop_reason = "cap"
    for it in range(1, RHO_MAX_ITERS + 1):
        bound = max(bound, float(root.sum()) ** 2)
        vals = coeff * (S @ (1.0 / floor_simplex(root)))
        value = float(vals.max())
        if value < best_value:
            best_value, best_root = value, root
        if best_value - bound <= RHO_REL_GAP * best_value:
            stop_reason = "certificate"
            break
        steps = np.vstack([mu * vals, mu * (vals / value) ** kappa])
        steps /= steps.sum(axis=1, keepdims=True)
        roots = np.sqrt(steps @ CS)
        relaxed = roots[1].sum() >= roots[0].sum()
        mu, root = steps[int(relaxed)], roots[int(relaxed)]
        kappa = min(2 * kappa, RHO_MAX_EXPONENT) if relaxed else 2
    return SolverReport(design=Design(best_root), value_estimate=best_value,
                        certificate=max(best_value - bound, 0.0), batch_trajectory=[],
                        iterations=it, stop_reason=stop_reason)


def check_solver_settings(settings: dict) -> None:
    """Reject smd_solve settings it cannot run with, as a ValueError whose
    message starts with the setting's name: b0, max_iters, max_halvings,
    eval_samples and max_batch are integers, tol and rel_tol numbers;
    tol > 0, rel_tol >= 0, max_iters >= 1, max_halvings >= 0,
    eval_samples >= 0, and max_batch >= max(b0, 2), the first batch's size.
    A setting not given is not checked."""
    for key, value in settings.items():
        integer = key in ("b0", "max_iters", "max_halvings", "eval_samples", "max_batch")
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
            raise ValueError(f"{key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if "tol" in settings and not settings["tol"] > 0:
        raise ValueError(f"tol must be positive, got {settings['tol']!r}")
    for key, low in (("rel_tol", 0), ("max_iters", 1), ("max_halvings", 0), ("eval_samples", 0)):
        if key in settings and not settings[key] >= low:
            raise ValueError(f"{key} must be at least {low}, got {settings[key]!r}")
    if "b0" in settings and "max_batch" in settings and settings["max_batch"] < max(settings["b0"], 2):
        raise ValueError(f"max_batch must be at least max(b0, 2) = {max(settings['b0'], 2)}, "
                         f"got {settings['max_batch']!r}")


def smd_solve(
    obj: DesignObjective,
    tol: float,
    b0: int = 16,
    seed: int = 0,
    max_iters: int = 100_000,
    max_halvings: int = 30,
    eval_samples: int = 512,
    rel_tol: float = 0.0,
    max_batch: int = 1 << 16,
) -> SolverReport:
    """Minimize a stochastic design objective over the simplex by mirror descent.

    Exponentiated-gradient updates from the uniform design; the batch
    doubles whenever gradient noise dominates the first-order gap; the
    step backtracks on values alone (a tie is within one paired standard
    error on the iteration's draws). Candidates (each iterate with the
    lowest batch value so far; every PLATEAU_WINDOW iterations the mean of
    the second half of the iterates) are scored on one evaluation batch of
    max(b0, eval_samples) draws, eval_samples at most 32 when
    oracle-backed; the best is returned with its score as value.
    stop_reason: "certificate" once 2 max_k sigma_k + max_k <g, lam - e_k>
    <= tol + rel_tol |value| on a batch with a nonzero value; "plateau"
    at a checkpoint whose best score beats the previous checkpoint's by at
    most tol plus one paired standard error; else "cap", and a capped solve
    proposes no step after its last iteration. Values come from _outer,
    whose slope also scales the noise and standard errors. Settings that
    check_solver_settings rejects, and a mode other than fixed_budget,
    true_gap or fixed_confidence, raise ValueError before anything is drawn.

    Oracle-backed (obj.maximizer set), the solve keeps its own working set
    W, a copy of obj that starts at the anchor. Each iteration first
    line-searches the first max(b0, 2) draws of its batch, the size of the
    first batch, so the oracle's work per iteration stays fixed while the
    batch doubles; every distinct labeling the oracle returns joins W.
    Then the iterate's values and gradient, its backtracking trials and
    the candidate scores all read W's rows. A W value is a lower bound on
    the supremum over the class. The iterate and its trials are scored on
    the same W, so backtracking acceptance is as for an explicit class;
    whenever W has grown, the incumbent best and the plateau checkpoint
    are re-scored on it, so candidates are always compared on one W.
    """
    check_solver_settings({"tol": tol, "b0": b0, "max_iters": max_iters, "max_halvings": max_halvings,
                           "eval_samples": eval_samples, "rel_tol": rel_tol, "max_batch": max_batch})
    if obj.mode not in ("fixed_budget", "true_gap", "fixed_confidence"):
        raise ValueError(f"unknown objective mode {obj.mode!r}")
    n = obj.n
    lam = np.full(n, 1.0 / n)
    B = max(int(b0), 2)
    b_oracle = B
    step = 1.0
    batch_trajectory, iterates = [], []
    # an oracle-backed solve re-scores its incumbents each time W grows,
    # and W can hold thousands of rows
    size = max(B, min(eval_samples, 32) if obj.maximizer is not None else eval_samples)
    Z_eval = np.random.default_rng([seed, 1 << 30]).standard_normal((size, n))
    work = obj
    seen = {obj.anchor_labeling.tobytes()} if obj.maximizer is not None else None

    def score(c, cert):  # (value, slope, per-draw values, design, certificate) on W
        evals = batch_values(work, c, Z_eval)[0]
        return (*_outer(work, c, evals)[:2], evals, c, cert)

    best, checkpoint, lowest = (np.inf,), None, np.inf
    for it in range(1, max_iters + 1):
        Z = np.random.default_rng([seed, it - 1]).standard_normal((B, n))
        if seen is not None:
            grown = _grow_working_set(work, lam, Z[:b_oracle], seen)
            if grown is not work:
                work = grown
                best = score(*best[3:]) if len(best) > 1 else best
                checkpoint = score(*checkpoint[3:]) if checkpoint is not None else None
        vals, argmax = batch_values(work, lam, Z)
        gmean, gsq = batch_gradient(work, lam, Z, vals, argmax)
        value, slope, gpen = _outer(work, lam, vals)
        g = gmean if gpen is None else slope * gmean + work.penalty * gpen
        gvar = slope**2 * np.maximum(gsq - gmean**2, 0.0) / B
        sigma_max = float(np.sqrt(gvar.max()))
        gap_term = float(g @ lam - g.min())
        cert = 2.0 * sigma_max + gap_term if vals.any() else math.inf  # all-zero batches prove nothing
        batch_trajectory.append(B)
        iterates.append(lam)
        certified = cert <= tol + rel_tol * abs(value)
        cands = [lam] if value < lowest or certified else []
        lowest = min(lowest, value)
        at_checkpoint = it % PLATEAU_WINDOW == 0
        if at_checkpoint:
            cands.append(floor_simplex(np.mean(iterates[it // 2:], axis=0)))
        for c in cands:
            best = min(best, score(c, cert), key=lambda t: t[0])
        plateau = at_checkpoint and checkpoint is not None and checkpoint[0] - best[0] <= tol + (
            _paired_se(checkpoint[2], best[2]) * max(checkpoint[1], best[1]))
        if certified or plateau or it == max_iters:  # a capped solve proposes no further step
            break
        checkpoint = best if at_checkpoint else checkpoint
        if 2.0 * sigma_max >= gap_term:
            B = min(2 * B, max_batch)
        # backtracking exponentiated step on common draws
        trial = min(1.0, 2.0 * step)
        log_lam = np.log(lam)
        for _ in range(max_halvings):
            cand = _mirror_step(log_lam, g, trial)
            cvals, _ = batch_values(work, cand, Z)
            cvalue, cslope, _ = _outer(work, cand, cvals)
            if cvalue - value <= _paired_se(cvals, vals) * max(slope, cslope):
                break
            trial *= 0.5
        else:  # no trial accepted: take the smallest step
            cand = _mirror_step(log_lam, g, trial)
        lam, step = cand, trial
    value, _, _, lam, cert = best
    return SolverReport(design=Design(lam), value_estimate=value, certificate=float(cert),
                        batch_trajectory=batch_trajectory, iterations=it,
                        stop_reason="certificate" if certified else "plateau" if plateau else "cap")


def _ratio_denominator(den: float, scale: float) -> float:
    """The oracle gap ratio's denominator scale + estimated excess error, as
    the value and its gradient both use it: a nonpositive one becomes
    1e-3 * scale (1e-12 at scale 0)."""
    return den if den > 0 else (scale * 1e-3 if scale > 0 else 1e-12)


def line_search_max(lam, zeta, anchor_labeling, eta_hat, scale, maximizer, n_max: int = 20):
    """Inner maximization of the gap ratio N(h)/D(h) through a weighted-max
    oracle, as (value, int8 labeling, handle).

    N(h) = d.(h - anchor) and D(h) = scale + c.(h - anchor), clamped by
    _ratio_denominator, with d = -zeta/(n sqrt(lam)) and c = (1 - 2 eta-hat)/n.
    Dinkelbach's iteration (Management Science, 1967): from r = 0, each
    step asks the maximizer for argmax_h (d - r c).h, the maximizer of
    N(h) - r D(h), and sets r to its answer's ratio. It stops when the ratio
    does not rise (an answer equal to the anchor scores 0), when the next
    weight vector equals the last (c = 0 where eta-hat is 1/2, so such a
    search asks once), or after n_max calls. The best answer is returned,
    or the anchor at value 0 when none beats it.
    """
    lam = np.asarray(lam, dtype=float)
    anchor = np.asarray(anchor_labeling, dtype=float)
    n = lam.size
    d = -np.asarray(zeta, dtype=float) / (n * np.sqrt(lam))
    c = (1.0 - 2.0 * np.asarray(eta_hat, dtype=float)) / n
    r, w, best_lab, best_handle = 0.0, d, anchor, None
    for _ in range(n_max):
        handle, lab = maximizer(w)
        lab = np.asarray(lab, dtype=float)
        value = float(d @ (lab - anchor)) / _ratio_denominator(scale + float(c @ (lab - anchor)), scale)
        if value <= r:
            break
        r, best_lab, best_handle = value, lab, handle
        w_next = d - c * r
        if np.array_equal(w_next, w):
            break
        w = w_next
    return r, best_lab.astype(np.int8), best_handle


def waterfill(lam_k, prior_marginals) -> Design:
    """Round-k sampling distribution matching the cumulative target design,
    with k = len(prior_marginals) + 1; round 1 samples lam_k itself.

    Minimizes over the simplex the worst residual deficit
    max_j max(0, d_j - q_j), d = max(0, k*lam_k - sum_i p_i), by the
    Euclidean projection of d onto the simplex: q = max(d - th, 0) with
    th the one level at which q sums to 1, read off the deficits sorted
    descending (Held, Wolfe & Crowder 1974; Duchi et al. 2008). The k - 1
    priors consume k - 1 units, so sum d >= sum(k*lam_k - consumed) = 1
    and the projection shaves the largest deficits to a common level;
    th < 0 (spreading a surplus) happens only at rounding level.
    """
    k = len(prior_marginals) + 1
    if k == 1:
        return Design(lam_k)
    d = np.maximum(0.0, k * np.asarray(lam_k, dtype=float) - np.sum(prior_marginals, axis=0))
    s = np.sort(d)[::-1]
    th = (np.cumsum(s) - 1.0) / np.arange(1, s.size + 1)
    q = np.maximum(d - th[np.flatnonzero(s > th)[-1]], 0.0)  # index 0 always qualifies
    return Design(q / q.sum())


def sample_unique(p, N: int, already_queried, rng: np.random.Generator) -> tuple:
    """Draw until N distinct previously-unqueried indices are collected.

    Rejection-samples from p with rng, returning indices in draw order. If fewer
    than the needed number of unqueried indices carry mass, the remainder
    is drawn uniformly from the unqueried indices and the fallback flag
    is set.
    """
    lam = p.lam if isinstance(p, Design) else floor_simplex(np.asarray(p, dtype=float))
    n = lam.size
    seen = np.zeros(n, dtype=bool)
    seen[list(already_queried)] = True
    out = []
    mass_floor = 10.0 * LAMBDA_FLOOR
    while len(out) < N:
        available = ~seen & (lam > mass_floor)
        if not available.any():
            rest = np.flatnonzero(~seen)
            picks = rng.choice(rest, size=min(N - len(out), rest.size), replace=False)
            return out + [int(i) for i in picks], True
        draws = rng.choice(n, size=max(4 * (N - len(out)), 16), p=lam)
        for i in draws:
            if not seen[i]:
                out.append(int(i))
                seen[i] = True
                if len(out) == N:
                    break
    return out, False
