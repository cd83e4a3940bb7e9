"""Sample-complexity measures and verification instances.

The optimal-design ratio rho*(eps), its Gaussian-width analogue
gamma*(eps), the worst-coordinate importance price psi*(eps), and the
exact disagreement coefficient, all in the classification normalization
(1/(lambda_i n^2) inside information terms, plain excess errors in the
denominators). The bandit-scale forms coincide after mapping
eps -> n*eps, which the tests exercise. Also houses the instance
generators used to separate these measures from disagreement-based
sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (HypothesisClass, Instance, LabelModel, Pool, check_integer, disagreement_region,
                   gap_table)
from .design import Design, batch_values, gap_objective, psi_design, rho_design, smd_solve

DIAGNOSTIC_SOLVER = {"tol": 1e-4, "rel_tol": 0.02, "b0": 32, "max_iters": 4000, "max_batch": 4096}


@dataclass(eq=False)
class MeasureResult:
    value: float
    design: Design
    certificate: float = 0.0
    stderr: float = 0.0
    converged: bool = True
    flags: dict = field(default_factory=dict)


@dataclass(eq=False)
class ComplexityReport:
    epsilon: float
    rho_star: MeasureResult
    gamma_star: MeasureResult
    psi_star: MeasureResult
    theta: dict


@dataclass(frozen=True)
class TsybakovSpec:
    """Low-noise condition: disagreement mass with the best hypothesis is
    at most a * (excess error)^alpha for every competitor."""

    a: float
    alpha: float

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("a must be >= 1")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


def tsybakov_holds(hclass: HypothesisClass, labels: LabelModel, spec: TsybakovSpec) -> bool:
    gt = gap_table(hclass, labels)
    H = hclass.labelings
    hs = H[gt.h_star]
    frac = (H != hs[None, :]).mean(axis=1)
    live = np.arange(H.shape[0]) != gt.h_star
    return bool(np.all(frac[live] <= spec.a * np.power(gt.gaps[live], spec.alpha) + 1e-12))


def rho_star(hclass: HypothesisClass, labels: LabelModel, epsilon: float) -> MeasureResult:
    """Minimize the worst inverse-information-to-gap ratio over designs.

    Solved through its dual over hypothesis weights, with no solver settings
    or seed; the certificate is the exact duality gap, and converged means
    it fell to 1e-4 of the value within the iteration cap.
    """
    if hclass.size == 1:
        return MeasureResult(0.0, Design.uniform(hclass.n))
    gt = gap_table(hclass, labels)
    rep = rho_design(hclass.labelings, labels.eta, epsilon, gt.h_star)
    return MeasureResult(rep.value_estimate, rep.design, certificate=rep.certificate,
                         converged=rep.converged)


def gamma_star(hclass: HypothesisClass, labels: LabelModel, epsilon: float,
               mc_samples: int = 4000, solver: dict | None = None, seed: int = 0) -> MeasureResult:
    """Squared expected worst gap-normalized Gaussian width at the solved design.

    mc_samples must be an integer >= 2, since the stderr needs two draws;
    anything else is a ValueError, raised before the solve.
    """
    check_integer("mc_samples", mc_samples, 2)
    if hclass.size == 1:
        return MeasureResult(0.0, Design.uniform(hclass.n))
    gt = gap_table(hclass, labels)
    obj = gap_objective(hclass.labelings, labels.eta, gt.h_star, epsilon, mode="true_gap")
    rep = smd_solve(obj, seed=seed, **dict(DIAGNOSTIC_SOLVER, **(solver or {})))
    Z = np.random.default_rng([seed, 0xFEED]).standard_normal((mc_samples, hclass.n))
    W, _ = batch_values(obj, rep.design.lam, Z)
    mean = float(W.mean())
    sd = float(W.std(ddof=1))
    value = mean * mean
    stderr = 2.0 * mean * sd / math.sqrt(mc_samples)
    flags = {"low_precision": bool(value > 0 and stderr > 0.2 * value)}
    return MeasureResult(value, rep.design, stderr=stderr, converged=rep.converged, flags=flags)


def psi_star(hclass: HypothesisClass, labels: LabelModel, epsilon: float) -> MeasureResult:
    """Minimize the worst-coordinate importance weight over designs.

    The minimum has a closed form, lam_i proportional to
    a_i = max over h with i in S_h of 1/max(gap_h, eps), with value
    (1/n) sum_i a_i; it is solved exactly, with no solver settings or seed.
    """
    if hclass.size == 1:
        return MeasureResult(0.0, Design.uniform(hclass.n))
    gt = gap_table(hclass, labels)
    rep = psi_design(hclass.labelings, labels.eta, gt.h_star, epsilon)
    return MeasureResult(rep.value_estimate, rep.design, certificate=rep.certificate,
                         converged=rep.converged)


def disagreement_coefficient(hclass: HypothesisClass, labels: LabelModel, xi: float) -> float:
    """sup over r >= xi of |DIS(ball(h*, r))| / (n r), exactly.

    The supremum is attained on the finite set of realized ball radii
    (plus xi itself), since the disagreement region is piecewise constant
    in r and the ratio decays between jumps.
    """
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    H = hclass.enumerated("disagreement_coefficient")
    if H.shape[0] == 1:
        return 0.0
    gt = gap_table(hclass, labels)
    hs = H[gt.h_star]
    n = hclass.n
    dist = (H != hs[None, :]).mean(axis=1)
    radii = sorted({float(d) for d in dist if d >= xi and d > 0} | ({xi} if xi > 0 else set()))
    best = 0.0
    for r in radii:
        ball = H[dist <= r + 1e-15]
        dis = disagreement_region(ball)
        best = max(best, (dis.size / n) / r)
    return best


def disagreement_bound_check(
    hclass: HypothesisClass,
    labels: LabelModel,
    epsilon: float,
    mode: str = "noiseless",
    c_bound: float = 9.0,
    tsybakov: TsybakovSpec | None = None,
) -> tuple:
    """Compare rho*(eps) against its disagreement-coefficient ceiling.

    Computes the ratio rho*(eps) / [theta-expression * peeling factor]
    and reports whether it stays below the configured constant. The
    theta-expression is theta(eps)(1 + nu^2/eps^2) in the noiseless mode
    and a^2 eps^(2 alpha - 2) theta(a eps^alpha) under the low-noise
    condition, whose premise is checked.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gt = gap_table(hclass, labels)
    if mode == "noiseless":
        if not np.all(np.isin(labels.eta, (0.0, 1.0))):
            raise ValueError("noiseless mode needs 0/1 label means")
        theta = disagreement_coefficient(hclass, labels, epsilon)
        nu = gt.nu
        expr = theta * (1.0 + (nu * nu) / (epsilon * epsilon))
    elif mode == "tsybakov":
        if tsybakov is None:
            raise ValueError("tsybakov mode needs the condition parameters")
        if not tsybakov_holds(hclass, labels, tsybakov):
            raise ValueError("the low-noise condition does not hold on this instance")
        xi = tsybakov.a * epsilon**tsybakov.alpha
        theta = disagreement_coefficient(hclass, labels, xi)
        expr = tsybakov.a**2 * epsilon ** (2 * tsybakov.alpha - 2) * theta
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = hclass.n
    dmin = gt.delta_min
    arg = max(1.0 / epsilon, (n / dmin) if dmin > 0 else 1.0 / epsilon)
    peel = 2.0 * max(1.0, math.ceil(math.log2(arg)))
    rho = rho_star(hclass, labels, epsilon)
    denom = expr * peel
    ratio = rho.value / denom if denom > 0 else math.inf
    report = {
        "rho_star": rho.value,
        "rho_gap": rho.certificate,
        "rho_converged": rho.converged,
        "theta_expression": expr,
        "peeling_factor": peel,
        "ratio": ratio,
        "c_bound": c_bound,
        "nu": gt.nu,
        "delta_min": dmin,
    }
    return bool(ratio <= c_bound), report


def make_core_tail_instance(m: int, persistent: bool = False, seed: int = 0) -> Instance:
    """m shared coordinates plus m^2 singly-covered tail coordinates.

    Hypotheses are the empty labeling and, for each tail coordinate, the
    core plus that coordinate; all label means are zero. Every hypothesis
    but the first pays the same excess error (m+1)/n, yet the
    disagreement region spans the whole pool, so uniform sampling over it
    wastes almost the entire budget on the tails.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = m + m * m
    rows = [np.zeros(n, dtype=np.int8)]
    for i in range(m * m):
        r = np.zeros(n, dtype=np.int8)
        r[:m] = 1
        r[m + i] = 1
        rows.append(r)
    pool = Pool(n=n)
    hclass = HypothesisClass(np.array(rows))
    labels = LabelModel(np.zeros(n), persistent=persistent, seed=seed)
    return Instance(pool=pool, hypotheses=hclass, labels=labels)


def make_thresholds(n: int, k_star: int, eps: float, persistent: bool = False,
                    seed: int = 0) -> Instance:
    """Threshold labelings 1{i <= k} with means (1 +/- eps)/2 split at k_star."""
    if not 1 <= k_star <= n:
        raise ValueError("k_star must be in [1, n]")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    rows = np.tril(np.ones((n, n), dtype=np.int8))
    mu = np.where(np.arange(n) < k_star, eps, -eps)
    eta = (1.0 + mu) / 2.0
    return Instance(pool=Pool(n=n), hypotheses=HypothesisClass(rows),
                    labels=LabelModel(eta, persistent=persistent, seed=seed))


def make_tsybakov(n: int, a: float, alpha: float, seed: int = 0, m_hyp: int = 8,
                  max_tries: int = 500, persistent: bool = False) -> Instance:
    """Rejection-sample a random instance satisfying the low-noise condition
    TsybakovSpec(a, alpha)."""
    spec = TsybakovSpec(a=a, alpha=alpha)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        rows = rng.integers(0, 2, size=(m_hyp, n)).astype(np.int8)
        eta = rng.random(n)
        hclass = HypothesisClass(rows)
        labels = LabelModel(eta, persistent=persistent, seed=seed)
        if hclass.size > 1 and tsybakov_holds(hclass, labels, spec):
            return Instance(pool=Pool(n=n), hypotheses=hclass, labels=labels)
    raise ValueError(f"no instance satisfied the condition within {max_tries} tries")


def complexity_report(instance: Instance, epsilon: float, xis=(0.01, 0.05, 0.1),
                      mc_samples: int = 4000, solver: dict | None = None,
                      seed: int = 0) -> ComplexityReport:
    """theta at each xi, then rho*, gamma* and psi* at epsilon; a bad
    mc_samples is a ValueError, raised before any of them is solved."""
    check_integer("mc_samples", mc_samples, 2)
    hclass, labels = instance.hypotheses, instance.labels
    theta = {float(x): disagreement_coefficient(hclass, labels, float(x)) for x in xis}
    return ComplexityReport(
        epsilon=epsilon,
        rho_star=rho_star(hclass, labels, epsilon),
        gamma_star=gamma_star(hclass, labels, epsilon, mc_samples=mc_samples,
                              solver=solver, seed=seed),
        psi_star=psi_star(hclass, labels, epsilon),
        theta=theta,
    )
