#!/usr/bin/env python3
"""Where an oracle-backed waterfilled run spends its logistic fits.

Builds a generated linear pool (n points, p standard-normal features,
labels from a logistic model of slope 2 around a seeded unit direction,
realized once) and runs aced_waterfilled through the logistic ERM oracle.
For each design solve it prints why the solve stopped, its iterations,
the oracle calls its line searches asked for (design.line_search_max's
maximizer calls), its logistic fits (oracles._fit_logistic calls), their
Newton steps (np.linalg.solve calls inside a fit) and its wall time; then
the run's total fits, Newton steps and wall time. A weight vector
whose fit the oracle still keeps (LinearOracleClass keeps its most recent
fits) is answered without a new one, so asked can exceed fits.

    python3 scripts/oracle_probe.py --n 100 --p 10 --T 10 --epsilon 0.25
"""
import argparse
import time

import numpy as np

from aced import algorithms, design, oracles
from aced.algorithms import DEFAULT_SOLVER, aced_waterfilled
from aced.core import HypothesisClass, Instance, LabelModel, Pool
from aced.oracles import LinearOracleClass


def linear_pool(n: int, p: int, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    eta = 1.0 / (1.0 + np.exp(-2.0 * (X @ (w / np.linalg.norm(w)))))
    return Instance(Pool(n=n, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(eta, persistent=True, seed=seed))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--p", type=int, default=10)
    ap.add_argument("--T", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--line-search-iters", type=int, default=20,
                    help="the most oracle calls one line search makes")
    ap.add_argument("--max-iters", type=int, default=DEFAULT_SOLVER["max_iters"])
    args = ap.parse_args()

    fits, asked, newton = [0], [0], [0]
    fit, solve_step = oracles._fit_logistic, np.linalg.solve

    def counting_step(*a):
        newton[0] += 1
        return solve_step(*a)

    def counting_fit(*a, **kw):
        fits[0] += 1
        np.linalg.solve = counting_step
        try:
            return fit(*a, **kw)
        finally:
            np.linalg.solve = solve_step

    search = design.line_search_max

    def counting_search(lam, zeta, anchor_labeling, eta_hat, scale, maximizer, *a, **kw):
        def asking(w):
            asked[0] += 1
            return maximizer(w)
        return search(lam, zeta, anchor_labeling, eta_hat, scale, asking, *a, **kw)

    solves = []
    solve = algorithms.smd_solve

    def timed_solve(*a, **kw):
        before, asked_before, steps_before, start = fits[0], asked[0], newton[0], time.perf_counter()
        rep = solve(*a, **kw)
        solves.append((rep.stop_reason, rep.iterations, asked[0] - asked_before, fits[0] - before,
                       newton[0] - steps_before, time.perf_counter() - start))
        return rep

    oracles._fit_logistic = counting_fit
    design.line_search_max = counting_search
    algorithms.smd_solve = timed_solve
    inst = linear_pool(args.n, args.p, args.seed)
    start = time.perf_counter()
    rec = aced_waterfilled(inst, T=args.T, epsilon=args.epsilon, seed=args.seed,
                           solver={"max_iters": args.max_iters},
                           line_search_iters=args.line_search_iters)
    wall = time.perf_counter() - start

    print(f"{'solve':>5} {'stop_reason':>12} {'iterations':>10} {'asked':>9} {'fits':>9} {'newton':>9}"
          f" {'seconds':>8}")
    for k, (reason, iters, n_asked, n_fits, n_steps, secs) in enumerate(solves, start=1):
        print(f"{k:>5} {reason:>12} {iters:>10} {n_asked:>9} {n_fits:>9} {n_steps:>9} {secs:>8.2f}")
    print(f"total: {fits[0]} fits, {newton[0]} newton steps in {wall:.2f} s, {len(rec.queries)} labels")


if __name__ == "__main__":
    main()
