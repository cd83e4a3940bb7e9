#!/usr/bin/env python3
"""Where optimized designs beat uniform disagreement sampling, in numbers.

Sweeps the core-tail family: the disagreement coefficient grows like the
pool-size square root while the design complexities stay bounded, so the
ratio widens with m.

    python3 scripts/complexity_sweep.py --ms 2 4 6 8
"""
import argparse
import math

from aced.complexity import (
    disagreement_coefficient,
    gamma_star,
    make_core_tail_instance,
    psi_star,
    rho_star,
)

SOLVER = {"tol": 1e-4, "rel_tol": 0.02, "max_iters": 6000, "max_batch": 2048}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ms", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--mc-samples", type=int, default=3000)
    args = ap.parse_args()

    print(f"{'m':>3} {'n':>4} {'theta':>7} {'rho*':>7} {'gamma*':>8} {'psi*':>7} "
          f"{'theta/rho*':>10} {'sqrt(n)':>8}")
    for m in args.ms:
        inst = make_core_tail_instance(m)
        hc, lb = inst.hypotheses, inst.labels
        theta = disagreement_coefficient(hc, lb, 0.01)
        rho = rho_star(hc, lb, 0.0).value
        gam = gamma_star(hc, lb, 0.0, mc_samples=args.mc_samples, solver=SOLVER).value
        psi = psi_star(hc, lb, 0.0).value
        print(f"{m:>3} {inst.n:>4} {theta:>7.2f} {rho:>7.3f} {gam:>8.3f} {psi:>7.2f} "
              f"{theta / rho:>10.2f} {math.sqrt(inst.n):>8.2f}")


if __name__ == "__main__":
    main()
