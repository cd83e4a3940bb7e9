"""Command-line entry points: run, complexity, instance, plotdata."""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import bench
from .bench import ConfigError, StdinLabelModel, build_instance, load_config
from .complexity import complexity_report
from .core import ImplicitClassError, Instance


def _at_least(cast, low, what):
    """An argparse type: cast(text), finite and at least low, else an
    error naming the flag."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _cmd_run(args):
    config = load_config(args.config)
    if args.label_source == "stdin":
        inst = build_instance(config.instance)
        interactive = StdinLabelModel(inst.n, ids=inst.pool.ids)
        inst = Instance(pool=inst.pool, hypotheses=inst.hypotheses, labels=interactive)
        paths = bench.run(config, out_dir=args.out, instance=inst)
    else:
        paths = bench.run(config, out_dir=args.out, workers=args.workers)
    print(json.dumps(paths, indent=2))
    return 1 if paths.get("errors") else 0


def _cmd_complexity(args):
    config = load_config(args.config)
    instance = build_instance(config.instance)
    rep = complexity_report(instance, epsilon=args.epsilon, mc_samples=args.mc_samples)
    records = [
        {"measure": "rho_star", "value": rep.rho_star.value, "spread": rep.rho_star.certificate,
         "converged": rep.rho_star.converged},
        {"measure": "gamma_star", "value": rep.gamma_star.value, "spread": rep.gamma_star.stderr,
         "converged": rep.gamma_star.converged},
        {"measure": "psi_star", "value": rep.psi_star.value, "spread": rep.psi_star.certificate,
         "converged": rep.psi_star.converged},
    ]
    for xi, th in sorted(rep.theta.items()):
        records.append({"measure": f"theta@{xi:g}", "value": th, "spread": 0.0, "converged": True})
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "jsonl":
        path = out_dir / "complexity.jsonl"
        with open(path, "w") as fh:
            for r in records:
                fh.write(json.dumps({"epsilon": args.epsilon, **r}, sort_keys=True) + "\n")
    else:
        path = out_dir / "complexity.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epsilon", "measure", "value", "spread", "converged"])
            for r in records:
                w.writerow([f"{args.epsilon:g}", r["measure"], f"{r['value']:.10g}", f"{r['spread']:.10g}",
                            json.dumps(r["converged"])])
    print(str(path))
    return 0


def _cmd_instance(args):
    params = {}
    for kv in args.param or []:
        key, _, val = kv.partition("=")
        params[key.replace("-", "_")] = bench._coerce(val)
    instance = build_instance({**params, "generator": args.generator})
    paths = bench.export_instance(instance, args.out)
    print(json.dumps(paths, indent=2))
    return 0


def _cmd_plotdata(args):
    rows = bench.read_results_csv(args.results)
    path = Path(args.out or "curves.csv")
    bench.write_curves(bench.emit_plotdata(rows), path)
    print(str(path))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aced",
                                     description="active classification benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a benchmark config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (default: the config's output_dir)")
    p.add_argument("--workers", type=int, default=1, help="process pool size")
    p.add_argument("--label-source", choices=["model", "stdin"], default="model")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("complexity", help="emit a complexity report for a config's instance")
    p.add_argument("config")
    # epsilon 0 is the unfloored measure; a spread needs two draws
    p.add_argument("--epsilon", type=_at_least(float, 0.0, "a finite number >= 0"), default=0.1)
    p.add_argument("--mc-samples", type=_at_least(int, 2, "an integer >= 2"), default=4000)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("instance", help="generate and export an instance")
    p.add_argument("generator")
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_instance)

    p = sub.add_parser("plotdata", help="aggregate a results.csv into curves")
    p.add_argument("results")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plotdata)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ImplicitClassError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
