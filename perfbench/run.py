#!/usr/bin/env python3
"""Benchmark entry point for the ``aced`` package.

    python3 perfbench/run.py --workload sweep_core_tail --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else. One process does all the work
(``bench.run`` with ``workers=1``); BENCHMARK.json pins the BLAS thread
count to 1 through the command's environment. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Outputs go to
``.perfbench_out/<workload>/``; see perfbench/README.md for the workloads
and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

SETUP_REPEATS = 9
OUT_ROOT = Path(".perfbench_out")
# The probe's time at the reference speed. Every reported time is scaled
# to that speed by the probes taken just before and after it: on a shared
# host the same code runs up to twice as fast in one minute as in the next,
# and a time scaled by the probe drifts far less (see README.md).
REFERENCE_PROBE_S = 0.002


def probe_s(repeats: int = 11) -> float:
    """Median time of a fixed mix of small numpy calls and Python loop
    work, the kind of code the package spends its time in. It calls
    nothing in the package, so a change to the package cannot move it."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        v = np.full(16, 0.5)
        for _ in range(200):
            v = np.exp(-(a @ v)) / (1.0 + float(np.max(v)))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fresh_import(src: Path):
    """Import the package anew, so every set-up pays the module load."""
    for name in [m for m in sys.modules if m == "aced" or m.startswith("aced.")]:
        del sys.modules[name]
    import aced
    import aced.bench
    import aced.cli  # noqa: F401  (what `aced run` loads)

    if Path(aced.__file__).resolve().parent != (src / "aced").resolve():
        raise SystemExit(f"imported aced from {aced.__file__}, not from {src}")
    return aced


def platform_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "aced" / "__init__.py").is_file():
        print(f"no package source at {src}/aced: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("ACED_OUT_DIR", None)  # bench.run would write there instead

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out = OUT_ROOT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed, out)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup_raw, setup_probes = [], [probe_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        aced = fresh_import(src)
        if tracer is not None:
            tracer.install(aced)
        state = workload.setup(aced, inputs)
        setup_raw.append(time.perf_counter() - start)
        setup_probes.append(probe_s())

    # one cycle untimed first: first calls pay for cold caches and lazy set-up
    if tracer is not None:
        tracer.set_phase("warmup")
    warmup = [workload.round(state, r, tracer) for r in range(workload.CYCLE)]
    if tracer is not None:
        tracer.set_phase("timed")
    rounds, probes = [], [probe_s()]
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(state, len(rounds), tracer))
        probes.append(probe_s())
        if time.perf_counter() - start >= args.seconds and len(rounds) % workload.CYCLE == 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = workload.check(state)
    for msg in bad[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    setup_scale, scale = speed_factors(setup_probes), speed_factors(probes)
    timings = summarize(rounds, scale, workload.CYCLE)
    timings["setup_s"] = statistics.median(t * f for t, f in zip(setup_raw, setup_scale))
    raw = summarize(rounds, [1.0] * len(rounds), workload.CYCLE)
    raw["setup_s"] = statistics.median(setup_raw)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
            "operations": timings.pop("operations"), "samples": timings.pop("samples"),
            "scaled": {k: timings[k] for k in ("setup_s", "wall_s", "run_ms_p50", "run_ms_p90")},
            "unscaled": {k: raw[k] for k in ("setup_s", "wall_s", "run_ms_p50", "run_ms_p90")},
            "probe_ms_median": 1e3 * statistics.median(probes),
            **workload.info(state), **platform_info()}
    if tracer is not None:
        from tracer import metric_names

        units = {name: unit for name, unit, _ in metric_names()}
        per_layer = tracer.per_layer(len(rounds), SETUP_REPEATS, statistics.median(scale),
                                     statistics.median(setup_scale))
        metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
        tracer.dump(out / "trace.jsonl")
    else:
        units = {"setup_s": "s", "wall_s": "s", "run_ms_p50": "ms", "run_ms_p90": "ms"}
        metrics = {name: {"value": timings[name], "unit": unit} for name, unit in units.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    (out / "run.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=2))
    print(json.dumps(info, sort_keys=True))
    done = warmup + rounds
    print(json.dumps({"correct": not bad, "attempted": sum(r["attempted"] for r in done),
                      "failed": sum(r["failed"] for r in done), "metrics": metrics}))
    return 0


def speed_factors(probes) -> list:
    """For each measurement between two probes, the reference probe time
    over the mean of those two probes: multiplying a time by it gives the
    time at the reference speed."""
    return [2.0 * REFERENCE_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


def summarize(rounds, factors, cycle: int) -> dict:
    """wall_s, the median time of a cycle of rounds, and the per-operation
    percentiles, each round's times scaled by its factor. An operation
    replayed in several rounds counts once, at the median of its replays."""
    samples = {}
    for r, f in zip(rounds, factors):
        for op, t in r["op_s"].items():
            samples.setdefault(op, []).append(t * 1e3 * f)
    op_ms = [statistics.median(v) for v in samples.values()]
    walls = [r["wall_s"] * f for r, f in zip(rounds, factors)]
    return {"wall_s": statistics.median(sum(walls[i:i + cycle]) for i in range(0, len(walls), cycle)),
            "run_ms_p50": statistics.median(op_ms),
            "run_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[-1],
            "operations": len(op_ms), "samples": sum(len(v) for v in samples.values())}


if __name__ == "__main__":
    sys.exit(main())
