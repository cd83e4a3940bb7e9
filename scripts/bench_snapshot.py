#!/usr/bin/env python3
"""Write BENCH_<tag>.json: every benchmark workload, untraced and traced.

    python3 scripts/bench_snapshot.py --tag <tag> [--seed 1] [--seconds 8]

For each workload in BENCHMARK.json, in its order, this runs the file's
command (perfbench/run.py under its BLAS thread pins) with --trace 0 and
then --trace 1, at the given seed and --seconds. A traced sweep_core_tail
runs for at least 1 s: at 0 its one timed round replays the warm-up's seed
from the round memo, and every solve metric reads 0. Each run happens in a
temporary directory whose src links to this checkout's src, so the
benchmark's outputs (.perfbench_out) stay out of the checkout.

The two lines each run prints, the facts line and the result line, are
kept as they are, under workloads.<name>.trace0 and .trace1. Beside them
sit the checkout's git HEAD (and whether the tree differs from it), the
Python, numpy and scipy versions and nproc the benchmark reported, the
seed and the seconds. The file goes to the checkout's root, or to --out.
--workload (repeatable) runs only the named workloads. Exits 1 without
writing the file when a run fails or its outputs fail their checks.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600


def _git(*args) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(command, cwd, workload, seed, seconds, trace) -> dict:
    """One benchmark run: {"facts": facts line, "result": result line}."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    facts, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} --trace {trace} failed its checks: {proc.stderr.strip()}")
    return {"facts": facts, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory for BENCH_<tag>.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the command names its script relative to the checkout's root
    command = [str(ROOT / part) if (ROOT / part).is_file() else part for part in spec["command"]]
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {names}", file=sys.stderr)
        return 2
    chosen = [n for n in names if args.workload is None or n in args.workload]

    workloads = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "src").symlink_to(ROOT / "src")
            for name in chosen:
                traced_seconds = max(args.seconds, 1.0) if name == "sweep_core_tail" else args.seconds
                workloads[name] = {
                    "trace0": _run(command, tmp, name, args.seed, args.seconds, 0),
                    "trace1": _run(command, tmp, name, args.seed, traced_seconds, 1),
                }
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    facts = workloads[chosen[0]]["trace0"]["facts"]
    snapshot = {
        "tag": args.tag,
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        **{key: facts[key] for key in ("python", "numpy", "scipy", "nproc")},
        "seed": args.seed,
        "seconds": args.seconds,
        "command": spec["command"],
        "workloads": workloads,
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
