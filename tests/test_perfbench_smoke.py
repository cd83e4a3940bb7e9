"""One traced benchmark run per workload, checked for correctness.

perfbench/run.py imports the package from ./src and writes .perfbench_out
under the working directory, so each run happens in a temporary directory
whose src links to the checkout's. A rename of a function the tracer wraps,
or an output that the workload checks reject, fails here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_core_tail", "fc_thresholds", "oracle_linear_csv", "complexity_grid")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_traced_run_is_correct(workload, tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the first timed round replays the warm-up's seed, whose design solves
    # the round memo serves, so the sweep also runs rounds on fresh seeds
    seconds = "1" if workload == "sweep_core_tail" else "0"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    if workload == "fc_thresholds":
        # the tracer's chaining hook counts slabs from len(log) of the round's log
        for name in ("estimators.chaining_estimate.calls", "estimators.chaining_estimate.slabs",
                     "core.labels.queried"):
            assert result["metrics"][name]["value"] > 0
        # the tracer wraps estimated_errors_all on aced.algorithms by name:
        # a round that scores its survivors another way reads 0
        assert result["metrics"]["estimators.estimated_errors_all.ms"]["value"] > 0
        # the counting cache sees each round's one lookup, and nearly all hit
        hits, misses = (result["metrics"][f"algorithms.design_cache.{name}"]["value"]
                        for name in ("hits", "misses"))
        assert hits > 10 * misses
    if workload in ("sweep_core_tail", "oracle_linear_csv"):
        # the tracer wraps these two on aced.algorithms by name, and both
        # workloads run aced_waterfilled: a rename or a moved call reads 0
        for name in ("design.waterfill.ms", "design.sample_unique.ms"):
            assert result["metrics"][name]["value"] > 0
    if workload == "complexity_grid":
        # the tracer wraps smd_solve and gap_objective on aced.complexity by
        # name: a gamma* that solves another way reads 0
        for name in ("design.smd_solve.true_gap.ms", "design.smd_solve.true_gap.iters",
                     "design.gap_objective.ms"):
            assert result["metrics"][name]["value"] > 0
    if workload == "sweep_core_tail":
        # and on aced.algorithms, where the fixed-budget rounds solve
        for name in ("design.smd_solve.fixed_budget.ms", "design.gap_objective.ms"):
            assert result["metrics"][name]["value"] > 0
    if workload == "oracle_linear_csv":
        # iwal's streaming fits reach the oracle module's names at call time
        for name in ("oracles.erm_logistic.calls", "oracles.erm_flip_constrained.calls"):
            assert result["metrics"][name]["value"] > 0
