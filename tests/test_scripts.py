"""Smoke tests for the command-line scripts under scripts/."""
import os
import subprocess
import sys
from pathlib import Path

from aced.oracles import ORACLE_MAX_ITER

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_threshold_benchmark_same_curves_sequential_and_pooled(tmp_path):
    curves = []
    for workers in (1, 2):
        proc = _run_script("threshold_benchmark.py", "--n", "8", "--budget", "6", "--replicates", "1",
                           "--workers", str(workers), "--out", str(tmp_path / f"w{workers}"))
        assert proc.returncode == 0, proc.stderr
        assert "failures" not in proc.stdout
        # the first line names the output directory, which differs per run
        curves.append([ln for ln in proc.stdout.splitlines() if ln and not ln.startswith("results in")])
    assert curves[0] == curves[1]
    assert {ln.split()[0] for ln in curves[0][1:]} == {
        "aced_waterfilled", "iwal", "passive", "uniform_disagreement"}


def test_complexity_sweep_prints_core_tail_closed_forms():
    # at epsilon = 0 on core-tail m = 2: rho* = 4 m^2/(m+1)^2 = 16/9, psi* = 2
    proc = _run_script("complexity_sweep.py", "--ms", "2", "--mc-samples", "200")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[3:6] == ["rho*", "gamma*", "psi*"]
    fields = row.split()
    assert fields[:2] == ["2", "6"]
    assert fields[3] == "1.778" and fields[5] == "2.00"


def test_oracle_probe_prints_each_solve_and_the_run_total():
    proc = _run_script("oracle_probe.py", "--n", "24", "--p", "3", "--T", "8", "--epsilon", "0.25",
                       "--line-search-iters", "4", "--max-iters", "4")
    assert proc.returncode == 0, proc.stderr
    header, *solves, total = proc.stdout.splitlines()
    assert header.split() == ["solve", "stop_reason", "iterations", "asked", "fits", "newton", "seconds"]
    assert [row.split()[0] for row in solves] == ["1", "2"]  # two rounds of N_batch = 6
    assert all(row.split()[1] == "cap" and row.split()[2] == "4" for row in solves)
    # the oracle sees max(b0, 2) = 16 draws per iteration (DEFAULT_SOLVER's b0),
    # each a line search asking at most line_search_iters = 4 weight vectors
    asked, fits, newton = ([int(row.split()[k]) for row in solves] for k in (3, 4, 5))
    assert all(f <= a <= 4 * 16 * 4 for a, f in zip(asked, fits))
    # before the first label eta-hat is 1/2, so each round-1 search asks one
    # weight vector, one fit: 4 iterations x 16
    assert asked[0] == fits[0] == 4 * 16
    # a Newton step is a linear solve inside a fit, at most ORACLE_MAX_ITER a fit
    assert all(0 < steps <= ORACLE_MAX_ITER * f for f, steps in zip(fits, newton))
    fields = total.split()
    assert fields[0] == "total:" and fields[2] == "fits," and fields[4:6] == ["newton", "steps"]
    assert fields[-2:] == ["8", "labels"]
    assert int(fields[1]) >= sum(fits) > 0
    assert int(fields[3]) >= sum(newton)
