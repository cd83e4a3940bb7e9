"""Smoke tests for the command-line scripts under scripts/."""
import os
import subprocess
import sys
from pathlib import Path

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
