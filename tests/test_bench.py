import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aced import bench, cli
from aced.algorithms import RunRecord
from aced.bench import (
    ConfigError,
    ResultRow,
    StdinLabelModel,
    build_instance,
    emit_plotdata,
    export_instance,
    ingest_csv,
    load_config,
    read_results_csv,
    run,
)
from aced.complexity import make_thresholds
from aced.core import gap_table


def write_config(tmp_path, body):
    p = tmp_path / "config.ini"
    p.write_text(body)
    return p


BASE = """
[instance]
generator = thresholds
n = 8
k_star = 5
eps = 1.0
persistent = true
seed = 5

[run]
seeds = {seeds}
holdout_fraction = {holdout}
output_dir = {out}

[algorithm passive]
T = 8
"""


def test_load_config_and_validation(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE.format(seeds="0,1", holdout=0.0, out=tmp_path)))
    assert cfg.seeds == [0, 1]
    assert cfg.algorithms[0][1] == "passive"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, BASE.format(seeds="0", holdout=0.9, out=tmp_path)))
    bad = BASE.format(seeds="0", holdout=0.0, out=tmp_path) + "\n[algorithm bogus]\nT = 3\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))
    missing = BASE.format(seeds="0", holdout=0.0, out=tmp_path).replace(
        "generator = thresholds", "labels_csv = /nonexistent/file.csv"
    )
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, missing))


def test_run_passive_full_budget_matches_full_data_erm(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o")))
    paths = run(cfg)
    assert not paths["errors"]
    rows = read_results_csv(paths["results"])
    inst = make_thresholds(8, 5, 1.0, persistent=True, seed=5)
    gt = gap_table(inst.hypotheses, inst.labels)
    final = max(rows, key=lambda r: r.queries)
    truth = inst.labels.realized_labels()
    best_acc = float(np.mean(inst.hypotheses.labelings[gt.h_star] == truth))
    assert final.pool_acc == pytest.approx(best_acc, abs=1e-12)


def test_run_determinism_and_seed_order_independence(tmp_path):
    c1 = load_config(write_config(tmp_path, BASE.format(seeds="0,1,2", holdout=0.0, out=tmp_path / "a")))
    p1 = run(c1)
    body1 = [l for l in open(p1["results"]).read().splitlines() if not l.startswith("#")]
    curves1 = open(p1["curves"]).read()

    c2 = load_config(write_config(tmp_path, BASE.format(seeds="2,0,1", holdout=0.0, out=tmp_path / "b")))
    p2 = run(c2)
    body2 = [l for l in open(p2["results"]).read().splitlines() if not l.startswith("#")]
    assert body1 == body2
    assert curves1 == open(p2["curves"]).read()

    p3 = run(c1, out_dir=tmp_path / "c")
    body3 = [l for l in open(p3["results"]).read().splitlines() if not l.startswith("#")]
    assert body1 == body3


def test_run_replicates_average_in_curves(tmp_path):
    body = BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o").replace(
        "seeds = 0", "replicates = 10\nseed0 = 0"
    )
    cfg = load_config(write_config(tmp_path, body))
    assert cfg.seeds == list(range(10))
    paths = run(cfg)
    curves = open(paths["curves"]).read().splitlines()
    assert curves[0] == "algorithm,queries,mean_acc,std_acc"
    assert len(curves) >= 2


CORE_TAIL = """
[instance]
generator = core_tail
m = 4
persistent = true
seed = 3

[run]
seeds = 0,1,2
output_dir = {out}

[algorithm aced_fixed_budget:naive]
T = 60
epsilon = 0.1
estimator_kind = naive

[algorithm aced_fixed_budget:ips]
T = 60
epsilon = 0.1
estimator_kind = ips

[algorithm aced_fixed_budget_efficient]
T = 60
epsilon = 0.1

[algorithm aced_waterfilled]
T = 12
epsilon = 0.1
N_batch = 4
"""


def test_run_outputs_do_not_depend_on_the_round_memo(tmp_path, monkeypatch):
    # the fixed-budget rounds of later seeds hit solves memoized by earlier
    # ones; with the memo emptied before every run they solve afresh
    from aced import algorithms

    solves, solve, task = [], algorithms.smd_solve, bench._task

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def cold_task(*args):
        algorithms._ROUND_SOLVES.clear()
        return task(*args)

    monkeypatch.setattr(algorithms, "smd_solve", counted_solve)
    cfg = load_config(write_config(tmp_path, CORE_TAIL.format(out=tmp_path / "o")))
    warm = run(cfg, out_dir=tmp_path / "warm")
    warm_solves = len(solves)
    monkeypatch.setattr(bench, "_task", cold_task)
    cold = run(cfg, out_dir=tmp_path / "cold")
    assert warm_solves < len(solves) - warm_solves
    for key in ("results", "curves", "records"):
        assert _body(warm[key]) == _body(cold[key])


def test_holdout_never_queried_and_scored(tmp_path):
    body = BASE.format(seeds="0,1", holdout=0.25, out=tmp_path / "o")
    cfg = load_config(write_config(tmp_path, body))
    paths = run(cfg)
    assert not paths["errors"]
    meta = json.load(open(paths["meta"]))
    hold = set(meta["holdout_indices"])
    assert len(hold) == 2  # round(0.25 * 8)
    rows = read_results_csv(paths["results"])
    assert any(r.holdout_acc is not None for r in rows)


def test_zero_query_run_is_scored_on_the_holdout(tmp_path):
    body = (BASE.format(seeds="0", holdout=0.25, out=tmp_path / "o")
            .replace("n = 8", "n = 12").replace("T = 8", "T = 3")
            + "\n[algorithm passive:zero]\nT = 0\n")
    cfg = load_config(write_config(tmp_path, body))
    paths = run(cfg)
    assert not paths["errors"]
    zero = [r for r in read_results_csv(paths["results"]) if r.algorithm == "passive:zero"]
    assert [r.queries for r in zero] == [0]
    with open(paths["records"]) as fh:
        rec = next(r for r in map(RunRecord.from_jsonl, fh) if not r.params["T"])
    full = build_instance(cfg.instance)
    holdout_idx = np.array(json.load(open(paths["meta"]))["holdout_indices"])
    assert holdout_idx.size == 3
    want = bench._score(full.hypotheses.labeling(rec.returned), full.labels, holdout_idx)
    assert zero[0].holdout_acc == pytest.approx(want, abs=1e-10)


def test_ingest_csv_paths(tmp_path):
    feats = tmp_path / "features.csv"
    labs = tmp_path / "labels.csv"
    feats.write_text("id,f0,f1\na,0.0,1.0\nb,1.0,0.0\nc,0.2,0.9\nd,0.9,0.1\n")
    labs.write_text("id,y\na,1\nb,0\nc,1\nd,0\n")
    inst = ingest_csv(str(feats), str(labs))
    assert inst.n == 4
    assert inst.labels.persistent
    assert not inst.hypotheses.explicit

    labs.write_text("id,y\na,2\nb,0\nc,1\nd,0\n")
    with pytest.raises(ConfigError) as exc:
        ingest_csv(str(feats), str(labs))
    assert ":2:" in str(exc.value)  # line number reported


def test_ingest_csv_rejects_non_finite_features(tmp_path):
    labs = tmp_path / "labels.csv"
    labs.write_text("id,y\na,1\nb,0\nc,1\n")
    feats = tmp_path / "features.csv"
    for bad in ("nan", "inf", "-inf"):
        feats.write_text(f"id,f0,f1\na,0.0,1.0\nb,1.0,0.0\nc,0.2,{bad}\n")
        with pytest.raises(ConfigError) as exc:
            ingest_csv(str(feats), str(labs))
        assert f"{feats}:4:" in str(exc.value)


@pytest.mark.parametrize("features, labels, named, detail", [
    # ids in another order used to be paired row by row
    ("id,f0\nb,0.0\na,1.0\n", "id,y\na,1\nb,0\n", "features", ":2: id 'b' where "),
    ("id,f0\na,0.0\nb,1.0\n", "id,y\na,1\na,0\n", "labels", ":3: id 'a' repeats line 2"),
    ("id,f0\na,0.0\n", "", "labels", ": header must be id,eta or id,y"),
    ("", "id,y\na,1\n", "features", ": feature columns must be f0..f{p-1}"),
    ("id,f0\n", "id,y\n", "labels", ": no examples below the header"),
    ("id,f0\n", "id,y\na,1\n", "features", ": 0 rows, but "),
])
def test_ingest_csv_rejects_a_pool_it_cannot_pair(tmp_path, features, labels, named, detail):
    paths = {"features": tmp_path / "features.csv", "labels": tmp_path / "labels.csv"}
    paths["features"].write_text(features)
    paths["labels"].write_text(labels)
    with pytest.raises(ConfigError) as exc:
        ingest_csv(str(paths["features"]), str(paths["labels"]))
    assert str(exc.value).startswith(str(paths[named])) and detail in str(exc.value)


def test_instance_export_import_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    from aced.core import HypothesisClass, Instance, LabelModel, Pool
    from aced.oracles import LinearOracleClass

    X = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5).astype(float)
    inst = Instance(Pool(n=5, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(y, persistent=True, seed=0))
    paths = export_instance(inst, tmp_path / "inst")
    back = ingest_csv(paths["features"], paths["labels"])
    assert np.allclose(back.pool.features, X)
    assert np.array_equal(back.labels.realized_labels(), y.astype(np.int8))
    paths2 = export_instance(back, tmp_path / "inst2")
    assert open(paths["labels"]).read() == open(paths2["labels"]).read()
    assert open(paths["features"]).read() == open(paths2["features"]).read()


def test_emit_plotdata_fixtures():
    rows = [ResultRow("a", 0, 5, 0.7, None)]
    out = emit_plotdata(rows)
    assert out == [("a", 5, 0.7, 0.0)]

    # decreasing raw accuracy: running max flattens after the peak
    rows = [ResultRow("a", 0, 1, 0.9, None), ResultRow("a", 0, 2, 0.5, None),
            ResultRow("a", 0, 3, 0.6, None)]
    out = emit_plotdata(rows)
    assert [v for (_, _, v, _) in out] == [0.9, 0.9, 0.9]

    # hand-computed three-row fixture across two seeds
    rows = [ResultRow("a", 0, 1, 0.5, None), ResultRow("a", 1, 1, 0.7, None),
            ResultRow("a", 0, 2, 0.8, None), ResultRow("a", 1, 2, 0.6, None)]
    out = emit_plotdata(rows)
    assert out[0] == ("a", 1, pytest.approx(0.6), pytest.approx(0.1))
    assert out[1] == ("a", 2, pytest.approx(0.75), pytest.approx(0.05))


def test_stdin_label_model_prompts_once_per_index():
    answers = iter(["1", "0", "1"])
    model = StdinLabelModel(3, prompt=lambda msg: next(answers))
    assert model.query(0) == 1
    assert model.query(0) == 1  # cached, no new prompt
    assert model.query_many([1, 2]).tolist() == [0, 1]


def test_cli_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o"))
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "o" / "results.csv").exists()

    assert cli.main(["complexity", str(cfg), "--epsilon", "0.2", "--out", str(tmp_path)]) == 0
    assert cli.main(["complexity", str(cfg), "--epsilon", "0.2", "--out", str(tmp_path),
                     "--format", "jsonl"]) == 0
    with open(tmp_path / "complexity.csv") as fh:
        csv_rows = list(csv.DictReader(fh))
    with open(tmp_path / "complexity.jsonl") as fh:
        jsonl_rows = [json.loads(line) for line in fh]
    assert [r["measure"] for r in csv_rows] == [r["measure"] for r in jsonl_rows]
    assert len(csv_rows) >= 4
    for c, j in zip(csv_rows, jsonl_rows):
        assert float(c["epsilon"]) == j["epsilon"]
        assert float(c["value"]) == pytest.approx(j["value"], rel=1e-9, abs=1e-12)
        assert float(c["spread"]) == pytest.approx(j["spread"], rel=1e-9, abs=1e-12)
        assert json.loads(c["converged"]) is j["converged"]

    assert cli.main(["instance", "core_tail", "--out", str(tmp_path / "i"),
                     "--param", "m=2"]) == 0
    assert (tmp_path / "i" / "labelings.csv").exists()

    assert cli.main(["plotdata", str(tmp_path / "o" / "results.csv"),
                     "--out", str(tmp_path / "c.csv")]) == 0
    assert (tmp_path / "c.csv").read_text().startswith("algorithm,queries")
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "-0.5"),  # computed the epsilon = 0 result under a -0.5 label
    ("--epsilon", "nan"),  # IndexError
    ("--epsilon", "inf"),
    ("--mc-samples", "0"),  # ZeroDivisionError
    ("--mc-samples", "1"),  # a nan spread
])
def test_cli_complexity_rejects_arguments_it_cannot_use(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["complexity", str(cfg), flag, value, "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cli_complexity_reports_a_capped_solve(tmp_path, monkeypatch, capsys):
    import aced.design

    monkeypatch.setattr(aced.design, "RHO_MAX_ITERS", 1)
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o"))
    assert cli.main(["complexity", str(cfg), "--out", str(tmp_path)]) == 0
    assert cli.main(["complexity", str(cfg), "--out", str(tmp_path), "--format", "jsonl"]) == 0
    with open(tmp_path / "complexity.csv") as fh:
        csv_converged = {r["measure"]: r["converged"] for r in csv.DictReader(fh)}
    with open(tmp_path / "complexity.jsonl") as fh:
        jsonl_converged = {r["measure"]: r["converged"] for r in map(json.loads, fh)}
    assert csv_converged["rho_star"] == "false" and jsonl_converged["rho_star"] is False
    assert csv_converged["psi_star"] == "true" and jsonl_converged["psi_star"] is True
    assert all(jsonl_converged[k] for k in jsonl_converged if k.startswith("theta@"))
    capsys.readouterr()


def test_cli_complexity_accepts_epsilon_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o"))
    assert cli.main(["complexity", str(cfg), "--epsilon", "0", "--mc-samples", "2",
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "complexity.csv") as fh:
        assert {r["epsilon"] for r in csv.DictReader(fh)} == {"0"}
    capsys.readouterr()


def test_cli_run_reads_labels_from_stdin(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o"))
    original = bench.build_instance
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n0\n1\n1\n0\n0\n1\n0\n"))
    assert cli.main(["run", str(cfg), "--label-source", "stdin"]) == 0
    capsys.readouterr()
    for name in ("results.csv", "curves.csv", "runrecords.jsonl", "meta.json"):
        assert (tmp_path / "o" / name).exists()
    rec = json.loads((tmp_path / "o" / "runrecords.jsonl").read_text())
    assert [q[3] for q in rec["queries"]] == [1, 0, 1, 1, 0, 0, 1, 0]
    assert bench.build_instance is original
    with pytest.raises(ValueError):
        run(load_config(cfg), instance=build_instance(load_config(cfg).instance), workers=2)


def test_cli_run_stdin_rejects_a_holdout(tmp_path, monkeypatch, capsys):
    # held-out points have no labels to score against, and none is prompted for
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.25, out=tmp_path / "o"))
    stdin = io.StringIO("1\n0\n1\n1\n0\n0\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert cli.main(["run", str(cfg), "--label-source", "stdin"]) == 2
    assert "holdout_fraction must be 0" in capsys.readouterr().err
    assert stdin.tell() == 0


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=tmp_path / "ignored")))
    target = tmp_path / "env_out"
    monkeypatch.setenv("ACED_OUT_DIR", str(target))
    paths = run(cfg)
    assert Path(paths["results"]).parent == target


def test_run_records_failures_and_continues(tmp_path):
    body = BASE.format(seeds="0", holdout=0.0, out=tmp_path / "o")
    body += "\n[algorithm aced_fixed_budget]\nT = 1\nepsilon = 0.1\n"  # too small: fails
    cfg = load_config(write_config(tmp_path, body))
    paths = run(cfg)
    assert len(paths["errors"]) == 1
    assert "budget" in paths["errors"][0]["error"]
    rows = read_results_csv(paths["results"])
    assert any(r.algorithm == "passive" for r in rows)  # the sweep survived


@pytest.mark.parametrize("section, key", [
    ("[algorithm iwal]\nC0 = 0.01\nmargin = 0.001\n", "margin"),  # a constant, not a parameter
    ("[algorithm aced_fixed_budget]\nT = 8\nepsilon = 0.25\nestimator_knd = naive\n",
     "estimator_knd"),
    ("[algorithm passive:solved]\nT = 8\nsolver_max_iters = 2\n", "solver_max_iters"),
    ("[algorithm aced_fixed_budget]\nT = 8\nepsilon = 0.25\nsolver_max_iter = 2\n",
     "solver_max_iter"),
    ("[algorithm aced_fixed_budget]\nT = 8\nepsilon = 0.25\nsolver = fast\n", "solver"),
    ("[algorithm iwal]\nC0 = 0.01\nstream = 3\n", "stream"),  # the harness supplies it
    ("[algorithm aced_waterfilled]\nepsilon = 0.25\n", "T"),  # missing
    ("[algorithm passive]\nT = 4\n", None),  # BASE already has this section
    ("[algorithm iwal]\nC0 = 0.01\nC0 = 0.02\n", "C0"),
    # a design cache is an in-process dict shared across runs: a config
    # value (a string, or the bool "yes") failed every run at its first lookup
    ("[algorithm aced_fixed_confidence]\ndelta = 0.1\ndesign_cache = foo\n", "design_cache"),
    ("[algorithm aced_fixed_confidence]\ndelta = 0.1\ndesign_cache = yes\n", "design_cache"),
    ("[algorithm aced_fixed_budget]\nT = 8\nepsilon = 0.25\ndesign_cache = foo\n",
     "design_cache"),
    ("[algorithm iwal]\nC0 = 0.01\npasses = two\n", "passes"),  # passes: an integer >= 1
    ("[algorithm iwal]\nC0 = 0.01\npasses = 0\n", "passes"),
    ("[algorithm iwal]\nC0 = 0.01\npasses = -2\n", "passes"),
    ("[algorithm iwal]\nC0 = 0.01\npasses = 1.5\n", "passes"),
    # a budget: T an integer >= 0, N_batch an integer >= 1, bools refused
    ("[algorithm passive:negative]\nT = -2\n", "T"),
    ("[algorithm passive:bool]\nT = true\n", "T"),
    ("[algorithm uniform_disagreement]\nT = 2.5\n", "T"),
    ("[algorithm aced_fixed_budget]\nT = 8.5\nepsilon = 0.25\n", "T"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nN_batch = 1.5\n", "N_batch"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nN_batch = 0\n", "N_batch"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nN_batch = -3\n", "N_batch"),
    # line_search_iters: an integer >= 1, bools refused
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nline_search_iters = 0\n",
     "line_search_iters"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nline_search_iters = -3\n",
     "line_search_iters"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nline_search_iters = true\n",
     "line_search_iters"),
    ("[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\nline_search_iters = 2.5\n",
     "line_search_iters"),
])
def test_bad_algorithm_keys_are_rejected_where_they_enter(tmp_path, capsys, section, key):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=out) + "\n" + section)
    label = section.splitlines()[0]
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    named = [label] + ([repr(key)] if key else ["section repeated"])
    assert all(part in str(exc.value) for part in named)
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in named)
    assert not (out / "runrecords.jsonl").exists()


@pytest.mark.parametrize("key, value", [
    ("solver_max_iters", "0"),
    ("solver_tol", "-1"),
    ("solver_max_batch", "0"),
    ("solver_max_batch", "8"),  # below the default b0 = 16
    ("solver_b0", "0.5"),
    ("solver_max_halvings", "-1"),
    ("solver_eval_samples", "-1"),
    ("solver_eval_samples", "many"),
    ("solver_rel_tol", "abc"),
])
def test_bad_solver_settings_are_rejected_where_they_enter(tmp_path, capsys, key, value):
    # the same check smd_solve makes, before any run
    out = tmp_path / "o"
    section = f"[algorithm aced_waterfilled]\nT = 8\nepsilon = 0.25\n{key} = {value}\n"
    cfg = write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out=out) + "\n" + section)
    with pytest.raises(ConfigError, match=rf"^\[algorithm aced_waterfilled\]: {key} "):
        load_config(cfg)
    assert cli.main(["run", str(cfg)]) == 2
    assert f"{key} " in capsys.readouterr().err
    assert not (out / "runrecords.jsonl").exists()


def test_run_worker_pool_matches_sequential(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE.format(seeds="0,1", holdout=0.0,
                                                         out=tmp_path / "s")))
    p1 = run(cfg, out_dir=tmp_path / "s", workers=1)
    p2 = run(cfg, out_dir=tmp_path / "w", workers=2)

    def body(path):
        return [l for l in open(path).read().splitlines() if not l.startswith("#")]

    assert body(p1["results"]) == body(p2["results"])
    assert open(p1["records"]).read() == open(p2["records"]).read()


NON_PERSISTENT = """
[instance]
generator = thresholds
n = 8
k_star = 5
eps = 0.4
persistent = false
seed = 5

[run]
seeds = 0,1
holdout_fraction = {holdout}
output_dir = {out}
"""

NON_PERSISTENT_ALGORITHMS = ["""
[algorithm passive]
T = 6
""", """
[algorithm aced_fixed_budget]
T = 12
epsilon = 0.25
"""]


def _body(path):
    """A results file without its timestamp comment."""
    return "".join(l for l in open(path).read().splitlines(True) if not l.startswith("#"))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_run_non_persistent_labels_do_not_depend_on_schedule(tmp_path):
    # every run starts from the label model's initial state, so the
    # sequential schedule, the worker pool and the section order agree
    cfg = load_config(write_config(tmp_path, NON_PERSISTENT.format(holdout=0.0, out=tmp_path / "o")
                                   + "".join(NON_PERSISTENT_ALGORITHMS)))
    p1 = run(cfg, out_dir=tmp_path / "s", workers=1)
    p2 = run(cfg, out_dir=tmp_path / "w", workers=2)
    assert not p1["errors"] and not p2["errors"]
    records = open(p1["records"]).read()
    assert records == open(p2["records"]).read()
    assert _body(p1["results"]) == _body(p2["results"])
    # pinned from the worker pool, whose workers always start from a fresh label model
    assert _sha(records) == "4c9107c3eafb123d57b3268a5cb69f573fa690117d11436a137acbf4f126d87d"

    swapped = load_config(write_config(tmp_path, NON_PERSISTENT.format(holdout=0.0, out=tmp_path / "o")
                                       + "".join(reversed(NON_PERSISTENT_ALGORITHMS))))
    assert [a[1] for a in swapped.algorithms] == ["aced_fixed_budget", "passive"]
    p3 = run(swapped, out_dir=tmp_path / "r", workers=1)
    assert open(p3["records"]).read() == records


CSV_POOL = """
[instance]
features_csv = {feats}
labels_csv = {labels}

[run]
seeds = 0,1
holdout_fraction = 0.25
output_dir = {out}

[algorithm passive]
T = 6

[algorithm aced_waterfilled]
T = 6
epsilon = 0.25
N_batch = 3
line_search_iters = 3
solver_max_iters = 2
solver_b0 = 4
solver_max_batch = 8

[algorithm iwal]
C0 = 0.05
"""


def _write_csv_pool(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 2))
    y = (rng.random(12) < 1.0 / (1.0 + np.exp(-2.0 * (X[:, 0] - X[:, 1])))).astype(int)
    feats, labels = tmp_path / "features.csv", tmp_path / "labels.csv"
    feats.write_text("id,f0,f1\n" + "".join(f"p{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(X.tolist())))
    labels.write_text("id,y\n" + "".join(f"p{i},{v}\n" for i, v in enumerate(y.tolist())))
    return feats, labels


@pytest.mark.parametrize("workers", [1, 2])
def test_holdout_scores_on_oracle_class_and_non_persistent_labels(tmp_path, workers):
    # pinned results bodies: a holdout scored through an oracle-backed
    # class (CSV pool) and through label means (non-persistent thresholds)
    feats, labels = _write_csv_pool(tmp_path)
    cfg = load_config(write_config(tmp_path, CSV_POOL.format(feats=feats, labels=labels, out=tmp_path / "o")))
    paths = run(cfg, out_dir=tmp_path / "csv", workers=workers)
    assert not paths["errors"]
    rows = read_results_csv(paths["results"])
    assert all(r.holdout_acc is not None for r in rows)
    assert _sha(_body(paths["results"])) == "66e6e5dc2fb68b5b82d1e97e03190159518ae45646ee5e9e9447e3bd84a92fdc"

    cfg = load_config(write_config(tmp_path, NON_PERSISTENT.format(holdout=0.25, out=tmp_path / "o")
                                   + "".join(NON_PERSISTENT_ALGORITHMS)))
    paths = run(cfg, out_dir=tmp_path / "np", workers=workers)
    assert not paths["errors"]
    assert all(r.holdout_acc is not None for r in read_results_csv(paths["results"]))
    assert _sha(_body(paths["results"])) == "7b2a62994ca1c50823e92ecdcdf5bbe006a6771fd92fa9c0d9bfd4697027b7e4"


def test_run_fits_each_oracle_erm_once(tmp_path, monkeypatch):
    # curve scoring asks for plug-in ERMs the run already fitted; the oracle
    # class answers them from the fits it keeps. With none kept, the run
    # refits them, and its outputs are the same bytes
    from aced import oracles

    fits, fit = [], oracles._fit_logistic

    def counted(X, w, y, reg, tol, max_iter, **kwargs):
        if tol == oracles.ORACLE_TOL:  # the oracle's fits, not iwal's
            fits.append((X.tobytes(), w.tobytes(), y.tobytes()))
        return fit(X, w, y, reg, tol, max_iter, **kwargs)

    monkeypatch.setattr(oracles, "_fit_logistic", counted)
    feats, labels = _write_csv_pool(tmp_path)
    cfg = load_config(write_config(tmp_path, CSV_POOL.format(feats=feats, labels=labels, out=tmp_path / "o")))
    kept = run(cfg, out_dir=tmp_path / "kept")
    assert fits and len(fits) == len(set(fits))
    fitted = len(fits)
    monkeypatch.setattr(oracles, "ERM_FITS_KEPT", 0)
    refit = run(cfg, out_dir=tmp_path / "refit")
    assert len(fits) - fitted > fitted
    for key in ("results", "curves", "records"):
        assert _body(kept[key]) == _body(refit[key])


def test_pool_workers_build_the_instance_once_each(tmp_path, monkeypatch):
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("counting through an inherited wrapper needs forked workers")
    calls = tmp_path / "ingest_calls"
    original = bench.ingest_csv

    def counting(*args):
        with open(calls, "a") as fh:  # forked workers append to the same file
            fh.write("x")
        return original(*args)

    monkeypatch.setattr(bench, "ingest_csv", counting)
    feats, labels = _write_csv_pool(tmp_path)
    cfg = load_config(write_config(tmp_path, CSV_POOL.format(feats=feats, labels=labels, out=tmp_path / "o")))
    assert len(cfg.algorithms) * len(cfg.seeds) == 6
    pooled = run(cfg, out_dir=tmp_path / "w", workers=2)
    assert not pooled["errors"]
    assert len(calls.read_text()) <= 1 + 2  # the parent, then once per worker
    sequential = run(cfg, out_dir=tmp_path / "s", workers=1)
    assert open(pooled["records"]).read() == open(sequential["records"]).read()


def test_csv_pool_without_labels_file_is_rejected(tmp_path):
    feats, _ = _write_csv_pool(tmp_path)
    with pytest.raises(ConfigError, match="labels_csv is missing"):
        build_instance({"features_csv": str(feats)})


def test_csv_pool_without_features_file_is_rejected_before_parsing(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,y\na,2\n")  # a bad label that parsing would report first
    with pytest.raises(ConfigError, match="features_csv is missing"):
        build_instance({"labels_csv": str(labels)})


def test_bad_generator_parameters_are_rejected_where_they_enter(tmp_path, capsys):
    with pytest.raises(ConfigError, match="'core_tail'.*unexpected keyword argument 'mm'"):
        build_instance({"generator": "core_tail", "mm": 3})
    with pytest.raises(ConfigError, match="'thresholds'.*missing a required argument: 'k_star'"):
        build_instance({"generator": "thresholds", "n": 4})
    with pytest.raises(ConfigError, match="'tsybakov'.*unexpected keyword argument 'm'"):
        build_instance({"generator": "tsybakov", "n": 8, "a": 1.0, "alpha": 0.5, "m": 2})
    assert cli.main(["instance", "thresholds", "--param", "n=4", "--out", str(tmp_path / "i")]) == 2
    assert "'thresholds'" in capsys.readouterr().err and not (tmp_path / "i").exists()
    assert cli.main(["instance", "nope", "--out", str(tmp_path / "i")]) == 2
    assert "choices: ['core_tail', 'thresholds', 'tsybakov']" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("T = 3\n[instance]\ngenerator = thresholds\n", "line 1: 'T = 3' comes before any [section]"),
    ("[instance]\ngenerator = thresholds\nn\n", "line 3 is not a 'key = value' line"),
])
def test_unparsable_config_lines_are_named(tmp_path, capsys, text, named):
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(cfg)
    assert cli.main(["run", str(cfg)]) == 2
    assert named in capsys.readouterr().err


def test_output_dir_is_read_verbatim(tmp_path):
    # a comma used to split the path into a list, named "['runs', 'v2']"
    cfg = load_config(write_config(tmp_path, BASE.format(seeds="0", holdout=0.0, out="runs,v2")))
    assert cfg.output_dir == "runs,v2"


@pytest.mark.parametrize("section, named", [
    ("[run]\nseeds = abc", "[run]: seeds must be an integer, got 'abc'"),
    ("[run]\nseeds = 1.5", "[run]: seeds must be an integer, got 1.5"),
    ("[run]\nseeds = true", "[run]: seeds must be an integer, got True"),
    ("[run]\nseeds = 0,x", "[run]: seeds must be an integer, got 'x'"),
    ("[run]\nreplicates = x", "[run]: replicates must be an integer, got 'x'"),
    ("[run]\nreplicates = 2.9", "[run]: replicates must be an integer, got 2.9"),
    ("[run]\nseed0 = 1.5", "[run]: seed0 must be an integer, got 1.5"),
    ("[run]\nholdout_seed = yes", "[run]: holdout_seed must be an integer, got True"),
    ("[run]\nholdout_fraction = abc", "[run]: holdout_fraction must be a number, got 'abc'"),
    # a negative seed used to fail every run into meta.json (a negative
    # holdout_seed, bench.run), and a repeated one ran the pair twice
    ("[run]\nseeds = -1", "[run]: seeds must be at least 0, got -1"),
    ("[run]\nseeds = 0,-2", "[run]: seeds must be at least 0, got -2"),
    ("[run]\nseed0 = -3", "[run]: seed0 must be at least 0, got -3"),
    ("[run]\nholdout_seed = -1", "[run]: holdout_seed must be at least 0, got -1"),
    ("[run]\nseeds = 1,1", "[run]: seeds must be distinct, got [1, 1]"),
    ("[run]\nreplicates = 0", "[run]: replicates must be at least 1, got 0"),
    ("[run]\nreplicate = 5", "[run]: unknown key 'replicate'"),
    ("[run]\nseed = 3", "[run]: unknown key 'seed'"),
    ("[runs]\nreplicates = 5", "unknown section [runs]"),
])
def test_run_section_is_checked_where_it_enters(tmp_path, capsys, section, named):
    cfg = write_config(tmp_path, "[instance]\ngenerator = thresholds\nn = 4\nk_star = 2\n"
                                 f"eps = 1.0\n\n{section}\n\n[algorithm passive]\nT = 4\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "complexity"])
def test_cli_reports_a_bad_config_without_a_traceback(tmp_path, command):
    missing = tmp_path / "nowhere" / "features.csv"
    cfg = write_config(tmp_path, f"[instance]\nfeatures_csv = {missing}\n"
                                 f"labels_csv = {missing}\n\n[algorithm passive]\nT = 4\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "aced.cli", command, str(cfg)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"referenced file does not exist: {missing}" in proc.stderr
    assert "Traceback" not in proc.stderr
