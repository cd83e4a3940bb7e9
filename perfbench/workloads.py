"""The four benchmark workloads.

Each workload has three parts: ``inputs`` writes the files a user would
hand the package (configs, CSV pools) from the seed, ``setup`` is the
timed set-up after a fresh import of the package (config load, instance
build or CSV ingest), and ``round(state, r)`` is one small unit of work
of one or more operations; ``CYCLE`` rounds run every operation of the
workload once. The loop in ``run.py`` runs rounds 0 .. CYCLE-1 untimed
to warm up, then rounds 0, 1, 2, ... for the measured time, stopping at
the end of a cycle, so the first cycle always runs twice and its outputs
must repeat exactly. Each round checks its outputs against the
references in ``checks.py``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
from tracer import CountingCache


def _round_result(wall_s, op_s: dict, failed=0):
    """wall_s: the program's time for the round, scoring and output writing
    included where the round goes through bench.run; op_s: seconds per
    operation, keyed by an id that names the same work in every round."""
    return {"wall_s": wall_s, "op_s": op_s, "attempted": len(op_s) + failed, "failed": failed}


def _ini(instance: dict, seeds, algorithms, out: Path) -> str:
    lines = ["[instance]", *(f"{k} = {v}" for k, v in instance.items()), "",
             "[run]", f"seeds = {','.join(str(s) for s in seeds)}", f"output_dir = {out}", ""]
    for label, params in algorithms:
        lines += [f"[algorithm {label}]", *(f"{k} = {v}" for k, v in params.items()), ""]
    return "\n".join(lines)


def _replayed(state, key, digest) -> None:
    """Record the digest of some output; a replay must give the same one."""
    if state["digests"].setdefault(key, digest) != digest:
        state["bad"].append(f"{key}: outputs differ when replayed")


class BenchRunWorkload:
    """Shared code for the workloads that go through ``bench.run``."""

    name = ""
    CYCLE = 1  # rounds that together run every operation of the workload

    def _write_config(self, out: Path, instance, algorithms) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        cfg = out / "config.ini"
        cfg.write_text(_ini(instance, self.seeds_for(0), algorithms, out / "bench"))
        self.labels = [label for label, _ in algorithms]
        return {"config": cfg, "out": out / "bench"}

    def setup(self, aced, inputs):
        cfg = aced.bench.load_config(inputs["config"])
        return {"aced": aced, "cfg": cfg, "out": inputs["out"], "inputs": inputs,
                "instance": aced.bench.build_instance(cfg.instance),
                "digests": {}, "bad": [], "op_s": {}}

    def round(self, state, r, tracer=None):
        cfg = state["cfg"]
        cfg.seeds = self.seeds_for(r)
        start = time.perf_counter()
        paths = state["aced"].bench.run(cfg, out_dir=state["out"], workers=1)
        wall = time.perf_counter() - start
        meta = json.loads(Path(paths["meta"]).read_text())
        bodies = [Path(paths[k]).read_bytes() for k in ("results", "curves", "records")]
        bodies[0] = b"".join(ln for ln in bodies[0].splitlines(True) if not ln.startswith(b"#"))
        _replayed(state, f"seeds {cfg.seeds}", hashlib.sha256(b"\0".join(bodies)).hexdigest())
        if tracer is not None:
            tracer.count("bench.outputs.bytes",
                         sum(Path(paths[k]).stat().st_size for k in ("results", "curves", "records", "meta")))
        for key, t in meta["timings"].items():
            state["op_s"].setdefault(key.rsplit("/", 1)[0], []).append(t)
        rows, records = self._decode(paths, meta["errors"], cfg.seeds, state["bad"])
        state["bad"] += self._check_outputs(state, rows, records)
        return _round_result(wall, meta["timings"], len(meta["errors"]))

    def _decode(self, paths, errors, seeds, bad):
        rows = {}
        with open(paths["results"], newline="") as fh:
            for d in csv.DictReader(ln for ln in fh if not ln.startswith("#")):
                rows.setdefault((d["algorithm"], int(d["seed"])), []).append(
                    (int(d["queries"]), float(d["pool_acc"])))
        failed = {(e["algorithm"], e["seed"]) for e in errors}
        tasks = sorted((label, seed) for label in self.labels for seed in seeds
                       if (label, seed) not in failed)
        with open(paths["records"]) as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != len(tasks):
            bad.append(f"{len(records)} run records for {len(tasks)} runs")
        for (label, _), rec in zip(tasks, records):
            rec["label"] = label  # records are written sorted by (label, seed)
        return rows, records

    def check(self, state) -> list:
        return list(state["bad"])

    def info(self, state) -> dict:
        first = [f"seeds {self.seeds_for(r)}" for r in range(self.CYCLE)]
        return {"body_sha256": {key: state["digests"][key] for key in first},
                "op_ms_p50": {k: 1e3 * float(np.median(v)) for k, v in sorted(state["op_s"].items())}}


def _fixed_budget_labels(T, epsilon):
    rounds = max(1, int(math.floor(math.log2(1.0 / epsilon))))
    return rounds * (T // rounds)


class SweepCoreTail(BenchRunWorkload):
    """bench.run on a persistent core-tail pool: four ACED fixed-budget
    configurations (the stochastic design solve is nearly all the work)
    and three millisecond baselines, on a fresh seed every round."""

    name = "sweep_core_tail"
    M, T, EPS, T_SMALL = 4, 60, 0.1, 12

    def inputs(self, seed, out):
        self.seed0 = 1000 * seed
        T, eps, small = self.T, self.EPS, self.T_SMALL
        algorithms = [
            ("aced_fixed_budget:naive", {"T": T, "epsilon": eps, "estimator_kind": "naive"}),
            ("aced_fixed_budget:ips", {"T": T, "epsilon": eps, "estimator_kind": "ips"}),
            ("aced_fixed_budget_efficient", {"T": T, "epsilon": eps}),
            ("aced_waterfilled", {"T": small, "epsilon": eps, "N_batch": 4}),
            ("passive", {"T": small}),
            ("uniform_disagreement", {"T": T, "delta": 0.1}),
            ("iwal", {"C0": 0.01, "passes": 2}),
        ]
        instance = {"generator": "core_tail", "m": self.M, "persistent": "true", "seed": 3}
        return self._write_config(out, instance, algorithms)

    def seeds_for(self, r):
        return [self.seed0 + r]

    def _check_outputs(self, state, rows, records):
        inst = state["instance"]
        n = inst.n
        exact = _fixed_budget_labels(self.T, self.EPS)
        want = {
            "aced_fixed_budget:naive": {"queries": exact, "erm": True},
            "aced_fixed_budget:ips": {"queries": exact},
            "aced_fixed_budget_efficient": {"queries": exact},
            "aced_waterfilled": {"max_queries": self.T_SMALL, "unique": True, "erm": True},
            "passive": {"queries": min(self.T_SMALL, n), "unique": True, "erm": True},
            "uniform_disagreement": {"max_queries": self.T},
            "iwal": {"max_queries": 2 * n},
        }
        # a persistent realization draws one uniform per point from the
        # label seed and keeps the points below their mean
        truth = (np.random.default_rng(inst.labels.seed).random(n) < inst.labels.eta).astype(int)
        return checks.check_bench_round(rows, records, inst.hypotheses.labelings, truth, want)


class OracleLinearCsv(BenchRunWorkload):
    """bench.run on a two-feature CSV pool with noisy linear labels, through
    the logistic weighted-ERM oracle: waterfilled (batched fits inside the
    design solve), passive and streaming iwal (unconstrained and
    flip-constrained fits)."""

    name = "oracle_linear_csv"
    N, POOL_SEED, W, SLOPE, T, EPS = 16, 2105, (1.0, -0.5), 2.0, 8, 0.25
    PANEL = (0, 1, 2)
    CYCLE = len(PANEL)
    SOLVER = {"solver_max_iters": 2, "solver_b0": 2, "solver_max_batch": 4, "solver_max_halvings": 2,
              "solver_eval_samples": 2, "solver_rel_tol": 0.5, "solver_tol": 0.001}

    def pool(self):
        """The CSV pool: Gaussian features, labels drawn from a logistic
        model around the halfspace w.x >= 0 and realized once as y."""
        rng = np.random.default_rng(self.POOL_SEED)
        X = rng.normal(size=(self.N, 2))
        p = 1.0 / (1.0 + np.exp(-self.SLOPE * (X @ np.array(self.W))))
        y = (rng.random(self.N) < p).astype(int)
        return X, y

    def inputs(self, seed, out):
        out.mkdir(parents=True, exist_ok=True)
        X, y = self.pool()
        ids = [f"p{i:03d}" for i in range(self.N)]
        with open(out / "features.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "f0", "f1"])
            w.writerows([i, repr(float(a)), repr(float(b))] for i, (a, b) in zip(ids, X))
        with open(out / "labels.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "y"])
            w.writerows([i, int(v)] for i, v in zip(ids, y))
        algorithms = [
            ("aced_waterfilled", {"T": self.T, "epsilon": self.EPS, "N_batch": self.T // 2,
                                  "line_search_iters": 3, **self.SOLVER}),
            ("passive", {"T": self.T}),
            ("iwal", {"C0": 0.01, "passes": 1}),
        ]
        # operation cost moves several-fold with the algorithm seed here, so
        # every round of every run replays one fixed panel of seeds; the
        # run's seed only sets the order of the panel and of the sections
        rng = np.random.default_rng(seed)
        self.panel = [self.PANEL[i] for i in rng.permutation(len(self.PANEL))]
        instance = {"features_csv": out / "features.csv", "labels_csv": out / "labels.csv"}
        inputs = self._write_config(out, instance, [algorithms[i] for i in rng.permutation(len(algorithms))])
        inputs.update(X=X, y=y, ids=ids)
        return inputs

    def seeds_for(self, r):
        return [self.panel[r % len(self.panel)]]

    def setup(self, aced, inputs):
        state = super().setup(aced, inputs)
        state["labelings"] = {}
        inst = state["instance"]
        if not (np.array_equal(inst.pool.features, inputs["X"])
                and np.array_equal(inst.labels.realized_labels(), inputs["y"])
                and list(inst.pool.ids) == inputs["ids"]):
            state["bad"].append("ingest_csv did not return the generated arrays exactly")
        return state

    def _check_outputs(self, state, rows, records):
        gen = state["inputs"]
        want = {
            "aced_waterfilled": {"max_queries": self.T, "unique": True, "final_is_returned": True},
            "passive": {"queries": min(self.T, self.N), "unique": True, "final_is_returned": True},
            "iwal": {"max_queries": self.N},
        }
        for rec in records:
            state["labelings"].setdefault(tuple(rec["returned_labeling"]), f"{rec['label']}/seed {rec['seed']}")
        return checks.check_bench_round(rows, records, None, gen["y"], want)

    def check(self, state) -> list:
        # the LP runs after the timed phase, so scipy stays out of peak_rss_mb
        X = state["inputs"]["X"]
        return super().check(state) + [f"{where}: returned labeling is not a halfspace"
                                       for lab, where in state["labelings"].items()
                                       if not checks.halfspace_realizable(X, lab)]


class FcThresholds:
    """aced_fixed_confidence at delta = 0.1 on a thresholds pool, fresh
    seeds every round, one design cache for the whole run."""

    name = "fc_thresholds"
    SPEC = {"generator": "thresholds", "n": 16, "k_star": 7, "eps": 1.0, "seed": 0}
    DELTA, SEEDS_PER_ROUND = 0.1, 50
    CYCLE = 1

    def inputs(self, seed, out):
        return {"spec": dict(self.SPEC), "seed0": 100_000 * seed}

    def setup(self, aced, inputs):
        inst = aced.bench.build_instance(inputs["spec"])
        return {"aced": aced, "instance": inst, "seed0": inputs["seed0"], "cache": None,
                "h_star": checks.best_hypothesis(inst.hypotheses.labelings, inst.labels.eta),
                "runs": 0, "wins": 0, "labels": 0, "bad": [], "digests": {}}

    def round(self, state, r, tracer=None):
        if state["cache"] is None:
            state["cache"] = {} if tracer is None else CountingCache(tracer)
        fc = state["aced"].algorithms.REGISTRY["aced_fixed_confidence"]
        op_s, recs = {}, []
        for j in range(self.SEEDS_PER_ROUND):
            seed = state["seed0"] + r * self.SEEDS_PER_ROUND + j
            start = time.perf_counter()
            rec = fc(state["instance"], delta=self.DELTA, seed=seed, design_cache=state["cache"])
            op_s[seed] = time.perf_counter() - start
            recs.append(rec)
        digest = hashlib.sha256("\n".join(rec.to_jsonl() for rec in recs).encode()).hexdigest()
        _replayed(state, f"round {r}", digest)
        wins, bad = checks.check_fixed_confidence(recs, state["h_star"])
        state["runs"] += len(recs)
        state["wins"] += wins
        state["labels"] += sum(len(rec.queries) for rec in recs)
        state["bad"] += bad
        return _round_result(sum(op_s.values()), op_s)

    def check(self, state) -> list:
        bad = list(state["bad"])
        if state["wins"] < (1.0 - self.DELTA) * state["runs"]:
            bad.append(f"h* returned in {state['wins']}/{state['runs']} runs, below 1 - delta")
        return bad

    def info(self, state) -> dict:
        return {"labels_to_certify": state["labels"] / state["runs"], "runs": state["runs"],
                "hstar_returned": state["wins"]}


class ComplexityGrid:
    """complexity_report (theta, rho*, gamma*, psi*) on a core-tail and a
    thresholds instance at two epsilons, one report a round, in turn."""

    name = "complexity_grid"
    SPECS = ({"generator": "core_tail", "m": 3},
             {"generator": "thresholds", "n": 16, "k_star": 7, "eps": 0.5})
    EPSILONS = (0.1, 0.05)
    CYCLE = len(SPECS) * len(EPSILONS)
    # DIAGNOSTIC_SOLVER runs 4000 unconverged iterations per gamma* solve
    # (12-49 s each even at n=6), so the diagnostic settings are kept but
    # for the iteration and batch caps
    SOLVER = {"max_iters": 300, "max_batch": 1024}

    def inputs(self, seed, out):
        # solver seed 0 as `aced complexity` uses: a report's cost moves
        # with the solver seed, so the run's seed only sets the order
        grid = [(i, eps) for i in range(len(self.SPECS)) for eps in self.EPSILONS]
        order = np.random.default_rng(seed).permutation(len(grid))
        return {"specs": [dict(s) for s in self.SPECS], "grid": [grid[i] for i in order]}

    def setup(self, aced, inputs):
        insts = [aced.bench.build_instance(s) for s in inputs["specs"]]
        return {"aced": aced, "instances": insts, "grid": inputs["grid"], "bad": [], "reports": 0,
                "digests": {}, "values": {}}

    def round(self, state, r, tracer=None):
        i, eps = state["grid"][r % len(state["grid"])]
        inst = state["instances"][i]
        start = time.perf_counter()
        rep = state["aced"].complexity.complexity_report(inst, eps, solver=self.SOLVER)
        wall = time.perf_counter() - start
        values = (rep.rho_star.value, rep.gamma_star.value, rep.psi_star.value, sorted(rep.theta.items()))
        _replayed(state, f"instance {i}, epsilon {eps}", repr(values))
        if (i, eps) not in state["values"]:
            state["values"][(i, eps)] = values
            state["bad"] += checks.check_complexity(rep, inst.hypotheses.labelings, inst.labels.eta, eps)
        state["reports"] += 1
        return _round_result(wall, {f"{i}/{eps}": wall})

    def check(self, state) -> list:
        return list(state["bad"])

    def info(self, state) -> dict:
        return {"reports": state["reports"],
                "values": {f"{i}/{eps}": v[:3] for (i, eps), v in sorted(state["values"].items())}}


WORKLOADS = {w.name: w for w in (SweepCoreTail, FcThresholds, OracleLinearCsv, ComplexityGrid)}
