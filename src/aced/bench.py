"""Config-driven benchmark harness.

Parses flat INI-style experiment configs, builds instances from the
generators or from CSV pools, schedules (algorithm, seed) runs, scores
accuracy-vs-queries curves with the plug-in ERM after every query batch,
and writes deterministic CSV outputs (results.csv, curves.csv) plus a
JSON-lines run log. Wall times live in meta.json so the CSV bodies stay
byte-identical across replays.
"""
from __future__ import annotations

import configparser
import csv
import inspect
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import DEFAULT_SOLVER, REGISTRY, RunRecord, _erm_handle, check_budget
from .complexity import make_core_tail_instance, make_thresholds, make_tsybakov
from .core import HypothesisClass, Instance, LabelModel, Pool, check_integer
from .design import check_solver_settings, smd_solve
from .estimators import naive_estimate
# weighted_max stays importable here: perfbench/tracer.py wraps bench.weighted_max
from .oracles import LinearOracleClass, weighted_max  # noqa: F401

GENERATORS = {  # each generator's signature is the one build_instance checks specs against
    "core_tail": make_core_tail_instance,
    "thresholds": make_thresholds,
    "tsybakov": make_tsybakov,
}
SUPPLIED = ("instance", "stream", "seed")  # run arguments that bench itself supplies
# the smd_solve settings a solver_<setting> key may set; the algorithms derive the seed
SOLVER_SETTINGS = set(inspect.signature(smd_solve).parameters) - {"obj", "seed"}
# taken at import, before anything can wrap a REGISTRY entry
_SIGNATURES = {name: inspect.signature(fn) for name, fn in REGISTRY.items()}


class ConfigError(ValueError):
    pass


@dataclass(eq=False)
class ExperimentConfig:
    instance: dict
    algorithms: list  # (label, registry name, params)
    seeds: list
    holdout_fraction: float = 0.0
    output_dir: str = "results"
    holdout_seed: int = 0

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed (replicates >= 1)")
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise ConfigError("holdout fraction must be in [0, 0.5]")
        for key in ("features_csv", "labels_csv"):
            path = self.instance.get(key)
            if path and not Path(path).exists():
                raise ConfigError(f"referenced file does not exist: {path}")


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    seed: int
    queries: int
    pool_acc: float
    holdout_acc: float | None


def _coerce(value: str):
    v = value.strip()
    low = v.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    if "," in v:
        return [_coerce(p) for p in v.split(",") if p.strip()]
    return v


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # option keys are case-sensitive (T vs t)
    try:
        read = parser.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"[{exc.section}]: key {exc.option!r} repeated "
                          f"(line {exc.lineno})") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"[{exc.section}]: section repeated (line {exc.lineno})") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.line.strip()!r} comes before any "
                          "[section] header") from None
    except configparser.ParsingError as exc:
        raise ConfigError("; ".join(f"line {lineno} is not a 'key = value' line"
                                    for lineno, _ in exc.errors)) from None
    if not read:
        raise ConfigError(f"cannot read config {path}")
    if "instance" not in parser:
        raise ConfigError("config needs an [instance] section")
    instance = {k: _coerce(v) for k, v in parser["instance"].items()}
    run = {k: _coerce(v) for k, v in parser["run"].items()} if "run" in parser else {}
    for key in run:
        if key not in ("seeds", "replicates", "seed0", "holdout_fraction", "holdout_seed",
                       "output_dir"):
            raise ConfigError(f"[run]: unknown key {key!r}")
    seeds = run.get("seeds")
    if seeds is None:
        reps = _run_integer("replicates", run.get("replicates", 1), 1)
        seed0 = _run_integer("seed0", run.get("seed0", 0), 0)
        seeds = list(range(seed0, seed0 + reps))
    else:
        seeds = [_run_integer("seeds", s, 0) for s in (seeds if isinstance(seeds, list) else [seeds])]
        if len(set(seeds)) < len(seeds):  # a repeated seed runs twice into one seed's curve
            raise ConfigError(f"[run]: seeds must be distinct, got {seeds!r}")
    holdout_fraction = run.get("holdout_fraction", 0.0)
    if isinstance(holdout_fraction, bool) or not isinstance(holdout_fraction, (int, float)):
        raise ConfigError(f"[run]: holdout_fraction must be a number, got {holdout_fraction!r}")
    algorithms = []
    for section in parser.sections():
        if section in ("instance", "run"):
            continue
        if not section.startswith("algorithm"):
            raise ConfigError(f"unknown section [{section}]; a config has [instance], [run] "
                              "and [algorithm <name>] sections")
        label = section[len("algorithm"):].strip()
        if not label:
            raise ConfigError("algorithm sections look like [algorithm <name>]")
        name = label.split(":")[0].strip()
        if name not in REGISTRY:
            raise ConfigError(f"unknown algorithm {name!r}")
        params = {k: _coerce(v) for k, v in parser[section].items()}
        algorithms.append((label, name, _algorithm_params(section, name, params)))
    if not algorithms:
        raise ConfigError("config declares no algorithms")
    return ExperimentConfig(
        instance=instance,
        algorithms=algorithms,
        seeds=seeds,
        holdout_fraction=float(holdout_fraction),
        output_dir=parser.get("run", "output_dir", fallback="results"),  # a path, not coerced
        holdout_seed=_run_integer("holdout_seed", run.get("holdout_seed", 0), 0),
    )


def _run_integer(key: str, value, low: int) -> int:
    """A [run] value that must be an integer of at least low; a bool, float
    or string, or a smaller integer, is a ConfigError naming the key."""
    try:
        return check_integer(key, value, low)
    except ValueError as exc:
        raise ConfigError(f"[run]: {exc}") from None


def _algorithm_params(section: str, name: str, params: dict) -> dict:
    """An [algorithm] section's keys as its run's keyword arguments, checked
    where they enter: solver_<setting> keys fold into the solver dict of an
    algorithm that takes one and must pass check_solver_settings over
    DEFAULT_SOLVER, a T, round_cap, N_batch or line_search_iters it takes
    must pass check_budget, iwal's passes must be an integer >= 1 and stays for
    _task, a design_cache (an in-process dict, which no config value can
    be) is refused, and the rest must bind to REGISTRY[name] beside SUPPLIED
    (else ConfigError)."""
    sig, params = _SIGNATURES[name], dict(params)
    solver = {k[len("solver_"):]: params.pop(k) for k in list(params) if "solver" in sig.parameters
              and k.startswith("solver_") and k[len("solver_"):] in SOLVER_SETTINGS}
    for key in params:  # a solver_ key not folded above, a bare solver key or a cache is bad
        if key in SUPPLIED or key == "design_cache" or key.startswith("solver"):
            raise ConfigError(f"[{section}]: {name} takes no key {key!r}")
    try:
        check_budget({k: v for k, v in params.items() if k in sig.parameters})
        if name == "iwal":
            check_integer("'passes'", params.get("passes", 1), 1)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None
    if solver:
        try:
            check_solver_settings(dict(DEFAULT_SOLVER, **solver))
        except ValueError as exc:
            raise ConfigError(f"[{section}]: solver_{exc}") from None
        params["solver"] = solver
    try:
        sig.bind(**{k: None for k in SUPPLIED if k in sig.parameters},
                 **{k: v for k, v in params.items() if not (name == "iwal" and k == "passes")})
    except TypeError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None
    return params


def build_instance(spec: dict) -> Instance:
    spec = dict(spec)
    if "features_csv" in spec or "labels_csv" in spec:
        for key in ("features_csv", "labels_csv"):
            if not spec.get(key):
                raise ConfigError(f"a CSV pool needs features_csv and labels_csv; {key} is missing")
        return ingest_csv(spec["features_csv"], spec["labels_csv"])
    gen = spec.pop("generator", None)
    if gen not in GENERATORS:
        raise ConfigError(f"unknown instance generator {gen!r}; choices: {sorted(GENERATORS)}")
    sig = inspect.signature(GENERATORS[gen])
    try:  # names an unknown key, else a missing one
        sig.bind_partial(**spec)
        sig.bind(**spec)
    except TypeError as exc:
        raise ConfigError(f"instance generator {gen!r}: {exc}") from None
    return GENERATORS[gen](**spec)


def ingest_csv(features_path, labels_path) -> Instance:
    """Pool CSV (feature columns f0..f{p-1}, optional id) + labels CSV
    (id,eta for means or id,y for persistent realizations) to an instance
    with an oracle-backed linear hypothesis class. The labels' ids must be
    distinct, a features id column must list them in the same order, and
    the pool needs at least one row; anything else is a ConfigError
    naming the file."""
    labels_rows, line_of = [], {}
    with open(labels_path, newline="") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader, [])]
        if header[:1] != ["id"] or len(header) != 2 or header[1] not in ("eta", "y"):
            raise ConfigError(f"{labels_path}: header must be id,eta or id,y")
        kind = header[1]
        for ln, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ConfigError(f"{labels_path}:{ln}: expected 2 columns")
            rid = row[0].strip()
            if rid in line_of:
                raise ConfigError(f"{labels_path}:{ln}: id {rid!r} repeats line {line_of[rid]}")
            line_of[rid] = ln
            try:
                val = float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{labels_path}:{ln}: bad label {row[1]!r}") from exc
            if kind == "y" and val not in (0.0, 1.0):
                raise ConfigError(f"{labels_path}:{ln}: y must be 0 or 1")
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{labels_path}:{ln}: eta must be in [0,1]")
            labels_rows.append((rid, val))
    if not labels_rows:
        raise ConfigError(f"{labels_path}: no examples below the header")
    ids = tuple(r[0] for r in labels_rows)
    eta = np.array([r[1] for r in labels_rows])

    with open(features_path, newline="") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader, [])]
        has_id = header[:1] == ["id"]
        fcols = header[1:] if has_id else header
        if not fcols or fcols != [f"f{j}" for j in range(len(fcols))]:
            raise ConfigError(f"{features_path}: feature columns must be f0..f{{p-1}}")
        rows = []
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{features_path}:{ln}: expected {len(header)} columns")
            if has_id and len(rows) < len(ids) and row[0].strip() != ids[len(rows)]:
                raise ConfigError(f"{features_path}:{ln}: id {row[0].strip()!r} where "
                                  f"{labels_path} has {ids[len(rows)]!r}")
            try:
                vals = [float(x) for x in (row[1:] if has_id else row)]
            except ValueError as exc:
                raise ConfigError(f"{features_path}:{ln}: bad value") from exc
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"{features_path}:{ln}: non-finite feature value")
            rows.append(vals)
    features = np.array(rows)
    if features.shape[0] != eta.size:
        raise ConfigError(f"{features_path}: {features.shape[0]} rows, but {labels_path} "
                          f"has {eta.size}")
    return Instance(pool=Pool(n=eta.size, features=features, ids=ids),
                    hypotheses=HypothesisClass(oracle=LinearOracleClass(features)),
                    labels=LabelModel(eta, persistent=kind == "y", seed=0))


def export_instance(instance: Instance, outdir) -> dict:
    """Write an instance's CSVs under outdir and return their paths:
    labels.csv (id,y for a persistent model's realized labels, else id,eta),
    features.csv (id,f0..f{p-1}) when the pool has features, and
    labelings.csv (one 0/1 row per hypothesis) when the class is explicit.
    ingest_csv reads labels.csv with a features.csv back, as an
    oracle-backed instance; no loader reads labelings.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    labels = instance.labels
    kind = "y" if labels.persistent else "eta"
    vec = labels.realized_labels() if labels.persistent else labels.eta
    p = outdir / "labels.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", kind])
        for i, v in zip(instance.pool.ids, vec):
            w.writerow([i, f"{float(v):.10g}"])
    paths["labels"] = str(p)
    if instance.pool.features is not None:
        p = outdir / "features.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id"] + [f"f{j}" for j in range(instance.pool.features.shape[1])])
            for i, row in zip(instance.pool.ids, instance.pool.features):
                w.writerow([i] + [f"{float(x):.10g}" for x in row])
        paths["features"] = str(p)
    if instance.hypotheses.explicit:
        p = outdir / "labelings.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{j}" for j in range(instance.n)])
            for row in instance.hypotheses.labelings:
                w.writerow([int(v) for v in row])
        paths["labelings"] = str(p)
    return paths


def _score(labeling, labels: LabelModel, idx=None) -> float:
    """Accuracy of a labeling on the indices idx (all by default): against
    the realized labels of a persistent model, otherwise (also for an
    interactive source) the expected accuracy under the label means."""
    idx = slice(None) if idx is None else idx
    labeling = np.asarray(labeling)[idx]
    if labels.persistent and not getattr(labels, "interactive", False):
        return float(np.mean(labeling == labels.realized_labels()[idx]))
    eta, labeling = labels.eta[idx], labeling.astype(float)
    return float(np.mean(eta * labeling + (1.0 - eta) * (1.0 - labeling)))


def _training_instance(full: Instance, fraction: float, seed: int) -> tuple:
    """(holdout indices, training indices, training instance): a seeded
    split of the pool, each index array sorted, and full restricted to the
    training indices, or full itself when nothing is held out. An
    interactive label source with a holdout is a ConfigError, raised before
    anything is restricted: held-out points have no labels to score against."""
    perm = np.random.default_rng([seed, 0x401]).permutation(full.n)
    n_hold = int(round(fraction * full.n))
    holdout_idx, train_idx = np.sort(perm[:n_hold]), np.sort(perm[n_hold:])
    if not n_hold:
        return holdout_idx, train_idx, full
    if getattr(full.labels, "interactive", False):
        raise ConfigError("holdout_fraction must be 0 with an interactive label source")
    pool, labels = full.pool, full.labels
    feats = pool.features[train_idx] if pool.features is not None else None
    if labels.persistent:
        sub_labels = LabelModel(labels.realized_labels()[train_idx].astype(float),
                                persistent=True, seed=labels.seed)
    else:
        sub_labels = LabelModel(labels.eta[train_idx], persistent=False, seed=labels.seed + 1)
    if full.hypotheses.explicit:
        # keep row indices aligned with the full class: no dedup
        sub_class = HypothesisClass(full.hypotheses.labelings[:, train_idx], dedup=False)
    else:
        sub_class = HypothesisClass(oracle=LinearOracleClass(feats))
    sub_pool = Pool(n=train_idx.size, features=feats, ids=tuple(pool.ids[i] for i in train_idx))
    return holdout_idx, train_idx, Instance(pool=sub_pool, hypotheses=sub_class, labels=sub_labels)


def _task(instance: Instance, label: str, name: str, params: dict, seed: int) -> tuple:
    """Run one (algorithm, seed) pair from the label model's initial state;
    iwal streams its pool in `passes` seeded permutations.

    Returns (label, seed, record or None, wall seconds, error or None); a
    failure is recorded, not raised, so the sweep goes on.
    """
    instance.labels.restart()
    t0 = time.perf_counter()
    try:
        params, stream = dict(params), ()
        if name == "iwal":
            rng = np.random.default_rng([seed, 17])
            stream = (np.concatenate([rng.permutation(instance.n)
                                      for _ in range(params.pop("passes", 1))]),)
        rec = REGISTRY[name](instance, *stream, seed=seed, **params)
        return label, seed, rec, time.perf_counter() - t0, None
    except Exception as exc:
        return label, seed, None, time.perf_counter() - t0, repr(exc)


_worker_instance = None  # the (restricted) instance of this worker process


def _init_worker(spec, holdout_fraction, holdout_seed):
    """Worker initializer: builds the (restricted) instance once from the
    picklable spec; _task restarts its label model before every run."""
    global _worker_instance
    _, _, _worker_instance = _training_instance(build_instance(spec), holdout_fraction, holdout_seed)


def _pool_task(task):
    """Worker entry: runs one task on the worker's instance."""
    return _task(_worker_instance, *task)


def _curve_points(instance: Instance, rec: RunRecord, full_instance=None, holdout_idx=None):
    """ERM accuracy after each query batch (batch = one round of the log):
    the estimate after a batch reads the log sorted by round, up to the
    batch's end. An empty log is one batch ending at 0."""
    n = instance.n
    log = rec.queries[np.argsort(rec.queries.round, kind="stable")]
    # a batch ends where the sorted round changes, and at the log's end
    ends = np.append(np.flatnonzero(np.diff(log.round)) + 1, len(log))
    points = []
    for end in ends.tolist():
        est = naive_estimate(log[:end], n)
        handle, labeling = _erm_handle(instance.hypotheses, est)
        pool_acc = _score(labeling, instance.labels)
        hold_acc = None
        if holdout_idx is not None and holdout_idx.size:
            hold_acc = _score(full_instance.hypotheses.labeling(handle), full_instance.labels,
                              holdout_idx)
        points.append((int(np.count_nonzero(est.counts)), pool_acc, hold_acc))
    return points


def run(config: ExperimentConfig, out_dir=None, workers: int = 1, instance=None) -> dict:
    """Execute every (algorithm, seed) pair and write results files.

    Failures are recorded per row and do not stop the remaining runs.
    Every run starts from the label model's initial state, so a run's
    labels do not depend on the runs before it. With workers > 1 the
    pairs run on a process pool; outputs are sorted before the single
    writer emits them, so results are identical to the sequential
    schedule. Each worker process has its own memo of fixed-budget round
    solves (see aced.algorithms), so a pool may solve a round that the
    sequential schedule reads from the memo; no output changes. A given
    instance replaces config.instance and needs workers == 1, since each
    worker builds its own from the config; an interactive label source
    needs no holdout, as held-out points have no labels to score against
    (ConfigError).
    Query logs never touch holdout indices (asserted here). Returns the
    output paths.
    """
    if instance is not None and workers > 1:
        raise ValueError("a given instance runs only with workers == 1")
    out = Path(out_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    full_instance = build_instance(config.instance) if instance is None else instance
    holdout_idx, train_idx, instance = _training_instance(full_instance, config.holdout_fraction,
                                                          config.holdout_seed)
    n_hold = holdout_idx.size

    tasks = [(label, name, params, seed)
             for label, name, params in config.algorithms for seed in config.seeds]
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(config.instance, config.holdout_fraction, config.holdout_seed)) as pool:
            outcomes = list(pool.map(_pool_task, tasks))
    else:
        outcomes = [_task(instance, *task) for task in tasks]

    rows = []
    records = []
    errors = []
    timings = {}
    for label, seed, rec, wall, err in outcomes:
        if err is not None:
            errors.append({"algorithm": label, "seed": seed, "error": err})
            continue
        timings[f"{label}/{seed}"] = wall
        if n_hold:
            mapped = train_idx[rec.queries.index]
            assert not np.isin(mapped, holdout_idx).any(), "holdout index was queried"
        for queries, pool_acc, hold_acc in _curve_points(instance, rec, full_instance, holdout_idx):
            rows.append(ResultRow(algorithm=label, seed=seed, queries=queries,
                                  pool_acc=pool_acc, holdout_acc=hold_acc))
        records.append((label, seed, rec))

    rows.sort(key=lambda r: (r.algorithm, r.seed, r.queries))
    results_path = out / "results.csv"
    with open(results_path, "w", newline="") as fh:
        fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        w = csv.writer(fh)
        w.writerow(["algorithm", "seed", "queries", "pool_acc", "holdout_acc"])
        for r in rows:
            w.writerow([r.algorithm, r.seed, r.queries, f"{r.pool_acc:.10g}",
                        "" if r.holdout_acc is None else f"{r.holdout_acc:.10g}"])
    curves_path = out / "curves.csv"
    write_curves(emit_plotdata(rows), curves_path)
    log_path = out / "runrecords.jsonl"
    with open(log_path, "w") as fh:
        for label, seed, rec in sorted(records, key=lambda x: (x[0], x[1])):
            fh.write(rec.to_jsonl() + "\n")
    meta_path = out / "meta.json"
    with open(meta_path, "w") as fh:
        json.dump({"timings": timings, "errors": errors,
                   "holdout_indices": [int(i) for i in holdout_idx]}, fh, indent=2, sort_keys=True)
    return {"results": str(results_path), "curves": str(curves_path),
            "records": str(log_path), "meta": str(meta_path), "errors": errors}


def emit_plotdata(rows) -> list:
    """Aggregate running-max accuracy curves: per-seed running max first,
    then mean/std across seeds at each query count."""
    by_algo = {}
    for r in rows:
        by_algo.setdefault(r.algorithm, {}).setdefault(r.seed, []).append((r.queries, r.pool_acc))
    out = []
    for algo in sorted(by_algo):
        seeds = by_algo[algo]
        grid = sorted({q for pts in seeds.values() for q, _ in pts})
        per_seed = {}
        for seed, pts in seeds.items():
            pts = sorted(pts)
            vals, best, j = [], -math.inf, 0
            for q in grid:
                while j < len(pts) and pts[j][0] <= q:
                    best = max(best, pts[j][1])
                    j += 1
                vals.append(best if best > -math.inf else math.nan)
            per_seed[seed] = vals
        arr = np.array([per_seed[s] for s in sorted(per_seed)])
        for col, q in enumerate(grid):
            column = arr[:, col]
            ok = ~np.isnan(column)  # every grid point is some seed's own point
            out.append((algo, q, float(column[ok].mean()), float(column[ok].std())))
    return out


def write_curves(curve_rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "queries", "mean_acc", "std_acc"])
        for algo, q, mean, std in curve_rows:
            w.writerow([algo, q, f"{mean:.10g}", f"{std:.10g}"])


def read_results_csv(path) -> list:
    """A results.csv's rows, # lines skipped; an empty holdout_acc is None. A
    missing column, a seed or queries that is not an integer, or an accuracy
    that is not a number in [0, 1] is a ConfigError naming file:line."""
    with open(path, newline="") as fh:
        numbered = [(no, ln) for no, ln in enumerate(fh, start=1) if not ln.startswith("#")]
    reader, rows = csv.DictReader(ln for _, ln in numbered), []
    for d in reader:
        def read(key, kind, where=f"{path}:{numbered[reader.line_num - 1][0]}"):
            if d.get(key) is None:
                raise ConfigError(f"{where}: missing column {key!r}")
            try:
                value = kind(d[key])
            except ValueError:
                value = None
            if value is None or kind is float and not 0 <= value <= 1:
                wanted = "an integer" if kind is int else "a number in [0, 1]"
                raise ConfigError(f"{where}: {key} must be {wanted}, got {d[key]!r}")
            return value
        rows.append(ResultRow(read("algorithm", str), read("seed", int), read("queries", int),
                              read("pool_acc", float), read("holdout_acc", float) if d.get("holdout_acc") else None))
    return rows


class StdinLabelModel(LabelModel):
    """Human-in-the-loop label source: prompts on first query of an index.

    Answers are cached, so repeat queries behave persistently. Accuracy
    columns are not meaningful in this mode (there is no ground truth).
    """

    interactive = True

    def __init__(self, n: int, ids=None, prompt=input):
        super().__init__(np.full(n, 0.5), persistent=False, seed=0)
        self.persistent = True
        self._ids = ids or tuple(str(i) for i in range(n))
        self._prompt = prompt
        self._cache = {}

    def query(self, i: int) -> int:
        if i not in self._cache:
            while True:
                raw = self._prompt(f"label for example {self._ids[i]} (0/1): ").strip()
                if raw in ("0", "1"):
                    self._cache[i] = int(raw)
                    break
        return self._cache[i]

    def query_many(self, indices):
        return np.array([self.query(int(i)) for i in indices], dtype=np.int8)
