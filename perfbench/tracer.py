"""Per-layer tracing for the benchmark's traced run.

Wraps the package's public functions at the name the calling module looks
them up (``aced.algorithms.smd_solve``, ``aced.design.line_search_max``,
``LinearOracleClass.erm_weights``, the ``REGISTRY`` entries, ...), keeps
one span (name, start, end, parent) per call in memory and counts the work
each call reports. Nothing under ``src/`` changes: the wrappers are set on
the imported modules of one process only.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

SOLVE_MODES = ("fixed_budget", "fixed_confidence", "oracle_fixed_budget", "psi", "rho", "true_gap")
ALGORITHMS = ("aced_fixed_confidence", "aced_fixed_budget", "aced_fixed_budget_efficient",
              "aced_waterfilled", "passive", "uniform_disagreement", "iwal")
SPAN_METRICS = {  # span name -> (report calls, report ms, report self ms)
    **{f"design.smd_solve.{m}": (True, True, m == "oracle_fixed_budget") for m in SOLVE_MODES},
    "design.line_search_max": (True, True, True),
    "oracles.weighted_max": (True, True, False),
    "oracles.erm_weights": (True, True, True),
    "oracles.erm_logistic": (True, True, False),
    "oracles.erm_flip_constrained": (True, True, False),
    "estimators.chaining_estimate": (True, True, False),
    "design.pair_width_objective": (True, True, False),
    "design.gap_objective": (False, True, False),
    "design.waterfill": (False, True, False),
    "design.sample_unique": (False, True, False),
    "estimators.naive_estimate": (False, True, False),
    "estimators.ips_estimate": (False, True, False),
    "estimators.estimated_errors_all": (False, True, False),
    **{f"algorithms.{a}": (False, True, False) for a in ALGORITHMS},
    "complexity.rho_star": (False, True, False),
    "complexity.gamma_star": (False, True, False),
    "complexity.psi_star": (False, True, False),
    "complexity.disagreement_coefficient": (False, True, False),
    "core.query": (False, True, False),
}
SETUP_METRICS = ("bench.load_config", "bench.build_instance")
COUNTERS = (
    *(f"design.smd_solve.{m}.{c}" for m in SOLVE_MODES for c in ("iters", "draws", "converged")),
    "oracles.erm_weights.unconverged", "oracles.erm_logistic.unconverged",
    "oracles.erm_flip_constrained.unconverged",
    "estimators.chaining_estimate.slabs", "estimators.chaining_estimate.sweeps",
    "estimators.chaining_estimate.infeasible",
    "algorithms.design_cache.hits", "algorithms.design_cache.misses",
    "core.labels.queried", "bench.outputs.bytes",
)
BETTER_HIGHER = ("converged", "hits")


def metric_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, (calls, ms, self_ms) in SPAN_METRICS.items():
        if calls:
            out.append((f"{name}.calls", "count", "lower"))
        if ms:
            out.append((f"{name}.ms", "ms", "lower"))
        if self_ms:
            out.append((f"{name}.self_ms", "ms", "lower"))
    out += [(f"{name}.ms", "ms", "lower") for name in SETUP_METRICS]
    out.append(("bench.score.ms", "ms", "lower"))
    for name in COUNTERS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out.append((name, unit, "higher" if name.endswith(BETTER_HIGHER) else "lower"))
    return out


class CountingCache(dict):
    """A design cache that counts lookups; the algorithms only call get()."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def get(self, key, default=None):
        hit = super().get(key, default)
        self._tracer.count("algorithms.design_cache.hits" if hit is not None
                           else "algorithms.design_cache.misses")
        return hit


def _solve_mode(args, kwargs):
    obj = args[0] if args else kwargs["obj"]
    if obj.mode == "fixed_budget" and obj.maximizer is not None:
        return "oracle_fixed_budget"
    return obj.mode


class Tracer:
    """Spans and counters, each span tagged with the run's phase: "setup",
    "warmup" or "timed". Counters keep the timed phase only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.counters = defaultdict(float)
        self.phase = "setup"
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] += amount

    def set_phase(self, phase):
        self.phase = phase
        self.counters.clear()

    def _wrap(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self._traced(getattr(owner, attr), name, on_result))

    def _traced(self, orig, name, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx][1], spans[idx][2] = start, time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(label, args, kwargs, result)
            return result

        return traced

    def install(self, aced):
        """Wrap the public entry points of a freshly imported package."""
        alg, bench, cx, design, est, orc = (aced.algorithms, aced.bench, aced.complexity,
                                            aced.design, aced.estimators, aced.oracles)

        def solved(label, args, kwargs, rep):
            self.count(f"{label}.iters", rep.iterations)
            self.count(f"{label}.draws", sum(rep.batch_trajectory))
            self.count(f"{label}.converged", int(rep.converged))

        def fitted(label, args, kwargs, hyp):
            if label in SPAN_METRICS:
                self.count(f"{label}.unconverged", int(not hyp.converged))

        def chained(label, args, kwargs, est_out):
            labelings, log, lam = args[:3]
            self.count("estimators.chaining_estimate.slabs", count_slabs(est, labelings, lam, len(log)))
            self.count("estimators.chaining_estimate.sweeps", est_out.flags.get("sweeps", 0))
            self.count("estimators.chaining_estimate.infeasible", int(not est_out.flags.get("feasible", True)))

        def queried(label, args, kwargs, out):
            self.count("core.labels.queried", np.size(out))

        def logistic_label(args, kwargs):
            # fits made inside erm_weights belong to that span, not to the
            # streaming fits this metric counts
            inner = self._stack and self.spans[self._stack[-1]][0] == "oracles.erm_weights"
            return "oracles.erm_weights.fit" if inner else "oracles.erm_logistic"

        for mod in (alg, cx):
            self._wrap(mod, "smd_solve", lambda a, k: f"design.smd_solve.{_solve_mode(a, k)}", solved)
            self._wrap(mod, "gap_objective", "design.gap_objective")
        self._wrap(design, "line_search_max", "design.line_search_max")
        self._wrap(orc.LinearOracleClass, "erm_weights", "oracles.erm_weights", fitted)
        self._wrap(orc, "erm_logistic", logistic_label, fitted)
        self._wrap(orc, "erm_flip_constrained", "oracles.erm_flip_constrained", fitted)
        for mod in (alg, bench):
            self._wrap(mod, "weighted_max", "oracles.weighted_max")
            self._wrap(mod, "naive_estimate", "estimators.naive_estimate")
        for mod in (alg, est):
            self._wrap(mod, "estimated_errors_all", "estimators.estimated_errors_all")
        self._wrap(alg, "ips_estimate", "estimators.ips_estimate")
        self._wrap(alg, "chaining_estimate", "estimators.chaining_estimate", chained)
        for fn in ("pair_width_objective", "waterfill", "sample_unique"):
            self._wrap(alg, fn, f"design.{fn}")
        for fn in ("rho_star", "gamma_star", "psi_star", "disagreement_coefficient"):
            self._wrap(cx, fn, f"complexity.{fn}")
        for fn in ("query", "query_many"):
            self._wrap(aced.core.LabelModel, fn, "core.query", queried)
        for fn in ("load_config", "build_instance", "run"):
            self._wrap(bench, fn, f"bench.{fn}")
        for key in ALGORITHMS:
            alg.REGISTRY[key] = self._traced(alg.REGISTRY[key], f"algorithms.{key}")

    def per_layer(self, rounds: int, setups: int, scale: float, setup_scale: float) -> dict:
        """Every per-layer metric: timed-phase totals per round, set-up
        totals per set-up, times multiplied by the run's median speed
        factor for the phase (see run.py)."""
        spans = self.spans
        child = np.zeros(len(spans))
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, ms, self_ms = defaultdict(int), defaultdict(float), defaultdict(float)
        setup_ms = defaultdict(float)
        score_ms = 0.0  # bench.run time outside the algorithm runs it makes
        for i, (name, start, end, parent, phase) in enumerate(spans):
            dur = (end - start) * 1e3
            if phase == "setup":
                setup_ms[name] += dur
            if phase != "timed":
                continue
            calls[name] += 1
            ms[name] += dur
            self_ms[name] += dur - child[i] * 1e3
            if name == "bench.run":
                score_ms += dur
            elif name.startswith("algorithms.") and parent >= 0 and spans[parent][0] == "bench.run":
                score_ms -= dur
        out = {}
        for name, (c, m, s) in SPAN_METRICS.items():
            if c:
                out[f"{name}.calls"] = calls[name] / rounds
            if m:
                out[f"{name}.ms"] = ms[name] * scale / rounds
            if s:
                out[f"{name}.self_ms"] = self_ms[name] * scale / rounds
        for name in SETUP_METRICS:
            out[f"{name}.ms"] = setup_ms[name] * setup_scale / setups
        out["bench.score.ms"] = score_ms * scale / rounds
        for name in COUNTERS:
            out[name] = self.counters[name] / rounds
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_slabs(est, labelings, lam, t) -> int:
    """Pair constraints chaining_estimate builds: for each level k >= 1,
    the pairs at nonzero distance inside the cumulative set, counted on
    the public admissible sequence for the same arguments."""
    G = np.asarray(labelings, dtype=np.int8)
    seq = est.build_admissible_sequence(G, np.asarray(lam, dtype=float), max(t, 1))
    if G.shape[0] == 1 or float(seq.dist.max()) == 0.0:
        return 0
    total = 0
    for k in range(1, seq.depth + 1):
        members = seq.cumulative(k)
        d = seq.dist[np.ix_(members, members)]
        total += int(np.count_nonzero(np.triu(d, 1)))
    return total
