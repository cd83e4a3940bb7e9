"""Pinned sha256 digests of seeded RunRecords and of the complexity measures.

Every REGISTRY algorithm runs on small seeded instances with a small
solver override; a refactor that keeps behaviour must leave each
RunRecord body, each rho*, psi* and gamma* result, and the full-size gap
solves pinned below byte-identical. Each golden RunRecord body is kept as
its canonical JSON in golden/<case, with / as .>.json beside its digest
here, so that a re-pin rewrites both and git diff shows what moved. A
digest that changes on purpose is updated here with its reason in
CHANGES.md.
"""
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from aced import complexity
from aced.algorithms import DEFAULT_SOLVER, REGISTRY
from aced.complexity import (gamma_star, make_core_tail_instance, make_thresholds, make_tsybakov, psi_star,
                             rho_star)
from aced.core import HypothesisClass, Instance, LabelModel, Pool
from aced.design import gap_objective, smd_solve
from aced.oracles import LinearOracleClass

SOLVER = {"max_iters": 12, "max_batch": 64}


def _core_tail():
    return make_core_tail_instance(3, persistent=True, seed=2)


def _thresholds(persistent=True):
    return make_thresholds(8, 3, 0.6, persistent=persistent, seed=1)


def _linear():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 2))
    eta = 1.0 / (1.0 + np.exp(-2.0 * (X[:, 0] - 0.5 * X[:, 1])))
    return Instance(Pool(n=10, features=X), HypothesisClass(oracle=LinearOracleClass(X)),
                    LabelModel(eta, persistent=True, seed=3))


def _stream(n, seed):
    return np.random.default_rng([seed, 17]).permutation(n)


CASES = {
    "fixed_confidence/thresholds": lambda: REGISTRY["aced_fixed_confidence"](
        _thresholds(persistent=False), delta=0.2, round_cap=4, solver=SOLVER, seed=0),
    # stops at the round cap with three survivors and returns the plug-in minimizer
    "fixed_confidence_capped/thresholds": lambda: REGISTRY["aced_fixed_confidence"](
        _thresholds(persistent=False), delta=0.2, round_cap=2, solver=SOLVER, seed=0),
    "fixed_budget_naive/core_tail": lambda: REGISTRY["aced_fixed_budget"](
        _core_tail(), T=24, epsilon=0.25, estimator_kind="naive", solver=SOLVER, seed=1),
    "fixed_budget_ips/thresholds": lambda: REGISTRY["aced_fixed_budget"](
        _thresholds(), T=24, epsilon=0.25, estimator_kind="ips", solver=SOLVER, seed=2),
    "fixed_budget_chaining/thresholds": lambda: REGISTRY["aced_fixed_budget"](
        _thresholds(), T=24, epsilon=0.25, estimator_kind="chaining", solver=SOLVER, seed=3),
    "fixed_budget_efficient/core_tail": lambda: REGISTRY["aced_fixed_budget_efficient"](
        _core_tail(), T=24, epsilon=0.25, solver=SOLVER, seed=4),
    "fixed_budget_efficient/thresholds": lambda: REGISTRY["aced_fixed_budget_efficient"](
        _thresholds(), T=24, epsilon=0.25, solver=SOLVER, seed=5),
    "waterfilled/core_tail": lambda: REGISTRY["aced_waterfilled"](
        _core_tail(), T=8, epsilon=0.25, N_batch=4, solver=SOLVER, seed=6),
    "waterfilled_oracle/linear": lambda: REGISTRY["aced_waterfilled"](
        _linear(), T=4, epsilon=0.5, N_batch=4, solver={"max_iters": 2, "b0": 4, "max_batch": 8},
        line_search_iters=4, seed=7),
    # stops after two designs with both sampling_fallback and pool_exhausted set
    "waterfilled_exhausted/thresholds": lambda: REGISTRY["aced_waterfilled"](
        make_thresholds(4, 2, 1.0, persistent=True, seed=0), T=64, epsilon=1 / 32, N_batch=2,
        solver=SOLVER, seed=13),
    # its round-2 design value depends on line_search_iters (0.8793 at 1, 0.9851
    # at 2, 0.9922 at 20): at 1 each search is Dinkelbach's first step, max N(h)
    # at r = 0
    "waterfilled_oracle_lsi1/linear": lambda: REGISTRY["aced_waterfilled"](
        _linear(), T=8, epsilon=0.25, N_batch=4, solver={"max_iters": 3, "b0": 4, "max_batch": 8},
        line_search_iters=1, seed=7),
    "passive/core_tail": lambda: REGISTRY["passive"](_core_tail(), T=6, seed=8),
    # labels drawn from the label model's stream, one batch for the run
    "passive_nonpersistent/thresholds": lambda: REGISTRY["passive"](
        _thresholds(persistent=False), T=6, seed=8),
    "uniform_disagreement/thresholds": lambda: REGISTRY["uniform_disagreement"](
        _thresholds(), T=20, seed=9),
    "iwal/core_tail": lambda: REGISTRY["iwal"](
        _core_tail(), _stream(12, 10), C0=0.5, seed=10),
    "iwal_oracular1/thresholds": lambda: REGISTRY["iwal"](
        _thresholds(), np.concatenate([_stream(8, 11), _stream(8, 12)]), C0=0.5,
        variant="oracular1", seed=11),
    # two passes over the stream: the oracle back-end fits a flip at every point and
    # refits the ERM after each query
    "iwal_oracle/linear": lambda: REGISTRY["iwal"](
        _linear(), np.concatenate([_stream(10, 14), _stream(10, 15)]), C0=0.01, seed=14),
    # a non-persistent model reveals a point's label only where it was queried
    "iwal_oracular0_nonpersistent/thresholds": lambda: REGISTRY["iwal"](
        _thresholds(persistent=False), np.concatenate([_stream(8, 15), _stream(8, 16)]), C0=0.5,
        variant="oracular0", seed=15),
    "iwal1/thresholds": lambda: REGISTRY["iwal"](
        _thresholds(), np.concatenate([_stream(8, 16), _stream(8, 17)]), C0=0.5, variant="iwal1",
        seed=16),
}

GOLDEN = {
    "fixed_budget_chaining/thresholds": "e06830a3cead13dadcbc62206df0c536171dd9ce33a064430729c9f71ca3eec8",
    "fixed_budget_efficient/core_tail": "815e4315416ae1cef68a037476b47fdf5b5a8daad3ef04c266cb29bc07dfaada",
    "fixed_budget_efficient/thresholds": "d74e9896ea16f2bed56248af9f61469c380bae3cda930ada30d0e81d70aa1e91",
    "fixed_budget_ips/thresholds": "c89100f7701dc465af77645602d1f470c0b46ce7d242b6ef9b9e753dcf7c29f6",
    "fixed_budget_naive/core_tail": "1662fd44cfbcd80c8a6fbcf87eba0be892fd0fa8c0b687d253351059378bee82",
    "fixed_confidence_capped/thresholds": "f7e6c9242f68bf6096a15b68868ec59bc9a06b92ecf7cb4006649b4a46a9938c",
    "fixed_confidence/thresholds": "3c07baf3b14cb26a661699763b053c42f2ff0458f596782d47f1d634b1a40872",
    "iwal/core_tail": "6ac0dec67b743cdb06ed40221744591bbea919f8a8d5dcaafe038d3a448e0ffc",
    "iwal1/thresholds": "2c07ecf41adcd6bb68f75aa280109042ece59c3ef98a5f3e33205b341b98fc45",
    "iwal_oracle/linear": "16a8dac40f9b1ccab0173cdaca6fec59585b80e889d423cfb21ac12431f360a0",
    "iwal_oracular0_nonpersistent/thresholds": "ed6008ad693215e72655965e073fdfaca8388e3dabcc27c28216dcde5866acc3",
    "iwal_oracular1/thresholds": "9d3ce5a5da49bd6f3fbb9e629338aacce99f9aae65b985be9f5c65e86e4d4955",
    "passive/core_tail": "cefc6cf2197f83525af8c3fda91c03783f9c63d8cdfd4e74115f51c873bafea2",
    "passive_nonpersistent/thresholds": "54acfc1406a7463ace9a27d50616f53cc894521e769ee2b38fa8da0553fa6d40",
    "uniform_disagreement/thresholds": "9cc31249051764ce88a25353e2948fb8c140e70217c0afa6cedc81a588c12a55",
    "waterfilled/core_tail": "c61d5fa91cc71381682d8ec3f7af0f74e4d87a446647ae58e879ae9349b989e1",
    "waterfilled_exhausted/thresholds": "21c2f914d2ececaaa0d63ecc63266757e5a60de115ceea995e8c4bb98173a2bd",
    "waterfilled_oracle/linear": "d9eba80393689b40ccebbc3d3b88e54bf57ce60e2b2291ce997693a817455a86",
    "waterfilled_oracle_lsi1/linear": "791046557aeebaf202847c2b730899968a0eb670755d4b14753a0d1c98a61f85",
}


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _first_difference(got, want, path=""):
    """(path, got value, want value) where two parsed JSON values first
    differ, in key order, or None. Scalars match when their types and reprs
    do, so 0.0 and -0.0 differ and nan matches nan."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return sub, got.get(key, "<absent>"), want.get(key, "<absent>")
            found = _first_difference(got[key], want[key], sub)
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(got) != len(want):
            i = min(len(got), len(want))
            return f"{path}[{i}]", (got + ["<absent>"])[i], (want + ["<absent>"])[i]
        return None
    if type(got) is not type(want) or repr(got) != repr(want):
        return path, got, want
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_runrecord_digest(name):
    # the body equals its golden file byte for byte, and the file its pinned
    # digest; a mismatch names the first differing field, golden -> run
    path = GOLDEN_DIR / f"{name.replace('/', '.')}.json"
    want = path.read_bytes()
    assert hashlib.sha256(want).hexdigest() == GOLDEN[name], f"{path.name} does not match its pinned digest"
    body = CASES[name]().to_jsonl().encode()
    if body != want:
        found = _first_difference(json.loads(body), json.loads(want))
        if found is None:
            offset = next(i for i, (a, b) in enumerate(zip(body + b"\0", want + b"\0")) if a != b)
            pytest.fail(f"{name}: the body differs from {path.name} at byte {offset} in formatting only")
        field, got, expected = found
        pytest.fail(f"{name}: {field}: {expected!r} -> {got!r}")


# logistic fits (oracles._fit_logistic calls) per oracle-backed golden run,
# so that a change in oracle work shows as a count, not only as a time.
# The waterfilled run has one round, where eta-hat is 1/2 and each line
# search makes one fit
FITS = {
    "waterfilled_oracle/linear": 9,
    "iwal_oracle/linear": 32,
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_oracle_golden_runs_make_pinned_logistic_fits(monkeypatch, name):
    from aced import oracles

    fits = []
    fit = oracles._fit_logistic

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(oracles, "_fit_logistic", counting_fit)
    CASES[name]()
    assert len(fits) == FITS[name]


def test_iwal_oracle_golden_run_makes_pinned_newton_steps(monkeypatch):
    # every Newton step of a logistic fit is one linear solve. Each ERM refit
    # starts from the last ERM, and full steps are extrapolated along the
    # loss's exponential tail: the run takes 136 steps, 380 with neither
    steps = []
    solve = np.linalg.solve

    def counting_solve(*args):
        steps.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    CASES["iwal_oracle/linear"]()
    assert len(steps) == 136


def test_fixed_confidence_seed_panel_digest():
    # the fc_thresholds benchmark instance: 200 seeds sharing one design
    # cache, so later runs replay cached designs
    inst = make_thresholds(16, 7, 1.0, seed=0)
    cache = {}
    body = "\n".join(REGISTRY["aced_fixed_confidence"](inst, delta=0.1, seed=seed,
                                                        design_cache=cache).to_jsonl()
                     for seed in range(200))
    assert (hashlib.sha256(body.encode()).hexdigest()
            == "dd76194292c60355df645643377b05179db3a110f52b226d518a07d265afc67c")


def test_fixed_budget_shared_cache_panel_digest():
    # four seeds replayed without a design cache: every round solves its design
    body = "\n".join(REGISTRY["aced_fixed_budget"](_thresholds(), T=24, epsilon=0.25, solver=SOLVER,
                                                    seed=seed).to_jsonl()
                     for seed in range(4))
    assert (hashlib.sha256(body.encode()).hexdigest()
            == "294b0a352cf0c05c6e0eda10726933406bbe992404f14f1320f4a594b2aa81a2")


def test_complexity_measures_digest():
    # rho* and psi* (value, certificate, converged, design bytes) on core-tail,
    # threshold and low-noise instances over three epsilons
    instances = [make_core_tail_instance(m) for m in (2, 3, 5)] + [
        make_thresholds(16, 7, 0.5), make_thresholds(32, 13, 0.4), make_tsybakov(10, 2.0, 0.5, seed=0)]
    digest = hashlib.sha256()
    for inst in instances:
        for eps in (0.01, 0.05, 0.2):
            for measure in (rho_star, psi_star):
                r = measure(inst.hypotheses, inst.labels, eps)
                digest.update(struct.pack("<dd?", r.value, r.certificate, r.converged))
                digest.update(r.design.lam.tobytes())
    assert digest.hexdigest() == "86d613558b390c89845e127f2fcc7b2ca0ecbedfd4c0d1b33a2e7b1dd3dfe7df"


def _solve_bytes(rep) -> bytes:
    """A SolverReport's value, certificate, iterations, stop reason, batch
    trajectory and design, as bytes."""
    return (struct.pack("<ddi", rep.value_estimate, rep.certificate, rep.iterations)
            + rep.stop_reason.encode()
            + struct.pack(f"<{len(rep.batch_trajectory)}i", *rep.batch_trajectory)
            + rep.design.lam.tobytes())


def test_gamma_star_and_full_size_gap_solve_digest(monkeypatch):
    # gamma* (value, stderr, converged, design bytes) with its true_gap
    # solve's report: the complexity_grid benchmark's four reports (core-tail
    # m=3 and thresholds (16, 7, 0.5) at eps 0.1 and 0.05) at its capped
    # solver, max_iters 300 and max_batch 1024, and the thresholds report at
    # eps 0.05 at the uncapped DIAGNOSTIC_SOLVER. Then a fixed_budget solve at
    # DEFAULT_SOLVER (max_batch 256): round 3 of aced_fixed_budget on the
    # sweep_core_tail pool at run seed 1000, with its eta-hat and solver seed
    solves = []
    solve = complexity.smd_solve

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(complexity, "smd_solve", recording)
    grid = {"max_iters": 300, "max_batch": 1024}
    core_tail, thresholds = make_core_tail_instance(3), make_thresholds(16, 7, 0.5)
    digest = hashlib.sha256()
    for inst, eps, solver in [(core_tail, 0.1, grid), (core_tail, 0.05, grid), (thresholds, 0.1, grid),
                              (thresholds, 0.05, grid), (thresholds, 0.05, None)]:
        g = gamma_star(inst.hypotheses, inst.labels, eps, solver=solver)
        digest.update(struct.pack("<dd?", g.value, g.stderr, g.converged) + g.design.lam.tobytes())
        digest.update(_solve_bytes(solves[-1]))
    assert len(solves) == 5
    eta = np.zeros(20)
    eta[[6, 10, 11]] = 0.5
    obj = gap_objective(make_core_tail_instance(4).hypotheses.labelings, eta, 0, 0.25)
    rep = smd_solve(obj, seed=914574248188367062, **DEFAULT_SOLVER)
    assert max(rep.batch_trajectory) == DEFAULT_SOLVER["max_batch"]
    digest.update(_solve_bytes(rep))
    assert digest.hexdigest() == "02f1d203f6d787ea04a7f3f1f7cd0bb11552b6df5aa62de8daf74f7c9b49dbbd"
