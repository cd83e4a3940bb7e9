"""Pinned sha256 digests of seeded RunRecords and of the complexity measures.

Every REGISTRY algorithm runs on small seeded instances with a small
solver override; a refactor that keeps behaviour must leave each
RunRecord body, and each rho* and psi* result, byte-identical. A digest that changes on purpose is
updated here with its reason in CHANGES.md.
"""
import hashlib
import struct

import numpy as np
import pytest

from aced.algorithms import REGISTRY
from aced.complexity import make_core_tail_instance, make_thresholds, make_tsybakov, psi_star, rho_star
from aced.core import HypothesisClass, Instance, LabelModel, Pool
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
    # its round-2 design value depends on line_search_iters (1.3063 at 1, 1.3898
    # at 2 and 20): at 1 each search is Dinkelbach's first step, max N(h) at r = 0
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
    "fixed_confidence_capped/thresholds": "d5137b6f0efefd4577fcc0e391a5fdfd5e248b44a05783bbb6c4c10e6198a2dc",
    "fixed_confidence/thresholds": "50300cace3813bbf91d19102a359cd952b46281b07360067dfcd848a0123fea2",
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
    "waterfilled_oracle/linear": "90d685db3cb9419ad2d0118e4bbcf5799ab5cee3045dc4f22aaa38f85d3b7484",
    "waterfilled_oracle_lsi1/linear": "28b1c81b3ecc1f2cb9a3acf434622b01b7d3550e381b3cb1cc5866a32463398f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_runrecord_digest(name):
    body = CASES[name]().to_jsonl()
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN[name]


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
    # starts from the last ERM, so the run takes 269 steps; from zero, it
    # took 380 (a median of 13 per ERM refit, against 3 warm)
    steps = []
    solve = np.linalg.solve

    def counting_solve(*args):
        steps.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    CASES["iwal_oracle/linear"]()
    assert len(steps) == 269


def test_fixed_confidence_seed_panel_digest():
    # the fc_thresholds benchmark instance: 200 seeds sharing one design
    # cache, so later runs replay cached designs
    inst = make_thresholds(16, 7, 1.0, seed=0)
    cache = {}
    body = "\n".join(REGISTRY["aced_fixed_confidence"](inst, delta=0.1, seed=seed,
                                                        design_cache=cache).to_jsonl()
                     for seed in range(200))
    assert (hashlib.sha256(body.encode()).hexdigest()
            == "082b2f837a000ab24f914d708239f2f0d85d1212b7bcb139011c4dff27a3c423")


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
