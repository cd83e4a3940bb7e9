"""Agnostic pool-based active classification via adaptive experimental design."""

from .core import (
    GapTable,
    HypothesisClass,
    ImplicitClassError,
    Instance,
    LabelModel,
    Pool,
    gap_table,
)
from .oracles import (
    LinearHypothesis,
    LinearOracleClass,
    erm_flip_constrained,
    erm_logistic,
    weighted_max,
)
from .estimators import (
    EtaEstimate,
    QueryLog,
    QueryRecord,
    chaining_estimate,
    chaining_plan,
    ips_estimate,
    naive_estimate,
)
from .design import (
    Design,
    DesignObjective,
    SolverReport,
    line_search_max,
    sample_unique,
    smd_solve,
    waterfill,
)
from .complexity import (
    ComplexityReport,
    TsybakovSpec,
    complexity_report,
    disagreement_bound_check,
    disagreement_coefficient,
    gamma_star,
    make_core_tail_instance,
    make_thresholds,
    make_tsybakov,
    psi_star,
    rho_star,
)
from .algorithms import (
    REGISTRY,
    RunRecord,
    aced_fixed_budget,
    aced_fixed_budget_efficient,
    aced_fixed_confidence,
    aced_waterfilled,
    baseline_iwal,
    baseline_passive,
    baseline_uniform_disagreement,
)

__version__ = "0.1.0"
