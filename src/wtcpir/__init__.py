"""Exact-arithmetic toolkit for private information retrieval against
partially observing eavesdroppers.

Everything is computed over exact rationals (capacity bounds, scheme
dimensioning) or prime fields (executable query plans, retrieval
simulation, audits) — no floating point anywhere in the results.
"""

from .capacity import (
    BoundResult,
    EnumerationBudgetError,
    closed_form_capacity,
    constraint_coefficients,
    gap,
    inner_bound_at,
    outer_bound_at,
    upper_bound,
)
from .fieldmath import (
    MdsCode,
    mds_generator,
    parse_rational,
    smallest_prime_at_least,
)
from .planner import (
    PURE_NOISE,
    PlanConstructionError,
    Query,
    QueryPlan,
    build_plan,
    plan_from_json,
    plan_stats,
    plan_to_json,
    plan_to_table,
    plan_violations,
)
from .protocol import (
    EavesdropperView,
    MessageStore,
    Transcript,
    audit_decodability,
    audit_privacy,
    audit_security,
    decode,
    random_store,
    run_retrieval,
)
from .schemes import (
    EavesdropProfile,
    GroupSequence,
    PlanDimensions,
    StageCounts,
    achievable_rate,
    as_fraction,
    best_scheme,
    derive_groups,
    enumerate_sequences,
    n2_closed_form,
    plan_dimensions_per_rep,
    repetition_factor,
    stage_counts,
    traffic_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "EavesdropProfile",
    "EavesdropperView",
    "EnumerationBudgetError",
    "GroupSequence",
    "MdsCode",
    "MessageStore",
    "PURE_NOISE",
    "PlanConstructionError",
    "PlanDimensions",
    "Query",
    "QueryPlan",
    "StageCounts",
    "Transcript",
    "achievable_rate",
    "as_fraction",
    "audit_decodability",
    "audit_privacy",
    "audit_security",
    "best_scheme",
    "build_plan",
    "closed_form_capacity",
    "constraint_coefficients",
    "decode",
    "derive_groups",
    "enumerate_sequences",
    "gap",
    "inner_bound_at",
    "mds_generator",
    "n2_closed_form",
    "outer_bound_at",
    "parse_rational",
    "plan_dimensions_per_rep",
    "plan_from_json",
    "plan_stats",
    "plan_to_json",
    "plan_to_table",
    "plan_violations",
    "random_store",
    "repetition_factor",
    "run_retrieval",
    "smallest_prime_at_least",
    "stage_counts",
    "traffic_vector",
    "upper_bound",
]
