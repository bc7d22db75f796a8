"""Steering with no-signalling boxes: remote ensemble preparation,
hidden-constituent (blind) steering, exact vertex decomposition, and a
seeded protocol simulator with a verifying Referee.

All probabilities are exact rationals (`fractions.Fraction`); floats
only ever appear in empirical frequencies and the audit's e-value.  The
JSON and NDJSON formats live in :mod:`boxsteer.serialize`.
"""

from .blind import (
    BlindReport,
    BlindSteeringPlan,
    Relabeling,
    TargetState,
    bob_posterior,
    canonicalize,
    lower_triangle_weights,
    plan_blind_steering,
    upper_triangle_weights,
    verify_blind_steering,
)
from .boxes import (
    BipartiteBox,
    LocalBox,
    PRBox,
    SBox,
    alice_marginal,
    as_prob,
    bob_outcome_distribution,
    is_no_signalling,
    no_signalling_violations,
)
from .ensembles import (
    Ensemble,
    Member,
    NonlocalEnsemble,
    PRMember,
    ProductMember,
    constituent_after_measurement,
    mix,
    mix_nonlocal,
    posterior_alice_reduction,
)
from .errors import (
    BoxWorldError,
    DegenerateRegionWarning,
    IncompatibleEnsemblesError,
    RegionError,
    SignallingError,
    ValidationError,
    ZeroProbabilityError,
)
from .polytope import (
    catalog_hash,
    catalog_labels,
    catalog_prs,
    catalog_products,
    decompose,
    is_local,
)
from .reports import CheckResult, VerificationReport
from .simulate import (
    AuditVerdict,
    InputPolicy,
    RoundLog,
    SimulationReport,
    referee_audit,
    run_protocol,
)
from .steering import (
    SteeringState,
    construct_steering_state,
    steered_ensemble,
    verify_steering_state,
)

__version__ = "0.8.0"

__all__ = [
    "AuditVerdict",
    "BipartiteBox",
    "BlindReport",
    "BlindSteeringPlan",
    "BoxWorldError",
    "CheckResult",
    "DegenerateRegionWarning",
    "Ensemble",
    "IncompatibleEnsemblesError",
    "InputPolicy",
    "LocalBox",
    "Member",
    "NonlocalEnsemble",
    "PRBox",
    "PRMember",
    "ProductMember",
    "RegionError",
    "Relabeling",
    "RoundLog",
    "SBox",
    "SignallingError",
    "SimulationReport",
    "SteeringState",
    "TargetState",
    "ValidationError",
    "VerificationReport",
    "ZeroProbabilityError",
    "alice_marginal",
    "as_prob",
    "bob_outcome_distribution",
    "bob_posterior",
    "canonicalize",
    "catalog_hash",
    "catalog_labels",
    "catalog_products",
    "catalog_prs",
    "constituent_after_measurement",
    "construct_steering_state",
    "decompose",
    "is_local",
    "is_no_signalling",
    "lower_triangle_weights",
    "mix",
    "mix_nonlocal",
    "no_signalling_violations",
    "plan_blind_steering",
    "posterior_alice_reduction",
    "referee_audit",
    "run_protocol",
    "steered_ensemble",
    "upper_triangle_weights",
    "verify_blind_steering",
    "verify_steering_state",
]
