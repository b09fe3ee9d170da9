"""Discrete-time model-reference adaptive control laboratory.

Library layers, bottom up: delay polynomials (poly), parameter spaces and
the plant-to-predictor map (system), plant stepping and exogenous signals
(plant_sim), the deadzone-gated projection estimator (estimator), the
certainty-equivalence control law (controller), closed-loop orchestration
and verification (harness), and the command-line front end (cli).
"""

from .harness import (
    ExperimentConfig,
    audit,
    check_identities,
    check_prop1,
    check_trace_consistency,
    config_from_dict,
    demo_config,
    fit_decay_bound,
    ground_truth,
    run_closed_loop,
)
from .poly import PolyZ, max_root_modulus, predictor_split, schur_stable
from .system import ParamBox, PlantParams, ReferenceModel, to_predictor_params

__version__ = "0.1.0"

__all__ = [
    "PolyZ",
    "predictor_split",
    "schur_stable",
    "max_root_modulus",
    "PlantParams",
    "ReferenceModel",
    "ParamBox",
    "to_predictor_params",
    "ExperimentConfig",
    "config_from_dict",
    "run_closed_loop",
    "ground_truth",
    "audit",
    "check_prop1",
    "check_identities",
    "check_trace_consistency",
    "fit_decay_bound",
    "demo_config",
    "__version__",
]
