"""Numerical workbench for orthogonal Jensen stability bounds.

The package quantifies a constructive stability statement: a map whose Jensen
defect (additive or quadratic flavor) is uniformly small on orthogonal pairs
stays within an explicit, certified distance of an exact solution, and the
corrector sequence built from scaled evaluations converges to that solution
at a certified geometric rate. Everything runs on two scalar backends,
float64 with first-order rounding envelopes and exact rationals for
zero-tolerance oracles.
"""

from .config import AXIOM_SYSTEMS
from .errors import (
    ConfigurationError,
    InputError,
    RangeError,
    SamplerError,
)
from .gauges import (
    Gauge,
    check_beta_homogeneity,
    check_fnorm_axioms,
    estimate_quasi_constant,
    make_gauge_samples,
    p_power_transform,
)
from .orthogonality import (
    OrthoRelation,
    check_relation_axioms,
    sample_orthogonal_pairs,
)
from .maps import (
    EvaluableMap,
    MapSpec,
    build_map,
    encode_point,
    scaled_noise,
)
from .corrector import (
    CorrectorEvaluator,
    SeriesEnclosure,
    cauchy_gap,
    check_gap_bounds,
    coefficients,
    corrector_limit,
    gap_series,
    gap_tail_bound,
)
from .stability import (
    StabilityConfig,
    StabilityReport,
    additive_defect_factor,
    derive_defect_bound_additive,
    derive_defect_bound_quadratic,
    jensen_additive_defect,
    jensen_quadratic_defect,
    k_additive,
    k_additive_quasi,
    k_quadratic,
    k_quadratic_quasi,
    quadratic_defect_factor,
    run_stability,
    uniqueness_probe,
    verify_conclusion,
)
from .reporting import AxiomCheck, AxiomReport, jsonable

__version__ = "0.1.0"

__all__ = [
    "AXIOM_SYSTEMS",
    "AxiomCheck",
    "AxiomReport",
    "ConfigurationError",
    "CorrectorEvaluator",
    "EvaluableMap",
    "Gauge",
    "InputError",
    "MapSpec",
    "OrthoRelation",
    "RangeError",
    "SamplerError",
    "SeriesEnclosure",
    "StabilityConfig",
    "StabilityReport",
    "additive_defect_factor",
    "build_map",
    "cauchy_gap",
    "check_beta_homogeneity",
    "check_fnorm_axioms",
    "check_gap_bounds",
    "check_relation_axioms",
    "coefficients",
    "corrector_limit",
    "derive_defect_bound_additive",
    "derive_defect_bound_quadratic",
    "encode_point",
    "estimate_quasi_constant",
    "gap_series",
    "gap_tail_bound",
    "jensen_additive_defect",
    "jensen_quadratic_defect",
    "jsonable",
    "k_additive",
    "k_additive_quasi",
    "k_quadratic",
    "k_quadratic_quasi",
    "make_gauge_samples",
    "p_power_transform",
    "quadratic_defect_factor",
    "run_stability",
    "sample_orthogonal_pairs",
    "scaled_noise",
    "uniqueness_probe",
    "verify_conclusion",
]
