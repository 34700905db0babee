"""Estimation and completion of structured matrices theta = X B Z^T with
row-sparse alphabet-valued outer factors, observed entrywise under Bernoulli
masking and sub-Gaussian noise.

Modules: core (types, norms, JSON IO), simulate (families, masks, noise),
estimators (least squares, hard thresholding, adaptive selection), rates
(minimax rates, covering bounds, penalties), packing (lower-bound hypothesis
sets), bench (Monte Carlo harness), cli (command line).
"""

import logging

from .core import (
    Alphabet,
    Factorization,
    Norms,
    Observation,
    ParameterError,
    ShapeError,
    StructureSpec,
    ValidationReport,
    assemble,
    norms,
    spectral_norm,
    validate_membership,
)
from .estimators import (
    EnumerationRefusal,
    EstimateResult,
    SolverConfig,
    adaptive_penalized,
    block_coordinate_ls,
    exact_least_squares,
    hard_threshold,
    solve_b_given_xz,
    spectral_threshold,
)
from .packing import (
    BinaryPacking,
    ConstructionError,
    DegenerateSetError,
    HypothesisSet,
    build_t_b,
    build_t_z,
    sign_embedding,
    sparse_binary_packing,
)
from .rates import (
    ContractViolationError,
    CoveringReport,
    NoCrossingError,
    RateReport,
    UnsupportedFamilyError,
    covering_bounds,
    covering_min_bound,
    critical_radius,
    family_rate,
    kl_divergence,
    lower_values,
    penalty,
    rate_components,
)
from .simulate import (
    ModelFamily,
    NoiseKind,
    derive_seed,
    generate,
    observe,
    sample_mask,
    sample_noise,
    stream,
)
from .bench import (
    BenchConfig,
    BenchRow,
    BenchSummary,
    BudgetError,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"

# library logging stays silent unless the application configures a handler
logging.getLogger("structmc").addHandler(logging.NullHandler())

__all__ = [
    "Alphabet", "Factorization", "Norms", "Observation", "ParameterError",
    "ShapeError", "StructureSpec", "ValidationReport", "assemble", "norms",
    "spectral_norm", "validate_membership",
    "EnumerationRefusal", "EstimateResult", "SolverConfig", "adaptive_penalized",
    "block_coordinate_ls", "exact_least_squares", "hard_threshold",
    "solve_b_given_xz", "spectral_threshold",
    "BinaryPacking", "ConstructionError", "DegenerateSetError", "HypothesisSet",
    "build_t_b", "build_t_z", "sign_embedding", "sparse_binary_packing",
    "ContractViolationError", "CoveringReport", "NoCrossingError", "RateReport",
    "UnsupportedFamilyError", "covering_bounds", "covering_min_bound",
    "critical_radius", "family_rate", "kl_divergence", "lower_values",
    "penalty", "rate_components",
    "ModelFamily", "NoiseKind", "derive_seed", "generate", "observe",
    "sample_mask", "sample_noise", "stream",
    "BenchConfig", "BenchRow", "BenchSummary", "BudgetError", "run_experiment",
    "summarize",
    "__version__",
]
