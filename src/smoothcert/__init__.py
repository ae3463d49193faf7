"""Robustness certificates for classifiers smoothed over multiplicative factors."""

from .certify import (
    Abstain,
    Certificate,
    Method,
    ProbBounds,
    SampleCounts,
    Side,
    certify_for,
    certify_inverse_rayleigh,
    certify_rayleigh,
    certify_rayleigh_closed_form,
    clopper_pearson,
    log_space_radius,
)
from .distributions import (
    Kind,
    RayleighParams,
    SmoothingDistribution,
    inverse_rayleigh,
    log_gaussian,
    log_laplace,
    log_uniform,
    rayleigh,
)
from .multicert import (
    MultiCertProblem,
    RegionQuery,
    Verdict,
    in_robust_region,
    scan_gamma_grid,
    solve_thresholds,
)
from .realistic import (
    ErrorBudget,
    RealisticConfig,
    adjust_probabilities,
    certify_realistic,
    error_budget,
    estimate_conversion_error,
    gaussian_l2_radius,
    min_samples_for_quantile_bound,
    quantile_upper_confidence,
)
from .rng import SeededSampler
from .runtime import (
    BaseClassifier,
    ConstantClassifier,
    HashLabelClassifier,
    LinearClassifier,
    PredictionResult,
    SmoothedClassifier,
    SmoothingConfig,
    ThresholdOracle,
    empirical_sweep,
    exact_oracle_probability,
    load_classifier,
    smoothed_predict_certify,
)
from .transforms import (
    BadMagicError,
    OutOfRangeError,
    TensorFormatError,
    TruncatedPayloadError,
    conversion_error,
    conversion_error_diff,
    gamma_correct,
    gamma_correct_batch,
    quantize8,
    read_tensor,
    validate_image,
    write_tensor,
)

__version__ = "0.1.0"
