"""Certified bounds on worst-case expected loss over Hellinger balls.

Closed-form and finite-sample certificates for bounded losses under
distribution shift, instantiations for classification error, JSD loss and
AUC, an exact discrete brute-force oracle to validate them against, and a
Gaussian-mixture benchmark comparing with Wasserstein-based baselines.
"""

__version__ = "0.1.0"

from .bounds import (
    CertificateReport,
    LossStatistics,
    RadiusValidityError,
    c_rho,
    classification_error_upper,
    lower_bound,
    max_valid_radius_lower,
    max_valid_radius_upper,
    upper_bound,
)
from .finite_sample import (
    ConfidenceBudget,
    EmpiricalSample,
    corollary_lower_bound,
    corollary_upper_bound,
    hoeffding_mean_lower,
    hoeffding_mean_upper,
    maurer_pontil_std_upper,
    max_valid_radius_empirical,
    max_valid_radius_empirical_lower,
)
from .losses import (
    PredictionSample,
    ScoredSample,
    auc_estimate,
    auc_pair_sample,
    jsd_gradient,
    jsd_loss,
    zero_one_stats,
)
from .oracle import (
    DiscreteInstance,
    OracleDisagreementError,
    OracleGapError,
    OracleResult,
    worst_case_inf,
    worst_case_sup,
)
from .shifts import (
    DiscreteDistribution,
    auc_composite_radius,
    discrete_hellinger,
    mixture_hellinger_disjoint,
)

__all__ = [
    "__version__",
    "CertificateReport",
    "LossStatistics",
    "RadiusValidityError",
    "c_rho",
    "classification_error_upper",
    "lower_bound",
    "max_valid_radius_lower",
    "max_valid_radius_upper",
    "upper_bound",
    "ConfidenceBudget",
    "EmpiricalSample",
    "corollary_lower_bound",
    "corollary_upper_bound",
    "hoeffding_mean_lower",
    "hoeffding_mean_upper",
    "maurer_pontil_std_upper",
    "max_valid_radius_empirical",
    "max_valid_radius_empirical_lower",
    "PredictionSample",
    "ScoredSample",
    "auc_estimate",
    "auc_pair_sample",
    "jsd_gradient",
    "jsd_loss",
    "zero_one_stats",
    "DiscreteInstance",
    "OracleDisagreementError",
    "OracleGapError",
    "OracleResult",
    "worst_case_inf",
    "worst_case_sup",
    "DiscreteDistribution",
    "auc_composite_radius",
    "discrete_hellinger",
    "mixture_hellinger_disjoint",
]
