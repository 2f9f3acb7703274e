"""Certified bounds on worst-case expected loss over Hellinger balls.

Closed-form and finite-sample certificates for bounded losses under
distribution shift, instantiations for classification error, JSD loss and
AUC, an exact discrete brute-force oracle to validate them against, and a
Gaussian-mixture benchmark comparing with Wasserstein-based baselines.

The package exports the names each of its five core modules declares in
its own ``__all__``.  Importing the package imports none of them: a module,
or one of its names, is imported at its first lookup (PEP 562) and kept.
"""

import importlib

__version__ = "0.1.0"

# Each core module and its ``__all__``, the names the package re-exports.
_EXPORTS = {
    "bounds": ("LossStatistics", "CertificateReport", "RadiusValidityError", "c_rho", "max_valid_radius_upper",
               "max_valid_radius_lower", "upper_bound", "lower_bound", "classification_error_upper"),
    "finite_sample": ("EmpiricalSample", "ConfidenceBudget", "hoeffding_mean_upper", "hoeffding_mean_lower",
                      "maurer_pontil_std_upper", "max_valid_radius_empirical", "max_valid_radius_empirical_lower",
                      "corollary_upper_bound", "corollary_lower_bound"),
    "losses": ("PredictionSample", "ScoredSample", "zero_one_stats", "jsd_loss", "jsd_gradient", "auc_estimate",
               "auc_pair_sample"),
    "oracle": ("DiscreteInstance", "OracleResult", "OracleGapError", "worst_case_sup", "worst_case_inf"),
    "shifts": ("DiscreteDistribution", "discrete_hellinger", "mixture_hellinger_disjoint", "auc_composite_radius"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
