import hellcert
from hellcert import bounds, finite_sample, losses, oracle, shifts

PUBLIC = {
    "__version__",
    "CertificateReport", "LossStatistics", "RadiusValidityError", "c_rho", "classification_error_upper",
    "lower_bound", "max_valid_radius_lower", "max_valid_radius_upper", "upper_bound",
    "ConfidenceBudget", "EmpiricalSample", "corollary_lower_bound", "corollary_upper_bound",
    "hoeffding_mean_lower", "hoeffding_mean_upper", "maurer_pontil_std_upper",
    "max_valid_radius_empirical", "max_valid_radius_empirical_lower",
    "PredictionSample", "ScoredSample", "auc_estimate", "auc_pair_sample", "jsd_gradient", "jsd_loss",
    "zero_one_stats",
    "DiscreteInstance", "OracleGapError", "OracleResult", "worst_case_inf",
    "worst_case_sup",
    "DiscreteDistribution", "auc_composite_radius", "discrete_hellinger", "mixture_hellinger_disjoint",
}


def test_package_exports_the_public_names_of_its_modules():
    assert len(PUBLIC) == 35
    assert len(hellcert.__all__) == len(set(hellcert.__all__))
    assert set(hellcert.__all__) == PUBLIC
    for module in (bounds, finite_sample, losses, oracle, shifts):
        for name in module.__all__:
            assert getattr(hellcert, name) is getattr(module, name), name
    assert hellcert.__version__ == "0.1.0"
