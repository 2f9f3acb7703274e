import hellcert
from hellcert import bounds, finite_sample, losses, oracle, shifts
from test_imports import fresh

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


def test_a_bare_import_resolves_every_public_name_and_module():
    """In a new interpreter, where no test has imported a module yet."""
    fresh(f"""
import sys
import hellcert
assert sorted(m for m in sys.modules if m.startswith("hellcert")) == ["hellcert"]
for name in {sorted(PUBLIC)!r}:
    getattr(hellcert, name)
for name in ("bounds", "finite_sample", "losses", "oracle", "shifts"):
    assert getattr(hellcert, name) is sys.modules["hellcert." + name], name
namespace = {{}}
exec("from hellcert import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == {sorted(PUBLIC)!r}
""")
