"""Probability toolkit and statistical estimators (Section 2.3 + harness)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "concentration": (
            "chernoff_lower_tail",
            "chernoff_upper_tail",
            "edge_sequence_expected_steps",
            "edge_sequence_lower_tail",
            "edge_sequence_upper_tail",
            "geometric_sum_deviation_rate",
            "geometric_sum_lower_tail",
            "geometric_sum_upper_tail",
            "harmonic_number",
            "poisson_lower_tail",
            "poisson_upper_tail",
            "walds_identity",
        ),
        "estimators": (
            "SummaryStatistics",
            "bootstrap_mean_interval",
            "empirical_tail_probability",
            "geometric_mean",
            "ratio_to_bound",
            "summarize_samples",
        ),
        "scaling": (
            "PowerLawFit",
            "compare_orderings",
            "exponent_matches",
            "fit_power_law",
            "normalized_growth",
        ),
    },
)
