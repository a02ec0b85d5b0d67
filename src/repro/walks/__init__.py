"""Random-walk substrate (Section 4.1 of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "classic": (
            "WalkTrajectory",
            "estimate_cover_time",
            "hitting_time",
            "hitting_times_to",
            "simulate_walk",
            "stationary_distribution",
            "transition_matrix",
            "worst_case_hitting_time",
        ),
        "hitting": (
            "HittingTimeReport",
            "dense_random_graph_hitting_order",
            "general_graph_hitting_upper_bound",
            "hitting_time_report",
            "regular_graph_hitting_upper_bound",
            "theorem16_step_bound",
        ),
        "population_walk": (
            "exact_meeting_times",
            "population_hitting_times_to",
            "population_worst_case_hitting_time",
            "simulate_meeting_time",
            "simulate_meeting_times",
            "simulate_population_hitting_time",
            "simulate_population_hitting_times",
        ),
    },
)
