"""Information propagation in the population model (Section 3 of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bounds": (
            "BroadcastBounds",
            "bounded_degree_broadcast_order",
            "broadcast_bounds",
            "broadcast_lower_bound",
            "broadcast_upper_bound_diameter",
            "broadcast_upper_bound_expansion",
            "dense_random_graph_broadcast_order",
            "propagation_lower_bound_threshold",
            "trivial_broadcast_lower_bound",
        ),
        "broadcast": (
            "BroadcastTimeEstimate",
            "broadcast_time_estimate",
            "expected_broadcast_time_from",
            "full_information_time",
        ),
        "node_dynamics": (
            "DynamicsComparison",
            "NodeSamplingScheduler",
            "compare_broadcast_dynamics",
            "interaction_rate_imbalance",
            "node_sampling_broadcast_steps",
        ),
        "influence": (
            "InfluenceProcess",
            "InfluenceSnapshot",
            "distance_k_propagation_steps",
            "single_source_broadcast_steps",
        ),
        "propagation_time": (
            "PropagationTimeEstimate",
            "empirical_violation_rate",
            "propagation_time_estimate",
            "propagation_time_from",
        ),
    },
)
