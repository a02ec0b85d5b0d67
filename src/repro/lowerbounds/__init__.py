"""Lower-bound machinery of Sections 6 and 7 of the paper."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "covers": (
            "Cover",
            "CoverCheck",
            "IsolationEstimate",
            "check_cover",
            "estimate_isolation_time",
            "theorem34_lower_bound",
        ),
        "density": (
            "DensityReport",
            "InfluencerGrowthReport",
            "UntouchedNodesReport",
            "lemma41_size_bound",
            "lemma42_untouched_bound",
            "measure_density_evolution",
            "measure_influencer_growth",
            "measure_untouched_nodes",
        ),
        "influence_multigraph": (
            "AbstractPattern",
            "InfluencerMultigraph",
            "build_influencer_multigraph",
            "fresh_nodes",
            "pattern_from_multigraph",
            "tree_embeds_in_fresh_nodes",
            "unfold_once",
            "unfold_to_tree",
        ),
        "surgery": (
            "GuardedGeneratorReport",
            "can_generate_leader_on_clique",
            "find_bottlenecks",
            "leader_generating_sets",
            "low_count_states",
            "reachable_states",
            "stable_configuration_has_guarded_generators",
        ),
    },
)
