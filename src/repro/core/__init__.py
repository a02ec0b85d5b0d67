"""Core population-protocol machinery: protocols, schedulers, simulator.

This package implements the stochastic population model of Section 2.2 of
the paper: anonymous finite-state agents on a connected interaction graph,
activated in ordered pairs by a uniform edge-sampling scheduler.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "configuration": (
            "Configuration",
            "initial_configuration_from_inputs",
            "uniform_initial_configuration",
        ),
        "protocol": (
            "FOLLOWER",
            "LEADER",
            "LeaderElectionProtocol",
            "PopulationProtocol",
        ),
        "scheduler": (
            "Interaction",
            "RandomScheduler",
            "Scheduler",
            "SequenceScheduler",
            "all_ordered_pairs",
        ),
        "seeds": (
            "derive_seed",
            "graph_seed",
            "measure_seed",
            "trial_seed",
            "trial_seeds",
        ),
        "simulator": (
            "SimulationResult",
            "Simulator",
            "run_leader_election",
        ),
        "stability": (
            "CertificateAudit",
            "StabilityVerdict",
            "StateSpaceTooLarge",
            "always_reaches_single_leader",
            "audit_certificates",
            "certificate_is_sound_on",
            "check_stability_by_reachability",
            "reachable_configurations",
        ),
    },
)
