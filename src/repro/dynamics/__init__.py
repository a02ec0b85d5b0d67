"""Dynamic-topology subsystem: time-varying interaction graphs.

A :class:`TopologySchedule` describes the active interaction graph as a
function of the interaction count (epoch-switching sequences, Bernoulli
edge churn, grow/shrink node churn); :class:`DynamicScheduler` samples
interaction pairs from the currently active edge table with the same
seeded-stream contract as the static scheduler.  See
``docs/ARCHITECTURE.md`` ("Dynamic topologies") for how the simulator
engines, the replica-batched analytics stacks and the orchestrator
consume schedules.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "schedule": (
            "EdgeChurnSchedule",
            "EpochSchedule",
            "NodeChurnSchedule",
            "ScheduleError",
            "StaticSchedule",
            "TopologySchedule",
        ),
        "scheduler": ("DynamicScheduler",),
    },
)
