"""Replica-batched Monte-Carlo analytics engine.

Runs all ``R`` trajectories of a Monte-Carlo estimator — one-way
epidemics for ``B(G)``, all-pairs influence for ``T(G)``, population
walks for hitting and meeting times — in lockstep, each trajectory on a
private SplitMix64-child-seeded stream.  Results are a pure function of
``(base seed, trajectory identity)``: bit-identical for any
replica-batch width and identical across the C-kernel, NumPy and scalar
execution paths (on the kernel, epidemic and influence streams live only
in C-seeded RNG rows).

The public estimators stay where they always were
(:mod:`repro.propagation.broadcast`, :mod:`repro.propagation.influence`,
:mod:`repro.walks.population_walk`); this package is the engine they are
wired onto, plus the batched multi-trial entry points the experiment
harness uses directly.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "epidemics": (
            "BUDGET_EXHAUSTED",
            "run_epidemic_batch",
            "run_influence_batch",
            "run_single_epidemic",
        ),
        "estimators": (
            "batched_broadcast_estimates",
            "batched_broadcast_samples",
            "broadcast_trajectory_seed",
            "broadcast_trajectory_seeds",
            "select_sources",
        ),
        "streams": (
            "block_size",
            "iter_width_chunks",
            "make_streams",
            "resolve_base_seed",
        ),
        "walks": (
            "default_walk_budget",
            "run_hitting_batch",
            "run_meeting_batch",
            "run_single_hitting",
            "run_single_meeting",
        ),
    },
)
