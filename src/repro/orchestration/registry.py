"""The scenario registry: every named workload the orchestrator can run.

Scenarios are registered as data (see
:mod:`repro.orchestration.scenario`); this module declares the built-in
catalogue:

* ``table1-*`` — the paper's Table 1 row groups, re-registered through
  the orchestrator so ``repro-popsim sweep`` / ``run_scenario`` replace
  the old ad-hoc per-family drivers,
* a set of workloads beyond Table 1 (hypercubes, tori at larger sizes,
  preferential-attachment and geometric graphs) that exercise regimes the
  paper only covers asymptotically,
* ``clique-n100`` — the single-size, many-trial scenario the
  orchestrator-scaling benchmark shards across workers.

Sizes and repetition counts are chosen so a full sweep of any one
scenario stays in the seconds-to-minutes range on a laptop; pass
``--sizes`` / ``--repetitions`` overrides (or
:meth:`Scenario.with_overrides`) to scale up.
"""

from __future__ import annotations

from typing import Dict, List

from .scenario import ProtocolConfig, Scenario, ScheduleConfig, default_protocol_configs

_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (refusing silent overwrites)."""
    if scenario.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name; raises ``KeyError`` with suggestions."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return _REGISTRY[name]


def available_scenarios() -> List[str]:
    """Names of all registered scenarios."""
    return sorted(_REGISTRY)


_TOKEN_ONLY = (ProtocolConfig("token"),)
_STAR_ONLY = (ProtocolConfig("star"),)


# ----------------------------------------------------------------------
# Table 1 row groups, re-registered through the orchestrator
# ----------------------------------------------------------------------
register_scenario(
    Scenario(
        name="table1-clique",
        description="Table 1 'Cliques': Θ(n log n) identifier/fast vs Θ(n²) token",
        workload="clique",
        sizes=(16, 24, 36, 52),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="table1-cycle",
        description="Table 1 'Regular, low conductance': cycles, B(G), H(G) ∈ Θ(n²)",
        workload="cycle",
        sizes=(12, 18, 24),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="table1-dense-random",
        description="Table 1 'Dense random': G(n, 1/2) conditioned on connectivity",
        workload="dense-gnp",
        sizes=(16, 24, 36),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="table1-regular",
        description="Table 1 'Regular': random 4-regular expanders",
        workload="random-regular",
        sizes=(16, 24, 36),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="table1-torus",
        description="Table 1 'Regular': 2-D tori, B(G) ∈ Θ(n^{3/2})",
        workload="torus",
        sizes=(16, 36, 64),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="table1-stars",
        description="Table 1 'Stars': the trivial O(1)-state protocol",
        workload="star",
        sizes=(16, 32, 64),
        protocols=_STAR_ONLY,
        repetitions=5,
    )
)
register_scenario(
    Scenario(
        name="table1-renitent",
        description="Table 1 'Renitent': Lemma 38 four-copies construction, B ∈ Θ(n²)",
        workload="renitent-star",
        sizes=(48, 64, 96),
        repetitions=2,
        step_budget_multiplier=120.0,
    )
)

# ----------------------------------------------------------------------
# Beyond Table 1
# ----------------------------------------------------------------------
register_scenario(
    Scenario(
        name="hypercube-expander",
        description="Hypercubes: log-degree expander regime between cliques and tori",
        workload="hypercube",
        sizes=(16, 32, 64, 128),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="torus-large",
        description="2-D tori past the Table 1 grid (diffusive broadcast regime)",
        workload="torus",
        sizes=(64, 100, 144, 196),
        protocols=_TOKEN_ONLY,
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="pref-attach-hubs",
        description="Preferential-attachment graphs: scale-free hubs between star and G(n,p)",
        workload="pref-attach",
        sizes=(16, 24, 36, 52),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="geometric-sensors",
        description="Random geometric graphs: the original mobile-sensor motivation",
        workload="geometric",
        sizes=(24, 36, 52),
        repetitions=3,
    )
)
register_scenario(
    Scenario(
        name="torus-million",
        description="Million-node 2-D torus, token protocol (capacity demo)",
        workload="torus",
        sizes=(1_000_000,),
        protocols=_TOKEN_ONLY,
        repetitions=1,
        # The point is capacity, not convergence: ~150k steps of a
        # 10^6-node torus exercise the million-node build and run
        # without taking hours (multiplier·n²·log n + 10_000).
        step_budget_multiplier=1e-8,
    )
)
register_scenario(
    Scenario(
        name="clique-n100",
        description="Single-size clique n=100, token protocol — the parallel-scaling workload",
        workload="clique",
        sizes=(100,),
        protocols=_TOKEN_ONLY,
        repetitions=8,
    )
)

# ----------------------------------------------------------------------
# Dynamic topologies (time-varying interaction graphs)
# ----------------------------------------------------------------------
# All four run the constant-state token protocol, whose stability
# certificate is topology-independent; the `workload` graph names the
# node universe and supplies the default budgets, while the schedule
# decides which edges are active at each step.
register_scenario(
    Scenario(
        name="dynamic-epoch-mix",
        description="Epoch-switching clique→cycle→star topology (repeating)",
        workload="clique",
        sizes=(16, 24, 36),
        protocols=_TOKEN_ONLY,
        repetitions=3,
        schedule=ScheduleConfig(
            "epochs",
            (("workloads", ("clique", "cycle", "star")), ("epoch_length", 1024)),
        ),
    )
)
register_scenario(
    Scenario(
        name="dynamic-edge-churn",
        description="Bernoulli edge churn over G(n, 1/2): 70% of edges survive each epoch",
        workload="dense-gnp",
        sizes=(16, 24, 36),
        protocols=_TOKEN_ONLY,
        repetitions=3,
        step_budget_multiplier=90.0,
        schedule=ScheduleConfig(
            "edge-churn", (("keep_probability", 0.7), ("epoch_length", 512))
        ),
    )
)
register_scenario(
    Scenario(
        name="dynamic-torus-flicker",
        description="Edge churn over a 2-D torus: diffusive broadcast under link failures",
        workload="torus",
        sizes=(16, 36, 64),
        protocols=_TOKEN_ONLY,
        repetitions=3,
        step_budget_multiplier=120.0,
        schedule=ScheduleConfig(
            "edge-churn", (("keep_probability", 0.8), ("epoch_length", 512))
        ),
    )
)
register_scenario(
    Scenario(
        name="dynamic-grow",
        description="Node churn: the clique grows 50%→75%→100% of n, then holds",
        workload="clique",
        sizes=(16, 24, 36),
        protocols=_TOKEN_ONLY,
        repetitions=3,
        schedule=ScheduleConfig(
            "node-churn",
            (("fractions", (0.5, 0.75, 1.0)), ("epoch_length", 1024), ("repeat", False)),
        ),
    )
)
