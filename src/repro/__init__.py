"""repro — Near-optimal leader election in population protocols on graphs.

A library-quality reproduction of Alistarh, Rybicki and Voitovych,
*"Near-Optimal Leader Election in Population Protocols on Graphs"*
(PODC 2022).  The package provides:

* :mod:`repro.core` — the stochastic population-protocol model (states,
  schedulers, simulator, exact stability checking),
* :mod:`repro.engine` — the compiled execution engine (protocol → lookup
  tables, native/scalar stepping, stacked multi-replica runs),
* :mod:`repro.runtime` — the execution-plan runtime: the shared directed
  pair space, the unified interaction sampler behind every scheduler and
  stream, and plan compilation/execution for all consumer layers,
* :mod:`repro.graphs` — interaction-graph families, properties and the
  renitent constructions of Section 6,
* :mod:`repro.propagation` — broadcast / propagation-time dynamics
  (Section 3),
* :mod:`repro.walks` — classic and population-model random walks
  (Section 4.1),
* :mod:`repro.protocols` — the paper's leader-election protocols
  (Theorems 16, 21, 24 and the trivial star protocol),
* :mod:`repro.lowerbounds` — isolating covers, influencer multigraphs and
  surgery ingredients (Sections 6–7),
* :mod:`repro.analysis` — concentration bounds and scaling fits,
* :mod:`repro.experiments` — the benchmark harness that regenerates
  Table 1,
* :mod:`repro.orchestration` — declarative sweep scenarios, the sharded
  parallel runner and the persistent result store (``.repro_cache/``).

Subpackages and the names below import on first use (``repro._lazy``),
so ``import repro`` alone loads none of them.

Quickstart::

    from repro import graphs, protocols, run_leader_election

    graph = graphs.erdos_renyi(100, p=0.3, rng=0)
    result = run_leader_election(protocols.TokenLeaderElection(), graph, rng=0)
    print(result.stabilization_step, result.leaders)
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "FOLLOWER",
            "LEADER",
            "LeaderElectionProtocol",
            "PopulationProtocol",
            "RandomScheduler",
            "SimulationResult",
            "Simulator",
            "run_leader_election",
        ),
        "engine": ("run_replicas",),
        "graphs": ("Graph",),
        "protocols": (
            "FastLeaderElection",
            "IdentifierLeaderElection",
            "StarLeaderElection",
            "TokenLeaderElection",
        ),
    },
    modules=(
        "analysis",
        "core",
        "engine",
        "experiments",
        "graphs",
        "lowerbounds",
        "orchestration",
        "propagation",
        "protocols",
        "runtime",
        "walks",
    ),
)
__all__.append("__version__")
