"""Randomized differential tests: executors, replica widths.

Property-style coverage beyond the hand-picked equivalence cases in
``test_engine_equivalence.py``: ~50 generated ``(graph, protocol, seed)``
triples assert that

* the reference interpreter and every compiled executor (the v6 stack
  where available, the per-replica engine) produce bit-identical
  simulation results on the same scheduler stream, and
* the replica-batched analytics engine produces bit-identical epidemic
  samples for every replica-batch width, on static and dynamic
  topologies alike.

Cases are generated from a fixed master seed via the package's own
SplitMix64 derivation, so the matrix is reproducible; every assertion
message carries the triple's description so a failure can be replayed
in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics.epidemics import run_epidemic_batch
from repro.core.seeds import derive_seed
from repro.core.simulator import run_leader_election
from repro.dynamics import EpochSchedule
from repro.graphs import clique, cycle, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.protocols.identifier import IdentifierLeaderElection
from repro.protocols.star import StarLeaderElection
from repro.protocols.tokens import TokenLeaderElection

MASTER_SEED = 20260728

_GRAPH_BUILDERS = {
    "clique": lambda n, seed: clique(n),
    "cycle": lambda n, seed: cycle(n),
    "star": lambda n, seed: star(n),
    "torus": lambda n, seed: torus(max(int(round(n ** 0.5)), 3), max(int(round(n ** 0.5)), 3)),
    "gnp": lambda n, seed: erdos_renyi(n, p=0.4, rng=seed),
}

_PROTOCOL_BUILDERS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


def _simulator_cases():
    """~39 (graph, protocol, seed) triples for the engine matrix."""
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "star", "torus", "gnp"):
        for protocol_kind in ("token", "star", "identifier"):
            if protocol_kind == "identifier" and graph_kind in ("star", "gnp"):
                continue  # identifier is parameterised for regular families here
            for size in (8, 13, 19):
                seed = derive_seed(MASTER_SEED, "diff-sim", index)
                cases.append((graph_kind, size, protocol_kind, seed))
                index += 1
    return cases


def _analytics_cases():
    """~14 (graph, dynamic?, seed) triples for the replica-width matrix."""
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "torus", "gnp"):
        for dynamic in (False, True):
            seed = derive_seed(MASTER_SEED, "diff-ana", index)
            cases.append((graph_kind, 17, dynamic, seed))
            index += 1
    for graph_kind in ("clique", "star"):
        for dynamic in (False, True):
            seed = derive_seed(MASTER_SEED, "diff-ana", index)
            cases.append((graph_kind, 24, dynamic, seed))
            index += 1
    return cases


def _sim_id(case):
    return f"{case[0]}-n{case[1]}-{case[2]}-s{case[3] % 100000}"


def _ana_id(case):
    return f"{case[0]}-n{case[1]}-{'dyn' if case[2] else 'static'}-s{case[3] % 100000}"


def _result_tuple(result):
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


@pytest.mark.parametrize("case", _simulator_cases(), ids=_sim_id)
def test_engines_bit_identical(case, engine_variants):
    graph_kind, size, protocol_kind, seed = case
    graph = _GRAPH_BUILDERS[graph_kind](size, derive_seed(seed, "graph"))
    max_steps = 6000
    outcomes = {}
    for engine, seed_of in engine_variants:
        protocol = _PROTOCOL_BUILDERS[protocol_kind](graph)
        result = run_leader_election(
            protocol,
            graph,
            rng=seed_of(seed),
            max_steps=max_steps,
            engine=engine,
        )
        outcomes[(engine, seed_of.__name__)] = _result_tuple(result)
    reference = outcomes[("reference", "int_seed")]
    for variant, outcome in outcomes.items():
        assert outcome == reference, (
            f"engine divergence on (graph={graph_kind}, n={size}, "
            f"protocol={protocol_kind}, seed={seed}): {variant} != reference\n"
            f"{variant}: {outcome[:6]}\nreference: {reference[:6]}"
        )


@pytest.mark.parametrize("case", _analytics_cases(), ids=_ana_id)
def test_replica_widths_bit_identical(case):
    graph_kind, size, dynamic, seed = case
    graph = _GRAPH_BUILDERS[graph_kind](size, derive_seed(seed, "graph"))
    n = graph.n_nodes
    schedule = None
    if dynamic:
        schedule = EpochSchedule.from_graphs(
            [graph, cycle(n)], epoch_length=48, repeat=True
        )
    rng = np.random.default_rng(seed)
    count = 11
    sources = [int(s) for s in rng.integers(0, n, size=count)]
    seeds = [derive_seed(seed, "traj", t) for t in range(count)]
    budget = 500_000
    reference = run_epidemic_batch(graph, sources, seeds, budget, schedule=schedule)
    assert (reference >= 0).all(), (
        f"budget exhausted on (graph={graph_kind}, n={size}, dynamic={dynamic}, seed={seed})"
    )
    for width in (1, 2, 5, count):
        result = run_epidemic_batch(
            graph, sources, seeds, budget, replica_batch=width, schedule=schedule
        )
        assert (result == reference).all(), (
            f"replica-width divergence on (graph={graph_kind}, n={size}, "
            f"dynamic={dynamic}, seed={seed}, width={width}): "
            f"{result.tolist()} != {reference.tolist()}"
        )
