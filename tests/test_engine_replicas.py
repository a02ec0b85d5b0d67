"""Tests for the stacked multi-replica runner (repro.engine.replicas)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulator import Simulator, default_max_steps
from repro.engine import run_replicas
from repro.graphs.families import clique
from repro.protocols import StarLeaderElection, TokenLeaderElection

MAX_STEPS = 80_000

COMPARED_FIELDS = (
    "stabilized",
    "certified_step",
    "last_output_change_step",
    "steps_executed",
    "leaders",
    "distinct_states_observed",
)


def _assert_matches_reference(graph, protocol, seeds, results, context):
    assert len(results) == len(seeds)
    for seed, result in zip(seeds, results):
        reference = Simulator(graph, protocol, rng=seed, engine="reference").run(
            max_steps=MAX_STEPS
        )
        for field in COMPARED_FIELDS:
            assert getattr(reference, field) == getattr(result, field), (
                context,
                seed,
                field,
            )
        assert tuple(reference.final_configuration.states) == tuple(
            result.final_configuration.states
        ), (context, seed)


#: The two ways a replica plan executes, keyed by test id, as the seeds
#: that route it: one replica at a time through the per-replica engine
#: (Generator seeds, which the kernel cannot reproduce), or all replicas
#: stacked on the epoch kernel (integer seeds; the per-replica engine
#: again on hosts without the kernel).
_PATH_SEEDS = {"sequential": np.random.default_rng, "lockstep": int}


@pytest.mark.parametrize("path", sorted(_PATH_SEEDS))
def test_replicas_match_reference_runs(path):
    graph = clique(30)
    protocol = TokenLeaderElection()
    seeds = list(range(8))
    results = run_replicas(
        protocol, graph, [_PATH_SEEDS[path](seed) for seed in seeds], max_steps=MAX_STEPS
    )
    _assert_matches_reference(graph, protocol, seeds, results, path)


def test_initially_stable_replicas_return_immediately():
    # One candidate and four followers is already a stable token
    # configuration, so every replica certifies at step 0 without ever
    # touching a scheduler.
    graph = clique(5)
    protocol = TokenLeaderElection()
    inputs = [1, 0, 0, 0, 0]
    results = run_replicas(protocol, graph, [0, 1], max_steps=1_000, inputs=inputs)
    for seed, result in zip([0, 1], results):
        reference = Simulator(graph, protocol, rng=seed, engine="reference").run(
            max_steps=1_000, inputs=inputs
        )
        assert reference.stabilized and reference.steps_executed == 0
        assert result.stabilized == reference.stabilized
        assert result.steps_executed == reference.steps_executed
        assert result.leaders == reference.leaders


def test_empty_seed_list():
    assert run_replicas(TokenLeaderElection(), clique(5), [], max_steps=10) == []


def test_replica_results_independent_of_batching():
    """Stacked results equal per-seed runs through run_leader_election."""
    from repro.core.simulator import run_leader_election

    graph = clique(18)
    protocol = TokenLeaderElection()
    seeds = [11, 12, 13]
    budget = default_max_steps(graph.n_nodes)
    stacked = run_replicas(protocol, graph, seeds, max_steps=budget)
    for seed, result in zip(seeds, stacked):
        single = run_leader_election(protocol, graph, rng=seed, engine="auto")
        assert result.steps_executed == single.steps_executed
        assert tuple(result.final_configuration.states) == tuple(
            single.final_configuration.states
        )
