"""Property tests: the compiled engine reproduces the reference exactly.

For every bundled protocol, across small graph families and seeds, each
compiled executor of ``engine="auto"`` (the executor table
``EXECUTOR_SEEDS`` of ``tests/conftest.py``) must produce a
:class:`SimulationResult` whose every
deterministic field — stabilization flag, certified step, last output
change, executed steps, leader count, final configuration and the
distinct-state count — equals the reference interpreter's, because both
consume the identical scheduler stream.  This is the contract that lets
the experiment harness switch engines freely.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import Simulator
from repro.engine import clear_compilation_cache
from repro.graphs.families import clique, cycle, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.propagation import broadcast_time_estimate
from repro.protocols import (
    FastLeaderElection,
    IdentifierLeaderElection,
    StarLeaderElection,
    TokenLeaderElection,
)

MAX_STEPS = 60_000

COMPARED_FIELDS = (
    "stabilized",
    "certified_step",
    "last_output_change_step",
    "steps_executed",
    "leaders",
    "distinct_states_observed",
)


def _graphs():
    return [
        clique(24),
        cycle(16),
        star(12),
        torus(4, 4),
        erdos_renyi(20, 0.3, rng=5),
    ]


def _protocol_factories():
    def fast(graph):
        broadcast = broadcast_time_estimate(graph, repetitions=2, rng=0).value
        return FastLeaderElection.practical_for_graph(graph, max(broadcast, 1.0))

    return {
        "token": lambda graph: TokenLeaderElection(),
        "star": lambda graph: StarLeaderElection(),
        "identifier": lambda graph: IdentifierLeaderElection(graph.n_nodes),
        "identifier-narrow": lambda graph: IdentifierLeaderElection(
            graph.n_nodes, identifier_bits=5
        ),
        "fast": fast,
    }


def _assert_results_identical(reference, other, context):
    for field in COMPARED_FIELDS:
        assert getattr(reference, field) == getattr(other, field), (context, field)
    assert tuple(reference.final_configuration.states) == tuple(
        other.final_configuration.states
    ), context
    assert reference.leader_trace == other.leader_trace, context


def test_executors_match_reference_across_protocols_and_graphs(executor_seed):
    clear_compilation_cache()
    for graph in _graphs():
        for name, factory in _protocol_factories().items():
            for seed in (0, 1):
                protocol = factory(graph)
                reference = Simulator(graph, protocol, rng=seed, engine="reference").run(
                    max_steps=MAX_STEPS
                )
                compiled = Simulator(
                    graph, protocol, rng=executor_seed(seed), engine="auto"
                ).run(max_steps=MAX_STEPS)
                _assert_results_identical(
                    reference, compiled, (graph.name, name, seed, executor_seed.__name__)
                )


def test_auto_engine_matches_reference():
    for graph in (clique(20), cycle(12)):
        for name, factory in _protocol_factories().items():
            protocol = factory(graph)
            reference = Simulator(graph, protocol, rng=3, engine="reference").run(
                max_steps=MAX_STEPS
            )
            auto = Simulator(graph, protocol, rng=3, engine="auto").run(max_steps=MAX_STEPS)
            _assert_results_identical(reference, auto, (graph.name, name))


@pytest.mark.parametrize("executor", ["per-replica"])
def test_leader_trace_matches_reference(executor):
    """A leader trace routes a compiled run to the per-replica engine."""
    graph = clique(20)
    protocol = TokenLeaderElection()
    for seed in (0, 4):
        reference = Simulator(graph, protocol, rng=seed, engine="reference").run(
            max_steps=30_000, record_leader_trace=True, trace_resolution=32
        )
        compiled = Simulator(graph, protocol, rng=seed, engine="auto").run(
            max_steps=30_000, record_leader_trace=True, trace_resolution=32
        )
        _assert_results_identical(reference, compiled, (executor, seed))


def test_inputs_are_respected():
    graph = clique(10)
    protocol = TokenLeaderElection()
    inputs = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    reference = Simulator(graph, protocol, rng=2, engine="reference").run(
        max_steps=20_000, inputs=inputs
    )
    compiled = Simulator(graph, protocol, rng=2, engine="auto").run(
        max_steps=20_000, inputs=inputs
    )
    _assert_results_identical(reference, compiled, "inputs")


def test_zero_step_budget_matches_reference():
    graph = star(8)
    protocol = StarLeaderElection()
    ref = Simulator(graph, protocol, rng=0, engine="reference").run(max_steps=0)
    comp = Simulator(graph, protocol, rng=0, engine="auto").run(max_steps=0)
    _assert_results_identical(ref, comp, "zero-budget")
    assert not ref.stabilized


def test_auto_engine_runs_replayed_schedules_on_the_reference():
    """A replayed schedule has no ``next_arrays``: ``auto`` interprets it."""
    from repro.core.scheduler import SequenceScheduler

    graph = clique(6)
    protocol = TokenLeaderElection()
    scheduler = SequenceScheduler(graph, [(0, 1), (2, 3)])
    result = Simulator(graph, protocol, rng=0, engine="auto").run(max_steps=2, scheduler=scheduler)
    reference = Simulator(graph, protocol, rng=0, engine="reference").run(
        max_steps=2, scheduler=SequenceScheduler(graph, [(0, 1), (2, 3)])
    )
    assert result.steps_executed == 2
    _assert_results_identical(reference, result, "replayed")


def test_run_fixed_schedule_still_uses_reference_semantics():
    graph = clique(6)
    protocol = TokenLeaderElection()
    simulator = Simulator(graph, protocol, rng=0, engine="auto")
    result = simulator.run_fixed_schedule([(0, 1), (1, 2), (3, 4)])
    assert result.steps_executed == 3
