"""Property tests: the compiled engine reproduces the reference exactly.

For every bundled protocol, across small graph families and seeds, each
compiled executor must produce a :class:`SimulationResult` whose every
deterministic field — stabilization flag, certified step, last output
change, executed steps, leader count, final configuration and the
distinct-state count — equals the reference interpreter's, because both
consume the identical scheduler stream.  This is the contract that lets
the experiment harness switch engines freely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulator import Simulator
from repro.engine import clear_compilation_cache
from repro.engine.native import get_run_epoch_kernel
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


#: The compiled executors, keyed by test id, as the seed a run passes:
#: a Generator is not kernel-seedable, so it routes the run to the
#: per-replica engine on the same stream; an integer seed takes the v6
#: epoch stack.
_EXECUTOR_SEEDS = {"per-replica": np.random.default_rng, "v6": int}


@pytest.mark.parametrize("executor", ["per-replica", "v6"])
def test_executors_match_reference_across_protocols_and_graphs(executor):
    if executor == "v6" and get_run_epoch_kernel() is None:
        pytest.skip("kernel v6 unavailable (no C compiler)")
    clear_compilation_cache()
    for graph in _graphs():
        for name, factory in _protocol_factories().items():
            for seed in (0, 1):
                protocol = factory(graph)
                reference = Simulator(graph, protocol, rng=seed).run(max_steps=MAX_STEPS)
                compiled = Simulator(
                    graph, protocol, rng=_EXECUTOR_SEEDS[executor](seed)
                ).run(max_steps=MAX_STEPS, engine="compiled")
                _assert_results_identical(
                    reference, compiled, (graph.name, name, seed, executor)
                )


def test_auto_engine_matches_reference():
    for graph in (clique(20), cycle(12)):
        for name, factory in _protocol_factories().items():
            protocol = factory(graph)
            reference = Simulator(graph, protocol, rng=3).run(max_steps=MAX_STEPS)
            auto = Simulator(graph, protocol, rng=3).run(max_steps=MAX_STEPS, engine="auto")
            _assert_results_identical(reference, auto, (graph.name, name))


@pytest.mark.parametrize("executor", ["per-replica"])
def test_leader_trace_matches_reference(executor):
    """A leader trace routes a compiled run to the per-replica engine."""
    graph = clique(20)
    protocol = TokenLeaderElection()
    for seed in (0, 4):
        reference = Simulator(graph, protocol, rng=seed).run(
            max_steps=30_000, record_leader_trace=True, trace_resolution=32
        )
        compiled = Simulator(graph, protocol, rng=seed).run(
            max_steps=30_000,
            record_leader_trace=True,
            trace_resolution=32,
            engine="compiled",
        )
        _assert_results_identical(reference, compiled, (executor, seed))


def test_inputs_are_respected():
    graph = clique(10)
    protocol = TokenLeaderElection()
    inputs = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    reference = Simulator(graph, protocol, rng=2).run(max_steps=20_000, inputs=inputs)
    compiled = Simulator(graph, protocol, rng=2).run(
        max_steps=20_000, inputs=inputs, engine="compiled"
    )
    _assert_results_identical(reference, compiled, "inputs")


def test_zero_step_budget_matches_reference():
    graph = star(8)
    protocol = StarLeaderElection()
    ref = Simulator(graph, protocol, rng=0).run(max_steps=0)
    comp = Simulator(graph, protocol, rng=0).run(max_steps=0, engine="compiled")
    _assert_results_identical(ref, comp, "zero-budget")
    assert not ref.stabilized


def test_compiled_engine_rejects_replayed_schedules():
    from repro.core.scheduler import SequenceScheduler

    graph = clique(6)
    protocol = TokenLeaderElection()
    scheduler = SequenceScheduler(graph, [(0, 1), (2, 3)])
    simulator = Simulator(graph, protocol, rng=0)
    with pytest.raises(ValueError):
        simulator.run(max_steps=2, scheduler=scheduler, engine="compiled")
    # engine="auto" silently uses the reference path instead.
    result = simulator.run(max_steps=2, scheduler=scheduler, engine="auto")
    assert result.steps_executed == 2


def test_run_fixed_schedule_still_uses_reference_semantics():
    graph = clique(6)
    protocol = TokenLeaderElection()
    simulator = Simulator(graph, protocol, rng=0, engine="auto")
    result = simulator.run_fixed_schedule([(0, 1), (1, 2), (3, 4)])
    assert result.steps_executed == 3
