"""Tests for the simulation engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import LEADER, SequenceScheduler, Simulator, run_leader_election
from repro.graphs import clique, cycle, path, star
from repro.protocols import StarLeaderElection, TokenLeaderElection


class TestBasicRuns:
    def test_token_protocol_stabilizes_on_clique(self, small_clique):
        result = run_leader_election(TokenLeaderElection(), small_clique, rng=0)
        assert result.stabilized
        assert result.leaders == 1
        assert result.stabilization_step <= result.certified_step
        assert result.final_configuration.step == result.steps_executed

    def test_single_node_graph_is_immediately_stable(self):
        from repro.graphs import Graph

        graph = Graph(1, [])
        simulator = Simulator(graph, TokenLeaderElection(), rng=0)
        result = simulator.run(max_steps=0)
        assert result.stabilized
        assert result.certified_step == 0
        assert result.leaders == 1

    def test_respects_max_steps_budget(self, small_cycle):
        simulator = Simulator(small_cycle, TokenLeaderElection(), rng=0)
        result = simulator.run(max_steps=5, check_interval=1)
        assert result.steps_executed <= 5
        if not result.stabilized:
            assert result.certified_step == result.steps_executed

    def test_per_node_inputs(self, small_cycle):
        # Only two candidates: stabilization means one of them wins.
        inputs = [i < 2 for i in range(small_cycle.n_nodes)]
        simulator = Simulator(small_cycle, TokenLeaderElection(), rng=1)
        result = simulator.run(max_steps=100_000, inputs=inputs, check_interval=8)
        assert result.stabilized
        assert result.leaders == 1

    def test_input_length_mismatch_raises(self, small_cycle):
        simulator = Simulator(small_cycle, TokenLeaderElection(), rng=0)
        with pytest.raises(ValueError):
            simulator.run(max_steps=10, inputs=[True])

    def test_negative_budget_rejected(self, small_cycle):
        simulator = Simulator(small_cycle, TokenLeaderElection(), rng=0)
        with pytest.raises(ValueError):
            simulator.run(max_steps=-1)


class TestBookkeeping:
    def test_distinct_states_observed(self, small_clique):
        result = run_leader_election(TokenLeaderElection(), small_clique, rng=2)
        assert 2 <= result.distinct_states_observed <= 6

    def test_leader_trace_recorded(self, small_clique):
        simulator = Simulator(small_clique, TokenLeaderElection(), rng=3)
        result = simulator.run(
            max_steps=50_000, record_leader_trace=True, check_interval=16
        )
        assert result.leader_trace[0] == (0, small_clique.n_nodes)
        assert result.leader_trace[-1][1] == 1
        steps = [s for s, _count in result.leader_trace]
        assert steps == sorted(steps)

    def test_leader_count_monotone_for_token_protocol(self, small_clique):
        simulator = Simulator(small_clique, TokenLeaderElection(), rng=4)
        result = simulator.run(
            max_steps=50_000, record_leader_trace=True, check_interval=16
        )
        counts = [count for _step, count in result.leader_trace]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_last_output_change_consistency(self, small_clique):
        result = run_leader_election(TokenLeaderElection(), small_clique, rng=5)
        assert 0 < result.last_output_change_step <= result.certified_step

    def test_wall_time_positive(self, small_clique):
        result = run_leader_election(TokenLeaderElection(), small_clique, rng=6)
        assert result.wall_time_seconds >= 0.0


class TestFixedSchedules:
    def test_star_protocol_single_interaction(self):
        graph = star(6)
        simulator = Simulator(graph, StarLeaderElection(), rng=0)
        result = simulator.run_fixed_schedule([(0, 1)])
        assert result.leaders == 1
        assert result.stabilized
        assert result.last_output_change_step == 1

    def test_token_protocol_fixed_schedule_demotions(self):
        graph = cycle(4)
        protocol = TokenLeaderElection()
        simulator = Simulator(graph, protocol, rng=0)
        # (0,1): tokens swap, both black -> responder's token whitened and
        # candidate 1 immediately demoted.
        result = simulator.run_fixed_schedule([(0, 1)])
        assert result.leaders == graph.n_nodes - 1

    def test_fixed_schedule_from_a_generator_matches_the_list(self):
        graph = path(3)
        schedule = [(0, 1), (1, 2), (1, 0), (2, 1)] * 3
        results = [
            dataclasses.replace(
                Simulator(graph, TokenLeaderElection(), rng=0).run_fixed_schedule(pairs),
                wall_time_seconds=0.0,
            )
            for pairs in (schedule, (pair for pair in schedule))
        ]
        assert results[0].steps_executed == 12
        assert results[0].stabilized and results[0].leaders == 1
        assert results[1] == results[0]

    def test_fixed_schedule_rejects_non_edges(self, small_cycle):
        simulator = Simulator(small_cycle, TokenLeaderElection(), rng=0)
        with pytest.raises(ValueError):
            simulator.run_fixed_schedule([(0, 5)])


class TestStabilizationMeasurement:
    def test_star_trivial_protocol_stabilizes_in_one_step(self):
        graph = star(20)
        result = run_leader_election(
            StarLeaderElection(), graph, rng=0, check_interval=1
        )
        assert result.stabilized
        assert result.stabilization_step == 1
        assert result.certified_step == 1

    def test_certificate_checked_on_initial_configuration(self):
        # A 2-node "star" with the trivial protocol is not initially stable
        # (two fresh adjacent nodes), but stabilizes after one interaction.
        graph = star(2)
        result = run_leader_election(StarLeaderElection(), graph, rng=1, check_interval=1)
        assert result.stabilization_step == 1
