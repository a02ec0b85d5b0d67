"""Tests for the stochastic and replay schedulers."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import RandomScheduler, SequenceScheduler, all_ordered_pairs
from repro.graphs import clique, cycle, star


class TestRandomScheduler:
    def test_interactions_are_edges(self, small_cycle):
        scheduler = RandomScheduler(small_cycle, rng=0)
        for _ in range(200):
            u, v = scheduler.next_interaction()
            assert small_cycle.has_edge(u, v)

    def test_steps_emitted_counter(self, small_cycle):
        scheduler = RandomScheduler(small_cycle, rng=0)
        scheduler.next_batch(10)
        scheduler.next_interaction()
        assert scheduler.steps_emitted == 11

    def test_batches_match_requested_size(self, small_clique):
        scheduler = RandomScheduler(small_clique, rng=1)
        assert len(scheduler.next_batch(100)) == 100
        initiators, responders = scheduler.next_arrays(50)
        assert initiators.shape == (50,)
        assert responders.shape == (50,)

    def test_reproducible_with_seed(self, small_cycle):
        a = RandomScheduler(small_cycle, rng=42).next_batch(50)
        b = RandomScheduler(small_cycle, rng=42).next_batch(50)
        assert a == b

    def test_orientation_roughly_uniform(self):
        # On a star, the centre should be the initiator about half the time.
        graph = star(5)
        scheduler = RandomScheduler(graph, rng=0)
        initiators, _ = scheduler.next_arrays(4000)
        centre_fraction = float((initiators == 0).mean())
        assert 0.4 < centre_fraction < 0.6

    def test_edges_roughly_uniform(self):
        graph = cycle(6)
        scheduler = RandomScheduler(graph, rng=3)
        counts = Counter()
        for u, v in scheduler.next_batch(6000):
            counts[(min(u, v), max(u, v))] += 1
        assert len(counts) == 6
        for count in counts.values():
            assert 800 < count < 1200

    def test_rejects_edgeless_graph(self):
        from repro.graphs import Graph

        graph = Graph(3, [], check_connected=False)
        with pytest.raises(ValueError):
            RandomScheduler(graph)

    def test_rejects_bad_batch_size(self, small_cycle):
        scheduler = RandomScheduler(small_cycle)
        with pytest.raises(ValueError):
            scheduler.next_batch(-1)

    def test_generator_interactions_iterator(self, small_cycle):
        scheduler = RandomScheduler(small_cycle, rng=0)
        iterator = scheduler.interactions()
        first = next(iterator)
        assert small_cycle.has_edge(*first)


class TestSequenceScheduler:
    def test_replays_in_order(self, small_cycle):
        sequence = [(0, 1), (1, 2), (2, 3)]
        scheduler = SequenceScheduler(small_cycle, sequence)
        assert scheduler.next_interaction() == (0, 1)
        assert scheduler.next_batch(2) == [(1, 2), (2, 3)]

    def test_remaining(self, small_cycle):
        scheduler = SequenceScheduler(small_cycle, [(0, 1), (1, 2)])
        assert scheduler.remaining == 2
        scheduler.next_interaction()
        assert scheduler.remaining == 1

    def test_exhaustion_raises(self, small_cycle):
        scheduler = SequenceScheduler(small_cycle, [(0, 1)])
        scheduler.next_interaction()
        with pytest.raises(StopIteration):
            scheduler.next_interaction()

    def test_rejects_non_edges(self, small_cycle):
        with pytest.raises(ValueError):
            SequenceScheduler(small_cycle, [(0, 5)])

    def test_batch_overflow_raises(self, small_cycle):
        scheduler = SequenceScheduler(small_cycle, [(0, 1)])
        with pytest.raises(StopIteration):
            scheduler.next_batch(2)


class TestOrderedPairs:
    def test_count_is_twice_edges(self, small_torus):
        pairs = all_ordered_pairs(small_torus)
        assert len(pairs) == 2 * small_torus.n_edges

    def test_both_orientations_present(self, small_cycle):
        pairs = set(all_ordered_pairs(small_cycle))
        assert (0, 1) in pairs and (1, 0) in pairs
