"""Unit tests for the shared directed-pair encoding (repro.runtime.pairs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    barbell,
    binary_tree,
    circulant,
    clique,
    complete_bipartite,
    cycle,
    cycle_with_chords,
    double_star,
    erdos_renyi,
    grid,
    hypercube,
    lollipop,
    path,
    random_regular,
    star,
    torus,
)
from repro.graphs.families import all_named_families
from repro.graphs.graph import Graph
from repro.runtime.pairs import (
    decode_pairs,
    directed_pair_count,
    directed_tables,
    encode_oriented,
)


class TestDirectedTables:
    def test_layout_matches_the_scheduler_distribution(self):
        graph = cycle(7)
        du, dv = directed_tables(graph)
        m = graph.n_edges
        assert du.shape == dv.shape == (2 * m,)
        # Index r < m is edge r in stored orientation, r >= m the reverse.
        assert (du[:m] == graph.edges_u).all()
        assert (dv[:m] == graph.edges_v).all()
        assert (du[m:] == graph.edges_v).all()
        assert (dv[m:] == graph.edges_u).all()

    def test_covers_every_ordered_pair_exactly_once(self):
        graph = clique(6)
        du, dv = directed_tables(graph)
        pairs = set(zip(du.tolist(), dv.tolist()))
        assert len(pairs) == 2 * graph.n_edges
        for u, v in graph.edges():
            assert (u, v) in pairs and (v, u) in pairs

    def test_tables_are_views_of_the_graph_buffer(self):
        """No copy: both tables are views of the one endpoint buffer that
        also holds ``edges_u`` and ``edges_v``."""
        graph = star(9)
        du, dv = directed_tables(graph)
        assert np.shares_memory(du, graph.edges_u)
        assert np.shares_memory(dv, graph.edges_v)
        assert du.base is graph.edges_u.base and dv.base is graph.edges_u.base
        # Two calls return views of the same words.
        again = directed_tables(graph)
        assert again[0].ctypes.data == du.ctypes.data
        assert again[1].ctypes.data == dv.ctypes.data

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            directed_tables(Graph(3, [], check_connected=False))
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            directed_tables(Graph.from_edge_arrays(3, empty, empty, check_connected=False))

    def test_pair_count(self):
        graph = clique(5)
        assert directed_pair_count(graph) == 2 * graph.n_edges


_FAMILY_GRAPHS = {
    "clique": lambda: clique(7),
    "cycle": lambda: cycle(9),
    "path": lambda: path(6),
    "star": lambda: star(8),
    "complete_bipartite": lambda: complete_bipartite(3, 4),
    "torus": lambda: torus(4, 5),
    "grid": lambda: grid(3, 4),
    "hypercube": lambda: hypercube(4),
    "lollipop": lambda: lollipop(5, 3),
    "barbell": lambda: barbell(4, 2),
    "cycle_with_chords": lambda: cycle_with_chords(12, 3),
    "circulant": lambda: circulant(11, (1, 3)),
    "binary_tree": lambda: binary_tree(3),
    "double_star": lambda: double_star(3, 4),
}


def _from_torus_arrays(unordered: bool) -> Graph:
    """A torus rebuilt by ``from_edge_arrays``: in key order (the
    ordered path), or reversed with flipped endpoints (the sorted path)."""
    ordered = torus(5, 6)
    u, v = ordered.edges_u.copy(), ordered.edges_v.copy()
    if unordered:
        u, v = v[::-1], u[::-1]
    return Graph.from_edge_arrays(ordered.n_nodes, u, v)


#: Every way a graph is built: the edge-list constructor,
#: ``from_edge_arrays`` on ordered, unordered and int32 endpoints, the
#: random families and every named family.
_BUILDS = {
    "constructor": lambda: Graph(6, [(4, 1), (0, 1), (5, 2), (2, 3), (3, 4), (0, 5)]),
    "from-edge-arrays-ordered": lambda: _from_torus_arrays(False),
    "from-edge-arrays-unordered": lambda: _from_torus_arrays(True),
    "from-edge-arrays-int32": lambda: Graph.from_edge_arrays(
        6, np.int32([3, 1, 0]), np.int32([1, 2, 5]), check_connected=False
    ),
    "erdos-renyi": lambda: erdos_renyi(20, 0.3, rng=4),
    "random-regular": lambda: random_regular(16, 3, rng=2),
    **_FAMILY_GRAPHS,
}


def test_family_list_is_covered():
    assert sorted(_FAMILY_GRAPHS) == sorted(all_named_families())


@pytest.mark.parametrize("label", sorted(_BUILDS))
def test_tables_equal_the_concatenation_reference(label):
    """Every build path lays out ``[u | v | u]``: the tables are exactly
    ``concat(u, v)`` and ``concat(v, u)``."""
    graph = _BUILDS[label]()
    du, dv = directed_tables(graph)
    u, v = np.asarray(graph.edges_u), np.asarray(graph.edges_v)
    expected_u = np.concatenate((u, v))
    expected_v = np.concatenate((v, u))
    assert du.dtype == dv.dtype == np.int32
    assert du.flags.c_contiguous and dv.flags.c_contiguous
    assert np.array_equal(du, expected_u) and np.array_equal(dv, expected_v)
    assert np.array_equal(graph.degrees, np.bincount(expected_u, minlength=graph.n_nodes))


class TestEncodeDecode:
    def test_encode_matches_historical_orientation_decode(self):
        """index = edge + (1-o)*m reproduces np.where(o, u, v) exactly."""
        graph = clique(8)
        m = graph.n_edges
        rng = np.random.default_rng(3)
        edges = rng.integers(0, m, size=500)
        orientations = rng.integers(0, 2, size=500)
        expected_u = np.where(orientations.astype(bool), graph.edges_u[edges], graph.edges_v[edges])
        expected_v = np.where(orientations.astype(bool), graph.edges_v[edges], graph.edges_u[edges])
        indices = encode_oriented(edges.copy(), orientations.copy(), m)
        du, dv = directed_tables(graph)
        iu, iv = decode_pairs(indices, du, dv)
        assert (iu == expected_u).all()
        assert (iv == expected_v).all()

    def test_encode_bounds(self):
        m = 10
        edges = np.arange(m, dtype=np.int64)
        stored = encode_oriented(edges.copy(), np.ones(m, dtype=np.int64), m)
        reversed_ = encode_oriented(edges.copy(), np.zeros(m, dtype=np.int64), m)
        assert (stored == np.arange(m)).all()
        assert (reversed_ == np.arange(m) + m).all()

    def test_decode_round_trip_over_full_index_space(self):
        graph = cycle(11)
        du, dv = directed_tables(graph)
        indices = np.arange(2 * graph.n_edges, dtype=np.int64)
        iu, iv = decode_pairs(indices, du, dv)
        for u, v in zip(iu.tolist(), iv.tolist()):
            assert graph.has_edge(u, v)


class TestDialectConsistency:
    def test_scheduler_raw_indices_decode_to_its_own_arrays(self):
        from repro.core.scheduler import RandomScheduler

        graph = cycle(13)
        a = RandomScheduler(graph, rng=11)
        b = RandomScheduler(graph, rng=11)
        iu, iv = a.next_arrays(777)
        raw = b.next_pair_indices(777)
        ru, rv = decode_pairs(raw, *directed_tables(graph))
        assert (iu == ru).all() and (iv == rv).all()


class TestEncodeOrientedPurity:
    def test_inputs_are_not_mutated(self):
        """encode_oriented must never write into its argument arrays.

        The scheduler's refill path reuses its draw buffers across
        blocks; an in-place encode silently corrupts the next block's
        orientation draws (the historical bug this pins).
        """
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 40, size=256)
        orientations = rng.integers(0, 2, size=256)
        edges_before = edges.copy()
        orientations_before = orientations.copy()
        result = encode_oriented(edges, orientations, 40)
        assert (edges == edges_before).all()
        assert (orientations == orientations_before).all()
        assert result is not edges and result is not orientations

    def test_result_matches_formula(self):
        edges = np.array([0, 3, 7], dtype=np.int64)
        orientations = np.array([1, 0, 1], dtype=np.int64)
        assert encode_oriented(edges, orientations, 9).tolist() == [0, 12, 7]
