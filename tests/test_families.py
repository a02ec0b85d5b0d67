"""Tests for the deterministic graph families."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.native as native
from repro.graphs import (
    GraphError,
    barbell,
    binary_tree,
    circulant,
    clique,
    complete_bipartite,
    cycle,
    cycle_with_chords,
    double_star,
    grid,
    hypercube,
    lollipop,
    path,
    star,
    torus,
)
from repro.graphs.families import all_named_families, disjoint_union_with_path
from repro.runtime.pairs import directed_tables


class TestClique:
    def test_edge_count(self):
        assert clique(10).n_edges == 45

    def test_regular(self):
        assert clique(6).is_regular()

    def test_minimum_size(self):
        assert clique(1).n_nodes == 1
        with pytest.raises(GraphError):
            clique(0)


class TestCycleAndPath:
    def test_cycle_minimum_size(self):
        with pytest.raises(GraphError):
            cycle(2)

    def test_path_degrees(self):
        g = path(6)
        assert g.degree(0) == 1
        assert g.degree(5) == 1
        assert g.degree(3) == 2

    def test_path_diameter(self):
        assert path(7).diameter() == 6


class TestStar:
    def test_centre_is_node_zero(self):
        g = star(8)
        assert g.degree(0) == 7
        assert all(g.degree(v) == 1 for v in range(1, 8))

    def test_minimum_size(self):
        with pytest.raises(GraphError):
            star(1)


class TestBipartiteAndDoubleStar:
    def test_complete_bipartite_edges(self):
        g = complete_bipartite(3, 4)
        assert g.n_nodes == 7
        assert g.n_edges == 12

    def test_complete_bipartite_rejects_empty_side(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 4)

    def test_double_star(self):
        g = double_star(3, 4)
        assert g.n_nodes == 9
        assert g.degree(0) == 4
        assert g.degree(1) == 5


class TestGridsAndTori:
    def test_torus_is_4_regular(self):
        g = torus(4, 5)
        assert g.is_regular()
        assert g.max_degree == 4
        assert g.n_edges == 2 * 20

    def test_torus_minimum_dimensions(self):
        with pytest.raises(GraphError):
            torus(2, 5)

    def test_grid_corner_degree(self):
        g = grid(3, 4)
        assert g.degree(0) == 2
        assert g.n_nodes == 12

    def test_grid_edge_count(self):
        g = grid(3, 4)
        assert g.n_edges == 3 * 3 + 2 * 4

    def test_torus_diameter(self):
        # Diameter of an r x c torus is floor(r/2) + floor(c/2).
        assert torus(4, 6).diameter() == 2 + 3


class TestHypercube:
    def test_sizes(self):
        g = hypercube(4)
        assert g.n_nodes == 16
        assert g.n_edges == 4 * 16 // 2
        assert g.is_regular()

    def test_diameter_is_dimension(self):
        assert hypercube(5).diameter() == 5

    def test_rejects_dimension_zero(self):
        with pytest.raises(GraphError):
            hypercube(0)


class TestLollipopAndBarbell:
    def test_lollipop_structure(self):
        g = lollipop(5, 4)
        assert g.n_nodes == 9
        assert g.n_edges == 10 + 4
        assert g.degree(8) == 1  # end of the tail

    def test_barbell_structure(self):
        g = barbell(4, 3)
        assert g.n_nodes == 11
        assert g.n_edges == 2 * 6 + 4

    def test_barbell_zero_bridge(self):
        g = barbell(3, 0)
        assert g.n_nodes == 6
        # The two cliques are joined directly by one edge.
        assert g.n_edges == 2 * 3 + 1

    def test_lollipop_rejects_bad_sizes(self):
        with pytest.raises(GraphError):
            lollipop(1, 3)


class TestCirculantsAndChords:
    def test_cycle_with_chords_contains_cycle(self):
        g = cycle_with_chords(12, 3)
        for i in range(12):
            assert g.has_edge(i, (i + 1) % 12)
        assert g.has_edge(0, 3)

    def test_cycle_with_chords_rejects_bad_step(self):
        with pytest.raises(GraphError):
            cycle_with_chords(12, 7)

    def test_circulant_regular(self):
        g = circulant(10, [1, 2])
        assert g.is_regular()
        assert g.max_degree == 4

    def test_circulant_requires_offsets(self):
        with pytest.raises(GraphError):
            circulant(10, [0])


class TestTreesAndCombinators:
    def test_binary_tree_size(self):
        g = binary_tree(3)
        assert g.n_nodes == 15
        assert g.n_edges == 14

    def test_binary_tree_depth_zero(self):
        g = binary_tree(0)
        assert g.n_nodes == 1

    def test_disjoint_union_with_path(self):
        parts = [clique(4), clique(4)]
        g = disjoint_union_with_path(parts, path_length=5)
        # 2 copies, joined into a ring via 2 paths of 5 edges each
        # (each path adds 4 internal nodes).
        assert g.n_nodes == 8 + 2 * 4
        assert g.n_edges == 2 * 6 + 2 * 5

    def test_disjoint_union_requires_two_parts(self):
        with pytest.raises(GraphError):
            disjoint_union_with_path([clique(3)], 2)

    def test_all_named_families_listing(self):
        names = all_named_families()
        assert "clique" in names
        assert "torus" in names
        assert len(names) >= 10


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_star_always_has_n_minus_1_edges(n):
    g = star(n)
    assert g.n_edges == n - 1
    assert g.diameter() == (1 if n == 2 else 2)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(min_value=3, max_value=6), cols=st.integers(min_value=3, max_value=6))
def test_torus_node_and_edge_counts(rows, cols):
    g = torus(rows, cols)
    assert g.n_nodes == rows * cols
    assert int(g.degrees.sum()) == 2 * g.n_edges


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(min_value=3, max_value=7), cols=st.integers(min_value=3, max_value=7))
@example(rows=3, cols=40)
@example(rows=40, cols=3)
@example(rows=31, cols=17)
def test_torus_edges_match_sorted_set_reference(rows, cols):
    """Byte-identity pin: the vectorised build equals the per-cell reference.

    The seeded pair streams index edges by position, so the order of the
    historical ``sorted({(min(u, v), max(u, v)), ...})`` is the contract.
    The build emits that order without sorting, one row pattern for the
    first row, one for the last and one shifted over the rows between:
    the explicit examples give those patterns thin and uneven shapes.
    """
    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for v in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
                edges.add((min(u, v), max(u, v)))
    reference = sorted(edges)
    sides = [True] if native.get_edge_pass_kernel() is None else [False, True]
    for numpy_twin in sides:
        with pytest.MonkeyPatch.context() as patch:
            if numpy_twin:
                patch.setattr(native, "get_edge_pass_kernel", lambda: None)
            g = torus(rows, cols)
        assert g.edges_u.dtype == np.int32 and g.edges_v.dtype == np.int32
        assert g.edges_u.tolist() == [u for u, _ in reference]
        assert g.edges_v.tolist() == [v for _, v in reference]
        assert g._endpoints[2 * g.n_edges :].tolist() == g.edges_u.tolist()
        assert g.degrees.dtype == np.int32 and g.degrees.tolist() == [4] * g.n_nodes


@pytest.mark.skipif(native.get_edge_pass_kernel() is None, reason="native kernel unavailable")
def test_torus_build_peak_memory_is_its_buffers():
    """Memory guard: a torus build allocates its endpoint buffer, its
    degrees and the union-find scratch, and little else.

    The row blocks are written straight into the graph's ``3m``-word
    endpoint buffer, and the C edge pass validates them there, so the
    traced peak stays within ``3m + 2n`` four-byte words plus 64 KiB for
    the row patterns.  NumPy reports its data allocations to
    ``tracemalloc``.
    """
    rows, cols = 200, 300
    n, m = rows * cols, 2 * rows * cols
    torus(rows, cols)  # the kernel is loaded outside the trace
    tracemalloc.start()
    try:
        g = torus(rows, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_edges == m
    assert peak <= 4 * (3 * m + 2 * n) + 64 * 1024, peak / (4 * m)


def test_million_node_torus_holds_node_ids_in_four_bytes():
    """Memory contract: on either build path the million-node torus keeps
    its ``3m`` endpoint words and its ``n`` degrees in four bytes each,
    and the scheduler's directed pair tables are views of that buffer."""
    sides = [True] if native.get_edge_pass_kernel() is None else [False, True]
    for numpy_twin in sides:
        with pytest.MonkeyPatch.context() as patch:
            if numpy_twin:
                patch.setattr(native, "get_edge_pass_kernel", lambda: None)
            g = torus(1000, 1000)
        n, m = g.n_nodes, g.n_edges
        assert g._endpoints.nbytes == 12 * m and g.degrees.nbytes == 4 * n
        du, dv = directed_tables(g)
        assert du.dtype == dv.dtype == np.int32
        assert np.shares_memory(du, g._endpoints) and np.shares_memory(dv, g._endpoints)
