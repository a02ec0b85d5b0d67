"""Unit tests for the core Graph data structure."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.native as native
from repro.graphs import Graph, GraphError, clique, cycle, path, star, torus


def _build_paths():
    """The graph-build paths this host has: the C edge pass where the
    kernel is built, and always its NumPy twin."""
    return ("kernel", "numpy") if native.get_edge_pass_kernel() is not None else ("numpy",)


@contextlib.contextmanager
def _build_path(side):
    """Graph builds and connectivity checks inside take the C edge pass
    (``"kernel"``: the host's default) or its NumPy twin (``"numpy"``:
    the kernel getter patched to ``None``)."""
    if side == "kernel":
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "get_edge_pass_kernel", lambda: None)
        yield


@pytest.fixture(params=["kernel", "numpy"])
def build_path(request):
    """Each test that takes it runs on both build paths."""
    if request.param not in _build_paths():
        pytest.skip("native kernel unavailable")
    with _build_path(request.param):
        yield request.param


class TestConstruction:
    def test_single_node_graph(self):
        g = Graph(1, [])
        assert g.n_nodes == 1
        assert g.n_edges == 0
        assert g.diameter() == 0

    def test_basic_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.degree(0) == 2

    def test_rejects_zero_nodes(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_disconnected_by_default(self):
        with pytest.raises(GraphError):
            Graph(4, [(0, 1), (2, 3)])

    def test_allows_disconnected_when_requested(self):
        g = Graph(4, [(0, 1), (2, 3)], check_connected=False)
        assert g.n_edges == 2

    def test_rejects_edgeless_multinode(self):
        with pytest.raises(GraphError):
            Graph(3, [])

    def test_edges_normalised_to_sorted_pairs(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert set(g.edges()) == {(1, 2), (0, 1)}

    def test_name_recorded(self):
        g = Graph(2, [(0, 1)], name="tiny")
        assert g.name == "tiny"
        assert "tiny" in repr(g)


class TestConstructionNumPy(TestConstruction):
    """The constructor's cases on the NumPy twin of the edge pass."""

    @pytest.fixture(autouse=True)
    def _numpy_twin(self):
        with _build_path("numpy"):
            yield


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edge_arrays(3.5, [0, 1, 2], [1, 2, 3]),
        lambda: Graph(3.5, [(0, 1), (1, 2), (2, 3)]),
        lambda: Graph.from_edge_arrays(3, [0.0, 1.7], [1.2, 2.9]),
        lambda: Graph(3, [(0.0, 1.7), (1.2, 2.9)]),
    ],
    ids=["edge-arrays-float-n", "tuples-float-n", "float-endpoint-arrays", "float-endpoint-tuples"],
)
def test_non_integral_inputs_raise(build, build_path):
    """A node count or an endpoint that is not an integer raises.

    With ``n = 3.5``, node 3 would pass the range check while the
    buffers are sized for ``int(3.5) == 3``, and the kernel would write
    past its degrees and union-find scratch.  Float endpoints must not
    be truncated to other nodes.
    """
    with pytest.raises(GraphError, match="integer"):
        build()


def test_integer_likes_are_accepted(build_path):
    """NumPy integers pass ``operator.index``; integer arrays of any width
    are narrowed to the graph's ``int32`` node ids."""
    g = Graph(np.int64(3), [(np.int32(0), np.int64(1)), (1, 2)])
    h = Graph.from_edge_arrays(np.uint8(3), np.array([0, 1], np.int32), np.array([1, 2], np.uint16))
    assert g == h and g.n_nodes == h.n_nodes == 3 and type(h.n_nodes) is int
    assert h.edges_u.dtype == np.int32 and h.degrees.tolist() == [1, 2, 1]


# ----------------------------------------------------------------------
# Node ids are int32: narrowing must never change one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [2**31, 2**32 + 5, -(2**31) - 1])
def test_wide_endpoints_are_refused_before_narrowing(bad, build_path):
    """An end outside ``[0, n)`` is refused at its own width.  Narrowed to
    ``int32`` first, ``2**32 + 5`` would be node 5 and close this path on
    six nodes, ``2**31`` would be negative and ``-(2**31) - 1`` would be
    ``2**31 - 1``."""
    u, v = [0, 1, 2, 3, 4], [1, 2, 3, 4, bad]
    with pytest.raises(GraphError, match=r"^edge \(4, -?\d+\) out of range for n=6$"):
        Graph(6, list(zip(u, v)))
    with pytest.raises(GraphError, match=r"^edge endpoint out of range for n=6$"):
        Graph.from_edge_arrays(6, np.array(u), np.array(v))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(2**31, []),
        lambda: Graph.from_edge_arrays(2**31, np.array([0]), np.array([1])),
        lambda: torus(2**16, 2**15),
    ],
    ids=["constructor", "edge-arrays", "torus"],
)
def test_node_count_is_limited_to_int32(build):
    """``2**31`` nodes raise, naming the limit, before any buffer is sized."""
    with pytest.raises(GraphError, match=r"at most 2\*\*31 - 1 = 2147483647 nodes"):
        build()


def _wide_key_edges():
    """A cycle on ``2**17`` nodes plus the chords ``(1, 100000)`` and
    ``(32769, 100000)``, shuffled.  The chords' keys ``low * n + high``
    differ by exactly ``2**32``, so in ``int32`` both are 231072."""
    n = 2**17
    u = np.append(np.arange(n), [1, 32769])
    v = np.append((np.arange(n) + 1) % n, [100000, 100000])
    assert (1 * n + 100000) % 2**32 == (32769 * n + 100000) % 2**32 == 231072
    order = np.random.default_rng(17).permutation(u.size)
    return n, u[order], v[order]


def test_duplicate_keys_are_exact_where_int32_keys_would_wrap(build_path):
    """The duplicate check's keys are ``int64``: the two chords are
    distinct edges and the graph builds; repeating one edge raises."""
    n, u, v = _wide_key_edges()
    g = Graph.from_edge_arrays(n, u, v)
    assert g.n_edges == n + 2 and g.has_edge(1, 100000) and g.has_edge(32769, 100000)
    assert Graph(n, list(zip(u.tolist(), v.tolist()))) == g
    u, v = np.append(u, u[7]), np.append(v, v[7])
    with pytest.raises(GraphError, match=r"^duplicate edge in endpoint arrays$"):
        Graph.from_edge_arrays(n, u, v)
    with pytest.raises(GraphError, match=r"^duplicate edge"):
        Graph(n, list(zip(u.tolist(), v.tolist())))


class TestAccessors:
    def test_degrees_of_star(self, small_star):
        assert small_star.degree(0) == small_star.n_nodes - 1
        assert small_star.max_degree == small_star.n_nodes - 1
        assert small_star.min_degree == 1

    def test_neighbors_sorted(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_edge_index_roundtrip(self, small_cycle):
        for index, (u, v) in enumerate(small_cycle.edges()):
            assert small_cycle.edge_index(u, v) == index
            assert small_cycle.edge_index(v, u) == index
            assert small_cycle.edge_at(index) == (u, v)

    def test_edge_index_missing_raises(self, small_cycle):
        with pytest.raises(KeyError):
            small_cycle.edge_index(0, 5)

    def test_has_edge(self, small_cycle):
        assert small_cycle.has_edge(0, 1)
        assert small_cycle.has_edge(1, 0)
        assert not small_cycle.has_edge(0, 5)

    def test_is_regular(self, small_cycle, small_star):
        assert small_cycle.is_regular()
        assert not small_star.is_regular()

    def test_edge_arrays_read_only(self, small_cycle):
        with pytest.raises(ValueError):
            small_cycle.edges_u[0] = 99
        with pytest.raises(ValueError):
            small_cycle.degrees[0] = 99

    def test_degree_sum_is_twice_edges(self, small_torus):
        assert int(small_torus.degrees.sum()) == 2 * small_torus.n_edges


class TestDistances:
    def test_bfs_distances_on_path(self):
        g = path(5)
        dist = g.bfs_distances(0)
        assert dist.tolist() == [0, 1, 2, 3, 4]

    def test_distance_symmetry(self, small_cycle):
        assert small_cycle.distance(0, 4) == small_cycle.distance(4, 0)

    def test_cycle_diameter(self):
        assert cycle(10).diameter() == 5
        assert cycle(11).diameter() == 5

    def test_clique_diameter(self):
        assert clique(7).diameter() == 1

    def test_star_diameter(self):
        assert star(9).diameter() == 2

    def test_eccentricities_max_is_diameter(self, small_torus):
        assert max(small_torus.eccentricities()) == small_torus.diameter()

    def test_ball_radius_zero(self, small_cycle):
        assert small_cycle.ball(3, 0) == frozenset({3})

    def test_ball_radius_one_on_cycle(self, small_cycle):
        assert small_cycle.ball(0, 1) == frozenset({9, 0, 1})

    def test_ball_covers_graph_at_diameter(self, small_cycle):
        assert small_cycle.ball(0, small_cycle.diameter()) == frozenset(range(10))

    def test_ball_of_set(self, small_cycle):
        result = small_cycle.ball_of_set([0, 5], 1)
        assert result == frozenset({9, 0, 1, 4, 5, 6})

    def test_shortest_path_endpoints_and_length(self, small_cycle):
        p = small_cycle.shortest_path(0, 4)
        assert p[0] == 0 and p[-1] == 4
        assert len(p) == small_cycle.distance(0, 4) + 1
        for a, b in zip(p, p[1:]):
            assert small_cycle.has_edge(a, b)

    def test_shortest_path_same_node(self, small_cycle):
        assert small_cycle.shortest_path(3, 3) == [3]


class TestSubgraphsAndBoundaries:
    def test_edge_boundary_of_arc(self, small_cycle):
        boundary = small_cycle.edge_boundary({0, 1, 2})
        assert len(boundary) == 2

    def test_edge_boundary_of_full_set_empty(self, small_cycle):
        assert small_cycle.edge_boundary(range(10)) == []

    def test_induced_subgraph_of_clique(self):
        g = clique(6)
        sub, mapping = g.induced_subgraph([1, 3, 5])
        assert sub.n_nodes == 3
        assert sub.n_edges == 3
        assert set(mapping.keys()) == {1, 3, 5}

    def test_induced_subgraph_preserves_adjacency(self, small_cycle):
        sub, mapping = small_cycle.induced_subgraph([0, 1, 2, 3])
        assert sub.n_edges == 3


class TestConversionsAndEquality:
    def test_networkx_roundtrip(self, small_torus):
        nx_graph = small_torus.to_networkx()
        back = Graph.from_networkx(nx_graph, name="roundtrip")
        assert back == small_torus

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_edges(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(0, 1), (0, 2)])
        assert a != b

    def test_equality_against_other_type(self):
        assert Graph(2, [(0, 1)]) != "graph"


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_cycle_structure_properties(n):
    """Property: cycles are connected, 2-regular, with n edges."""
    g = cycle(n)
    assert g.n_edges == n
    assert g.is_regular()
    assert g.max_degree == 2
    assert (g.bfs_distances(0) >= 0).all()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=12))
def test_clique_distances_all_one(n):
    """Property: in a clique every pair of distinct nodes is at distance 1."""
    g = clique(n)
    for v in range(n):
        dist = g.bfs_distances(v)
        assert dist[v] == 0
        assert all(dist[u] == 1 for u in range(n) if u != v)


def test_eccentricities_with_wide_bfs_frontiers():
    """Regression: the matrix-BFS accumulator must not wrap at 256.

    On a double star where 256 middle nodes all neighbour the far hub, a
    uint8 matmul would sum the frontier mod 256 and report the hub as
    unreachable at level 2.
    """
    middle = range(1, 257)
    edges = [(0, i) for i in middle] + [(i, 257) for i in middle]
    g = Graph(258, edges, name="wide-frontier")
    assert int(g.bfs_distances(0)[257]) == 2
    eccs = g.eccentricities()
    assert eccs[0] == 2
    assert g.diameter() == 2
    # Dense variant that takes the matrix-BFS path: K_{129,129} has 256+
    # frontier nodes sharing every level-2 target.
    from repro.graphs.families import complete_bipartite

    kb = complete_bipartite(129, 129)
    assert kb.eccentricities()[0] == 2
    assert kb.diameter() == 2
    # Pin the boolean-semiring matrix path itself (sparse graphs normally
    # route to per-source BFS): 300 frontier nodes sharing both hubs must
    # agree with scalar BFS exactly.
    wide = Graph(
        302,
        [(0, i) for i in range(2, 302)] + [(1, i) for i in range(2, 302)],
        name="double-star-300",
    )
    assert wide._eccentricities_matrix() == tuple(
        int(wide.bfs_distances(v).max()) for v in range(wide.n_nodes)
    )


class TestDenseMatrixGuard:
    def test_matrix_form_refused_above_limit(self, monkeypatch):
        """The all-pairs matrix must refuse, not MemoryError, above the cap.

        Monkeypatching the limit down lets a 6-node clique stand in for
        the million-node graph that motivated the guard; the error must
        be actionable (name the per-source alternative).
        """
        from repro.graphs import graph as graph_module

        g = clique(6)
        monkeypatch.setattr(graph_module, "DENSE_DISTANCE_MATRIX_LIMIT", 4)
        with pytest.raises(GraphError, match=r"bfs_distances"):
            g._eccentricities_matrix()

    def test_eccentricities_route_around_the_guard(self, monkeypatch):
        """Above the limit eccentricities() silently uses per-source BFS."""
        from repro.graphs import graph as graph_module

        reference = clique(6).eccentricities()
        monkeypatch.setattr(graph_module, "DENSE_DISTANCE_MATRIX_LIMIT", 4)
        assert clique(6).eccentricities() == reference

    def test_matrix_and_bfs_agree_below_limit(self):
        g = cycle(9)
        bfs = tuple(int(g.bfs_distances(v).max()) for v in range(g.n_nodes))
        assert g.eccentricities() == bfs


class TestFromEdgeArrays:
    """Validation and output of the vectorised constructor."""

    def test_edges_oriented_min_max_in_input_order(self):
        u = np.array([3, 0, 2, 4])
        v = np.array([1, 4, 1, 3])
        g = Graph.from_edge_arrays(5, u, v)
        assert g.edges_u.dtype == np.int32 and g.edges_v.dtype == np.int32
        assert g.edges_u.tolist() == [1, 0, 1, 3]
        assert g.edges_v.tolist() == [3, 4, 2, 4]
        tupled = Graph(5, list(zip(u.tolist(), v.tolist())))
        assert g.edges_u.tolist() == tupled.edges_u.tolist()
        assert g.edges_v.tolist() == tupled.edges_v.tolist()

    def test_single_node_without_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        g = Graph.from_edge_arrays(1, empty, empty)
        assert g.n_nodes == 1 and g.n_edges == 0

    @pytest.mark.parametrize(
        "u, v",
        [([0, 1, 0], [1, 2, 1]), ([0, 1, 1], [1, 2, 0]), ([0, 0, 1], [1, 1, 2])],
        ids=["same-orientation", "reversed", "sorted"],
    )
    def test_rejects_duplicate_edge(self, u, v):
        with pytest.raises(GraphError, match=r"^duplicate edge in endpoint arrays$"):
            Graph.from_edge_arrays(3, np.array(u), np.array(v))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match=r"^self-loop on node 2 is not allowed$"):
            Graph.from_edge_arrays(3, np.array([0, 2]), np.array([1, 2]))

    @pytest.mark.parametrize(
        "u, v", [([-1, 0], [1, 2]), ([0, 1], [1, 3])], ids=["negative", "at-n"]
    )
    def test_rejects_out_of_range_endpoint(self, u, v):
        with pytest.raises(GraphError, match=r"^edge endpoint out of range for n=3$"):
            Graph.from_edge_arrays(3, np.array(u), np.array(v))

    @pytest.mark.parametrize(
        "u, v",
        [([0, 1], [1]), ([[0, 1]], [[1, 2]])],
        ids=["not-parallel", "two-dimensional"],
    )
    def test_rejects_malformed_arrays(self, u, v):
        with pytest.raises(GraphError, match=r"^edge endpoint arrays must be parallel 1-d arrays$"):
            Graph.from_edge_arrays(3, np.array(u), np.array(v))

    def test_graph_never_aliases_its_inputs(self):
        u = np.array([0, 2, 1])
        v = np.array([1, 1, 3])
        g = Graph.from_edge_arrays(4, u, v)
        assert not np.shares_memory(g.edges_u, u) and not np.shares_memory(g.edges_v, v)
        u[:] = 0
        assert g.edges_u.tolist() == [0, 1, 1] and g.edges_v.tolist() == [1, 2, 3]


class TestFromEdgeArraysNumPy(TestFromEdgeArrays):
    """The vectorised constructor's cases on the NumPy twin of the edge pass."""

    @pytest.fixture(autouse=True)
    def _numpy_twin(self):
        with _build_path("numpy"):
            yield


def _random_edge_arrays(n, density, seed):
    """A random simple graph's edges, shuffled and randomly oriented."""
    rng = np.random.default_rng(seed)
    low, high = np.triu_indices(n, k=1)
    keep = rng.random(low.size) < density
    low, high = low[keep], high[keep]
    order = rng.permutation(low.size)
    low, high = low[order], high[order]
    flip = rng.random(low.size) < 0.5
    return np.where(flip, high, low), np.where(flip, low, high)


def _lexsort_csr(graph):
    """The CSR as a ``np.lexsort`` over both orientations builds it."""
    src = np.concatenate((graph.edges_u, graph.edges_v))
    dst = np.concatenate((graph.edges_v, graph.edges_u))
    order = np.lexsort((dst, src))
    indptr = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=graph.n_nodes), out=indptr[1:])
    return indptr, np.ascontiguousarray(dst[order])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_csr_matches_lexsort_construction(n, density, seed):
    """Property: the key-sort CSR equals the lexsort one, array for array,
    on a graph from either build path."""
    u, v = _random_edge_arrays(n, density, seed)
    for side in _build_paths():
        with _build_path(side):
            g = Graph.from_edge_arrays(n, u, v, check_connected=False)
        indptr, indices = g._csr()
        ref_indptr, ref_indices = _lexsort_csr(g)
        assert indptr.dtype == ref_indptr.dtype and indices.dtype == ref_indices.dtype
        assert indptr.tolist() == ref_indptr.tolist()
        assert indices.tolist() == ref_indices.tolist()


#: Faults injected into random edge arrays: an end out of range (``n``
#: or ``-1``), a self-loop, an edge repeated in the same or the reverse
#: orientation, and a self-loop followed later by an end out of range
#: (the range error must win: it is checked first).
_FAULTS = (
    "none", "end-at-n", "negative-end", "self-loop", "duplicate", "reversed-duplicate",
    "self-loop-then-out-of-range",
)


def _inject(u, v, n, fault, data):
    """``(u, v)`` with ``fault`` inserted at positions drawn from ``data``."""
    u, v = u.tolist(), v.tolist()

    def insert(a, b, after=0):
        at = data.draw(st.integers(min_value=after, max_value=len(u)))
        u.insert(at, a)
        v.insert(at, b)
        return at

    node = data.draw(st.integers(min_value=0, max_value=n - 1))
    if fault == "end-at-n":
        insert(node, n)
    elif fault == "negative-end":
        insert(-1, node)
    elif fault == "self-loop":
        insert(node, node)
    elif fault == "self-loop-then-out-of-range":
        insert(n, node, after=insert(node, node) + 1)
    elif fault in ("duplicate", "reversed-duplicate") and u:
        j = data.draw(st.integers(min_value=0, max_value=len(u) - 1))
        a, b = (u[j], v[j]) if fault == "duplicate" else (v[j], u[j])
        insert(a, b)
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _outcome(build):
    """A build's graph as ``(endpoints, degrees)``, or its error."""
    try:
        g = build()
    except GraphError as error:
        return type(error), str(error)
    return g._endpoints.tolist(), g.degrees.tolist()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fault=st.sampled_from(_FAULTS),
    ordered=st.booleans(),
    check_connected=st.booleans(),
    data=st.data(),
)
def test_build_paths_agree_on_faulty_edge_arrays(
    n, density, seed, fault, ordered, check_connected, data
):
    """Property: the C edge pass and its NumPy twin, copying the arrays
    in or (with the connectivity check) adopting them in place
    unoriented, give the same endpoint buffer and degrees, or the same
    error class and message.

    ``ordered`` sorts the edges by their oriented key first (keeping
    each edge's orientation), so duplicates sit side by side and the
    build's strictly-increasing test must catch the tie.
    """
    u, v = _inject(*_random_edge_arrays(n, density, seed), n, fault, data)
    if ordered:
        order = np.argsort(np.minimum(u, v) * (n + 1) + np.maximum(u, v), kind="stable")
        u, v = u[order], v[order]

    def fill(edges_u, edges_v):
        edges_u[:] = u
        edges_v[:] = v

    outcomes = {}
    for side in _build_paths():
        with _build_path(side):
            outcomes[side, "copy-in"] = _outcome(
                lambda: Graph.from_edge_arrays(n, u, v, check_connected=check_connected)
            )
            if check_connected:
                outcomes[side, "in-place"] = _outcome(
                    lambda: Graph._from_filled_endpoints(n, u.size, fill, "graph")
                )
    first = next(iter(outcomes.values()))
    assert all(outcome == first for outcome in outcomes.values()), outcomes
    if fault == "self-loop-then-out-of-range":
        assert first == (GraphError, f"edge endpoint out of range for n={n}")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    density=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bfs_distances_match_networkx(n, density, seed):
    """Property: BFS distances equal networkx's from every source.

    The graphs run from forests (deep BFS, unreachable nodes at -1) to
    dense connected graphs whose frontier nodes share neighbours, which
    is what the per-level dedupe must collapse.
    """
    import networkx as nx

    u, v = _random_edge_arrays(n, density, seed)
    g = Graph.from_edge_arrays(n, u, v, check_connected=False)
    nx_graph = g.to_networkx()
    for source in range(n):
        expected = nx.single_source_shortest_path_length(nx_graph, source)
        dist = g.bfs_distances(source)
        assert dist.dtype == np.int64
        assert dist.tolist() == [expected.get(node, -1) for node in range(n)]


def test_graph_build_never_calls_np_unique(monkeypatch):
    """Regression guard: building a graph must not call ``np.unique``.

    On NumPy >= 2.3 a flag-less ``np.unique`` of an integer array
    dedupes through a hash table at about 1 µs per distinct element:
    seconds for the 2 M edge keys of the million-node torus, against
    hundredths of a second for ``np.sort``, plus one call per level of
    a BFS.  The build therefore dedupes by sorting and comparing
    neighbours, as do the CSR and each BFS level.  The torus takes the
    ordered path of ``from_edge_arrays``; its edges reversed take the
    sort.  ``np.unique(sorted=False)`` is no way out: it does not exist
    before NumPy 2.3 and the package supports ``numpy>=1.21``.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called while building a graph")

    monkeypatch.setattr(np, "unique", refuse)
    g = torus(40, 40)
    reversed_edges = Graph.from_edge_arrays(g.n_nodes, g.edges_v[::-1], g.edges_u[::-1])
    assert reversed_edges == g
    indptr, indices = g._csr()
    assert indptr[-1] == indices.size == 4 * g.n_nodes
    assert int(g.bfs_distances(0).max()) == 40


@pytest.mark.skipif(native.get_edge_pass_kernel() is None, reason="native kernel unavailable")
def test_build_with_kernel_makes_no_csr():
    """With the kernel the connectivity check is the edge pass's
    union-find: the CSR stays unbuilt until a distance query needs it."""
    g = torus(40, 40)
    assert g._csr_cache is None
    assert g.is_connected() and g._csr_cache is None
    assert int(g.bfs_distances(0).max()) == 40 and g._csr_cache is not None


@pytest.mark.skipif(native.get_edge_pass_kernel() is None, reason="native kernel unavailable")
@pytest.mark.parametrize("bad", [(1, 3), (3, 1), (-1, 2), (2, -1), (3, 3)])
def test_edge_pass_stops_before_indexing_an_out_of_range_end(bad):
    """The C pass returns the index of the first edge with an end
    outside ``[0, n)`` and indexes nothing with it.

    Every buffer is one word longer than the pass may touch, so a pass
    that let the end through shows up in a sentinel instead of
    corrupting the heap.
    """
    n = 3
    u = np.array([0, 1, bad[0], 0], dtype=np.int32)
    v = np.array([1, 2, bad[1], 2], dtype=np.int32)
    m = u.size
    out = np.full(3 * m + 1, -7, dtype=np.int32)
    degrees = np.zeros(n + 1, dtype=np.int32)
    parent = np.full(n + 1, n, dtype=np.int32)
    info = np.full(3, -7, dtype=np.int64)
    passed = native.get_edge_pass_kernel()(
        native.data_address(u), native.data_address(v), m, n, native.data_address(out),
        native.data_address(degrees), native.data_address(parent), native.data_address(info),
    )
    assert passed == 2
    assert degrees.tolist() == [1, 2, 1, 0]
    assert parent[n] == n
    assert out[:-1].reshape(3, m)[:, 2:].tolist() == [[-7, -7]] * 3
    assert out[-1] == -7


def _connectivity_cases():
    """``(n, density, seed)``: one node, isolated nodes, forests, several
    components, and sparse to dense graphs on up to 60 nodes."""
    densities = (0.0, 0.01, 0.03, 0.06, 0.1, 0.2, 0.5, 0.9)
    cases = [(1, 0.0, 0), (2, 0.0, 0), (2, 1.0, 0)]
    cases += [(2 + seed % 59, densities[seed % len(densities)], seed) for seed in range(400)]
    return cases


def test_is_connected_agrees_with_bfs_and_networkx():
    """The kernel's union-find, the NumPy BFS (kernel getter patched to
    ``None``) and ``networkx.is_connected`` agree on every graph, built
    on either build path."""
    import networkx as nx

    cases = []
    expected = []
    kinds = set()
    for n, density, seed in _connectivity_cases():
        u, v = _random_edge_arrays(n, density, seed)
        nx_graph = Graph.from_edge_arrays(n, u, v, check_connected=False).to_networkx()
        cases.append((n, u, v))
        expected.append(nx.is_connected(nx_graph))
        components = nx.number_connected_components(nx_graph)
        kinds.add("connected" if components == 1 else "disconnected")
        if n == 1:
            kinds.add("one node")
        elif min(degree for _, degree in nx_graph.degree()) == 0:
            kinds.add("isolated nodes")
        if u.size and nx.is_forest(nx_graph):
            kinds.add("forest")
        if components >= 3:
            kinds.add("several components")
        if n >= 10 and 4 * u.size >= n * (n - 1):
            kinds.add("dense")
    assert kinds == {
        "connected", "disconnected", "one node", "isolated nodes", "forest",
        "several components", "dense",
    }
    for build_side in _build_paths():
        with _build_path(build_side):
            graphs = [Graph.from_edge_arrays(n, u, v, check_connected=False) for n, u, v in cases]
        for check_side in _build_paths():
            with _build_path(check_side):
                assert [g.is_connected() for g in graphs] == expected


# ----------------------------------------------------------------------
# Eccentricities: the C all-sources BFS and its NumPy forms
# ----------------------------------------------------------------------
def _eccentricity_forms(graph):
    """Every form of ``graph``'s eccentricities, by name: the C pass
    where the kernel is built, the per-source walk, the matrix form
    below its size limit, and networkx (largest finite distance)."""
    import networkx as nx

    n = graph.n_nodes
    forms = {
        "walk": tuple(int(graph.bfs_distances(v).max()) for v in range(n)),
        "matrix": graph._eccentricities_matrix(),
    }
    kernel = native.get_eccentricity_kernel()
    if kernel is not None:
        forms["kernel"] = graph._eccentricities_native(kernel)
    nx_graph = graph.to_networkx()
    forms["networkx"] = tuple(
        max(nx.single_source_shortest_path_length(nx_graph, v).values()) for v in range(n)
    )
    return forms


def _assert_eccentricities_agree(graph):
    forms = _eccentricity_forms(graph)
    assert len(set(forms.values())) == 1, (graph.name, forms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "get_eccentricity_kernel", lambda: None)
        graph._eccentricity_cache = None
        without_kernel = graph.eccentricities()
    graph._eccentricity_cache = None
    assert graph.eccentricities() == without_kernel == forms["walk"]
    assert all(type(e) is int for e in graph.eccentricities())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eccentricities_agree_on_connected_graphs(n, density, seed):
    """Property: on connected graphs, sparse to complete, the C pass, the
    per-source walk, the matrix form and networkx agree, and the public
    method gives the same tuple with and without the kernel."""
    u, v = _random_edge_arrays(n, density, seed)
    # A random spanning path makes every draw connected.
    order = np.random.default_rng(seed).permutation(n)
    u, v = np.concatenate((u, order[:-1])), np.concatenate((v, order[1:]))
    keys = sorted({(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())})
    graph = Graph(n, keys, name=f"connected-{n}")
    _assert_eccentricities_agree(graph)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    density=st.floats(min_value=0.0, max_value=0.15),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eccentricities_of_disconnected_graphs_are_largest_finite_distances(n, density, seed):
    """On ``check_connected=False`` graphs an unreachable node never
    counts and an isolated node has eccentricity 0, in every form."""
    u, v = _random_edge_arrays(n, density, seed)
    graph = Graph.from_edge_arrays(n, u, v, check_connected=False)
    _assert_eccentricities_agree(graph)
    for node in np.flatnonzero(graph.degrees == 0).tolist():
        assert graph.eccentricities()[node] == 0


def test_eccentricities_agree_on_named_families():
    """One node, paths, stars, cycles, cliques, tori and the renitent
    constructions (long paths between star copies) in every form."""
    from repro.experiments.workloads import renitent_star_construction
    from repro.graphs.renitent import cycle_cover, four_copies_construction

    assert Graph(1, []).eccentricities() == (0,)
    graphs = [path(2), path(9), path(40), star(2), star(12), cycle(11), clique(7), torus(5, 7)]
    graphs += [renitent_star_construction(n).graph for n in (48, 64, 96)]
    graphs += [four_copies_construction(star(5), 3).graph, cycle_cover(20).graph]
    for graph in graphs:
        _assert_eccentricities_agree(graph)
    assert path(40).eccentricities()[0] == 39 and star(12).eccentricities()[0] == 1


@pytest.mark.skipif(native.get_eccentricity_kernel() is None, reason="native kernel unavailable")
def test_eccentricities_with_the_kernel_is_one_c_call(monkeypatch):
    """With the kernel, ``eccentricities()`` makes exactly one C call and
    no ``bfs_distances`` call, on sparse and dense graphs alike."""
    kernel = native.get_eccentricity_kernel()
    calls = []
    monkeypatch.setattr(
        native, "get_eccentricity_kernel", lambda: lambda *args: calls.append(kernel(*args))
    )
    monkeypatch.setattr(Graph, "bfs_distances", lambda self, source: pytest.fail("BFS walk"))
    for graph, expected in ((cycle(30), 15), (clique(52), 1), (torus(6, 6), 6)):
        calls.clear()
        assert graph.diameter() == expected
        assert len(calls) == 1
        graph.eccentricities()
        assert len(calls) == 1


@pytest.mark.skipif(native.get_eccentricity_kernel() is None, reason="native kernel unavailable")
def test_eccentricity_pass_stays_inside_its_buffers():
    """The C pass reads ``indptr[0..n]`` and ``indices[0..2m)`` only and
    writes ``n`` words of each scratch array and of the result.

    Every buffer is one word longer than the pass may touch.  The word
    past ``indptr`` would extend the last row, and the word past
    ``indices`` names node ``n``, so a pass that read either would write
    the sentinel slot of ``dist``; the other sentinels catch writes.
    """
    graph = path(6)
    indptr, indices = graph._csr()
    n = graph.n_nodes
    indptr_padded = np.append(indptr, indptr[-1] + 1)
    indices_padded = np.append(indices, np.int32(n))
    dist = np.full(n + 1, -7, dtype=np.int64)
    queue = np.full(n + 1, -7, dtype=np.int32)
    ecc = np.full(n + 1, -7, dtype=np.int64)
    native.get_eccentricity_kernel()(
        native.data_address(indptr_padded), native.data_address(indices_padded), n,
        native.data_address(dist), native.data_address(queue), native.data_address(ecc),
    )
    assert ecc[:n].tolist() == [5, 4, 3, 3, 4, 5]
    assert dist[:n].tolist() == [-1] * n
    assert (dist[n], queue[n], ecc[n]) == (-7, -7, -7)


@pytest.mark.skipif(native.get_eccentricity_kernel() is None, reason="native kernel unavailable")
def test_eccentricity_pass_is_not_slower_than_the_matrix_form():
    """On dense graphs, where the matrix form was chosen, the C pass
    (CSR build included) takes no longer: each BFS stops once every node
    is queued."""
    import timeit

    from repro.graphs import erdos_renyi

    kernel = native.get_eccentricity_kernel()
    for graph in (clique(52), erdos_renyi(160, 0.5, rng=3)):

        def c_pass():
            graph._csr_cache = None
            return graph._eccentricities_native(kernel)

        assert c_pass() == graph._eccentricities_matrix()
        c_best = min(timeit.repeat(c_pass, number=1, repeat=15))
        matrix_best = min(timeit.repeat(graph._eccentricities_matrix, number=1, repeat=15))
        assert c_best <= matrix_best, (graph.name, c_best, matrix_best)
