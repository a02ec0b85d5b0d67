"""Core graph data structure for the population-protocol simulator.

The paper's model (Section 2.1) works with finite, connected, undirected
graphs.  The scheduler repeatedly samples an *ordered* pair of adjacent
nodes uniformly at random among the ``2m`` ordered pairs, so the central
operation the simulator needs is "sample a uniformly random edge, then a
uniformly random orientation of it".  :class:`Graph` therefore stores the
edge list as flat ``numpy`` arrays (for vectorised batch sampling) next to
plain-Python adjacency lists (for the propagation and random-walk modules).
The endpoint arrays are two thirds of one buffer ``[u | v | u]`` of ``3m``
words, whose first and last ``2m`` words are the directed pair tables of
:func:`repro.runtime.pairs.directed_tables`.

Every array that holds node ids is :data:`NODE_DTYPE` (``int32``): the
endpoint buffer, the degrees, the CSR neighbour indices and the
union-find scratch, so a graph has at most :data:`MAX_NODES` =
``2**31 - 1`` nodes.  Inputs are range-checked at their own width before
they are narrowed into the buffer, so an endpoint such as ``2**32 + 5`` is
refused and never becomes node 5.  Pair indices, step counts and BFS
distances stay ``int64``; state codes are ``uint16`` on the v6 stack's
table rule (:data:`repro.engine.native.TABLE_CODE_DTYPE`) and ``int64``
for the identifier rule.

The class is deliberately immutable: every protocol run, broadcast
simulation and random-walk experiment shares a single graph object, and the
experiment harness caches derived quantities (degrees, diameter, expansion
bounds) on it.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised when a graph is malformed for the population model."""


#: The dtype of every array that holds node ids (or per-node degrees).
NODE_DTYPE = np.int32

#: The largest node count: every node id fits in :data:`NODE_DTYPE`.
MAX_NODES = int(np.iinfo(NODE_DTYPE).max)


#: Largest node count for which the dense all-pairs distance matrix may
#: be materialised.  Above this, ``(n, n)`` bool + int16 scratch is
#: multiple gigabytes (a ~1 TB request at n = 10^6) and dies in the
#: allocator with an opaque ``MemoryError``; eccentricities route to
#: per-source BFS instead.
DENSE_DISTANCE_MATRIX_LIMIT = 8192


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, without repeats: one sort and an adjacent compare
    (``np.unique`` hashes integers on NumPy >= 2.3)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _node_count(n_nodes) -> int:
    """``n_nodes`` as an ``int`` in ``[1, MAX_NODES]``.

    It goes through ``operator.index``, so ``3.5`` raises instead of
    passing a range check against ``3.5`` and sizing buffers for 3.
    """
    try:
        n = operator.index(n_nodes)
    except TypeError:
        raise GraphError(f"the node count must be an integer, not {n_nodes!r}") from None
    if n <= 0:
        raise GraphError("a graph must have at least one node")
    if n > MAX_NODES:
        raise GraphError(
            f"a graph has at most 2**31 - 1 = {MAX_NODES} nodes (node ids are int32), not {n}"
        )
    return n


def _edge_pass_native(kernel, n, endpoints, connectivity):
    """The C edge pass (``repro_edge_pass``) for :meth:`Graph._adopt`.

    Returns ``(in_range, self_loop, increasing, degrees, components)``:
    whether every end lies in ``[0, n)``, the node of the first
    self-loop or ``-1``, whether the oriented edges strictly increase,
    the degrees, and the component count (``None`` unless
    ``connectivity`` asked for the union-find).
    """
    from ..engine.native import data_address

    m = endpoints.size // 3
    degrees = np.zeros(n, dtype=NODE_DTYPE)
    parent = np.empty(n, dtype=NODE_DTYPE) if connectivity else None
    info = np.empty(3, dtype=np.int64)
    passed = kernel(
        data_address(endpoints[:m]),
        data_address(endpoints[m:]),
        m,
        n,
        data_address(endpoints),
        data_address(degrees),
        None if parent is None else data_address(parent),
        data_address(info),
    )
    self_loop, increasing, components = info.tolist()
    return passed == m, self_loop, bool(increasing), degrees, components if connectivity else None


def _edge_pass_numpy(n, endpoints):
    """The NumPy twin of :func:`_edge_pass_native`, in whole-array passes.

    It has no union-find: its ``components`` is ``None``, and the
    connectivity check takes a BFS.  The edges are oriented in place,
    the minimum going to the tail first: both ufuncs read every input
    before it is overwritten, and the tail is then already the copy of
    ``u``.
    """
    m = endpoints.size // 3
    low, high, tail = endpoints[:m], endpoints[m : 2 * m], endpoints[2 * m :]
    if m == 0:
        return True, -1, True, np.zeros(n, dtype=NODE_DTYPE), None
    np.minimum(low, high, out=tail)
    np.maximum(low, high, out=high)
    low[...] = tail
    if int(low.min()) < 0 or int(high.max()) >= n:
        return False, -1, False, None, None
    loops = np.flatnonzero(low == high)
    self_loop = int(low[loops[0]]) if loops.size else -1
    keys = low * np.int64(n) + high
    increasing = bool((keys[1:] > keys[:-1]).all())
    degrees = np.bincount(endpoints[: 2 * m], minlength=n).astype(NODE_DTYPE)
    return True, self_loop, increasing, degrees, None


class Graph:
    """An immutable, connected, simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.  Nodes are the integers ``0, 1, ..., n_nodes - 1``.
    edges:
        Iterable of 2-tuples ``(u, v)`` with ``u != v``.  Each undirected
        edge must appear exactly once (either orientation).
    name:
        Optional human-readable name, used by the experiment harness when
        rendering result tables.
    check_connected:
        If true (the default), raise :class:`GraphError` when the graph is
        not connected.  The population-protocol model is only defined on
        connected graphs (Section 2.1).
    """

    __slots__ = (
        "_n",
        "_endpoints",
        "_edges_u",
        "_edges_v",
        "_adjacency_cache",
        "_degrees",
        "_name",
        "_edge_index_cache",
        "_csr_cache",
        "_diameter_cache",
        "_eccentricity_cache",
        "_forced_sources_cache",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Edge],
        name: str = "graph",
        check_connected: bool = True,
    ) -> None:
        n = _node_count(n_nodes)
        edge_list = self._normalise_edges(n, edges)
        m = len(edge_list)
        endpoints = np.empty(3 * m, dtype=NODE_DTYPE)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            endpoints[:m] = arr[:, 0]
            endpoints[m : 2 * m] = arr[:, 1]
        self._adopt(n, endpoints, str(name), check_connected)

    @classmethod
    def from_edge_arrays(
        cls,
        n_nodes: int,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        name: str = "graph",
        check_connected: bool = True,
    ) -> "Graph":
        """Build a graph from flat endpoint arrays without a Python edge loop.

        The vectorised twin of the constructor for large sparse families
        (a million-node torus has four million endpoints; normalising them
        tuple by tuple costs hundreds of megabytes of transient Python
        objects).  Edge *order* is taken as given, so callers own the
        ordering contract the seeded pair streams depend on.  The arrays
        must hold integers; they are only read, and the graph never
        aliases them.

        The ends are range-checked at the arrays' own width and then
        narrowed once, into the graph's ``3m``-word endpoint buffer.  The
        rest of the validation — self-loop and duplicate checks, ``(min,
        max)`` orientation, degrees and connectivity — is one pass over
        the edges in C, in that buffer (see :meth:`_adopt`).  Duplicates
        need a second pass only when the oriented edges are not strictly
        increasing (the order ``torus`` emits holds no duplicate): their
        keys ``low * n + high`` are then sorted and neighbours compared,
        not deduplicated with ``np.unique``, which on NumPy >= 2.3 builds
        a hash table at about 1 µs per distinct key.  Without the kernel,
        a NumPy twin makes the same checks in whole-array passes, and
        connectivity takes a BFS.
        """
        n = _node_count(n_nodes)
        edges_u, edges_v = np.asarray(edges_u), np.asarray(edges_v)
        for array in (edges_u, edges_v):
            if array.size and array.dtype.kind not in "iu":
                raise GraphError(f"edge endpoint arrays must hold integers, not {array.dtype}")
        if edges_u.shape != edges_v.shape or edges_u.ndim != 1:
            raise GraphError("edge endpoint arrays must be parallel 1-d arrays")
        # At full width: narrowed first, an end of 2**32 + 5 would be node 5.
        for array in (edges_u, edges_v):
            if array.size and not 0 <= int(array.min()) <= int(array.max()) < n:
                raise GraphError(f"edge endpoint out of range for n={n}")

        def fill(low: np.ndarray, high: np.ndarray) -> None:
            low[:] = edges_u
            high[:] = edges_v

        return cls._from_filled_endpoints(n, edges_u.size, fill, name, check_connected)

    @classmethod
    def _from_filled_endpoints(
        cls,
        n_nodes: int,
        n_edges: int,
        fill: Callable[[np.ndarray, np.ndarray], None],
        name: str,
        check_connected: bool = True,
    ) -> "Graph":
        """Build a graph whose builder writes its edges in place.

        ``fill(edges_u, edges_v)`` writes the ``n_edges`` edges, in order,
        into two ``NODE_DTYPE`` arrays that are the first two thirds of
        the graph's endpoint buffer; :meth:`_adopt` then validates and
        orients them there, with no copy.  Every check of
        :meth:`from_edge_arrays` runs.
        """
        n = _node_count(n_nodes)
        endpoints = np.empty(3 * n_edges, dtype=NODE_DTYPE)
        fill(endpoints[:n_edges], endpoints[n_edges : 2 * n_edges])
        graph = cls.__new__(cls)
        graph._adopt(n, endpoints, str(name), check_connected)
        return graph

    def _adopt(self, n_nodes: int, endpoints: np.ndarray, name: str, check_connected: bool) -> None:
        """Validate the edges in ``endpoints`` and adopt the buffer.

        ``endpoints`` is a fresh ``3m``-word ``NODE_DTYPE`` buffer whose
        first two thirds hold edge ``i`` as ``(endpoints[i], endpoints[m +
        i])``; it ends up holding ``[u | v | u]``, edge ``i`` oriented
        ``(min, max)`` in every third.  Every build path meets here, and
        this is where the C pass or its NumPy twin is chosen.  Errors come
        in this order: an end out of range; a self-loop (naming the node
        of the first one); a duplicate edge; no edges, or not connected.
        """
        from ..engine.native import get_edge_pass_kernel

        m = endpoints.size // 3
        connectivity = n_nodes > 1 and check_connected and m > 0
        kernel = get_edge_pass_kernel()
        if kernel is None:
            checks = _edge_pass_numpy(n_nodes, endpoints)
        else:
            checks = _edge_pass_native(kernel, n_nodes, endpoints, connectivity)
        in_range, self_loop, increasing, degrees, components = checks
        if not in_range:
            raise GraphError(f"edge endpoint out of range for n={n_nodes}")
        if self_loop >= 0:
            raise GraphError(f"self-loop on node {self_loop} is not allowed")
        if not increasing:
            keys = endpoints[:m] * np.int64(n_nodes) + endpoints[m : 2 * m]
            keys.sort()
            if bool((keys[1:] == keys[:-1]).any()):
                raise GraphError("duplicate edge in endpoint arrays")
        self._n = n_nodes
        self._name = name
        self._endpoints = endpoints
        self._edges_u = endpoints[:m]
        self._edges_v = endpoints[m : 2 * m]
        self._degrees = degrees
        # Adjacency tuples, the edge-index dict and the CSR used by BFS
        # are derived lazily: at million-node scale the Python-object
        # forms cost gigabytes, and the vectorised paths never need them.
        # With the kernel, the connectivity check needs no CSR either.
        self._adjacency_cache: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._edge_index_cache: Optional[Dict[Edge, int]] = None
        self._csr_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._diameter_cache: int | None = None
        self._eccentricity_cache: Tuple[int, ...] | None = None
        # The graph-only part of a B(G) source sample
        # (repro.analytics.estimators.select_sources), kept for the
        # graph's lifetime.
        self._forced_sources_cache: Optional[tuple] = None
        if self._n > 1 and check_connected:
            if m == 0:
                raise GraphError("a multi-node connected graph must have at least one edge")
            if not (self.is_connected() if components is None else components == 1):
                raise GraphError(f"graph {name!r} is not connected")

    # ------------------------------------------------------------------
    # Lazily derived forms
    # ------------------------------------------------------------------
    def _csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows of the symmetric adjacency (sorted).

        One sort of the scalar keys ``src * n + dst`` over both
        orientations orders the rows by source, then by neighbour; a
        simple graph has no equal keys, so no tie-breaking is needed.
        """
        if self._csr_cache is None:
            n = np.int64(self._n)
            u, v = self._edges_u, self._edges_v
            keys = np.concatenate((u * n + v, v * n + u))
            keys.sort()
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            self._csr_cache = (indptr, (keys % n).astype(NODE_DTYPE))
        return self._csr_cache

    @property
    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        if self._adjacency_cache is None:
            indptr, indices = self._csr()
            flat = indices.tolist()
            bounds = indptr.tolist()
            self._adjacency_cache = tuple(
                tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self._n)
            )
        return self._adjacency_cache

    @property
    def _edge_index(self) -> Dict[Edge, int]:
        if self._edge_index_cache is None:
            self._edge_index_cache = {
                (u, v): i
                for i, (u, v) in enumerate(
                    zip(self._edges_u.tolist(), self._edges_v.tolist())
                )
            }
        return self._edge_index_cache

    @staticmethod
    def _normalise_edges(n_nodes: int, edges: Iterable[Edge]) -> List[Edge]:
        seen = set()
        result: List[Edge] = []
        for raw in edges:
            try:
                u, v = operator.index(raw[0]), operator.index(raw[1])
            except TypeError:
                raise GraphError(f"edge {tuple(raw)!r} has a non-integer endpoint") from None
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n_nodes}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            result.append(key)
        return result

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return int(self._edges_u.shape[0])

    @property
    def name(self) -> str:
        """Human-readable name of the graph."""
        return self._name

    @property
    def nodes(self) -> range:
        """The node set as a :class:`range`."""
        return range(self._n)

    @property
    def edges_u(self) -> np.ndarray:
        """First endpoints of every edge (read-only ``int32`` view)."""
        view = self._edges_u.view()
        view.flags.writeable = False
        return view

    @property
    def edges_v(self) -> np.ndarray:
        """Second endpoints of every edge (read-only ``int32`` view)."""
        view = self._edges_v.view()
        view.flags.writeable = False
        return view

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node (read-only ``int32`` view)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ``."""
        return int(self._degrees.max()) if self._n else 0

    @property
    def min_degree(self) -> int:
        """Minimum degree ``δ``."""
        return int(self._degrees.min()) if self._n else 0

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self._degrees[node])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbours of ``node``."""
        return self._adjacency[node]

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        for u, v in zip(self._edges_u.tolist(), self._edges_v.tolist()):
            yield (u, v)

    def edge_at(self, index: int) -> Edge:
        """Return the edge with the given index (scheduler convention)."""
        return (int(self._edges_u[index]), int(self._edges_v[index]))

    def edge_index(self, u: int, v: int) -> int:
        """Index of the undirected edge ``{u, v}``.

        Raises :class:`KeyError` if the edge is not present.
        """
        key = (u, v) if u < v else (v, u)
        return self._edge_index[key]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_index

    def is_regular(self) -> bool:
        """Whether all nodes have the same degree."""
        return bool(self._n == 0 or (self._degrees == self._degrees[0]).all())

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every node (``-1`` if unreachable).

        Level-synchronous and fully vectorised over the CSR adjacency:
        each node enters the frontier exactly once, so a whole BFS costs
        ``O(m)`` array work plus a few array calls per level.  The first
        call builds the CSR.
        """
        indptr, indices = self._csr()
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=NODE_DTYPE)
        d = 0
        while frontier.size:
            d += 1
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = counts.cumsum()
            total = int(ends[-1])
            if total == 0:
                break
            # Candidate k of frontier node i sits at its row start plus
            # its offset within the row, k - (ends[i] - counts[i]).
            offsets = (starts - ends + counts).repeat(counts)
            candidates = indices[offsets + np.arange(total, dtype=np.int64)]
            fresh = candidates[dist[candidates] < 0]
            if fresh.size == 0:
                break
            dist[fresh] = d
            # A node reached from several frontier nodes appears once.
            frontier = _sorted_distinct(fresh)
        return dist

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance ``dist(u, v)``."""
        return int(self.bfs_distances(u)[v])

    def eccentricities(self) -> Tuple[int, ...]:
        """Eccentricity of every node (cached): its largest finite
        distance, so an isolated node has 0.

        With the native kernel, every graph of two or more nodes takes one
        call of ``repro_eccentricities``: a queue BFS per source over
        :meth:`_csr`, with two ``n``-word scratch arrays.  Without it,
        dense low-diameter graphs use all-sources BFS in level-synchronous
        matrix form (one matrix product per level); the cost of that form
        scales with the diameter, so sparse high-diameter graphs (cycles,
        paths, renitent constructions) keep the per-source BFS walk.
        """
        if self._eccentricity_cache is None:
            from ..engine.native import get_eccentricity_kernel

            n = self._n
            kernel = get_eccentricity_kernel()
            if n <= 1:
                self._eccentricity_cache = tuple(0 for _ in range(n))
            elif kernel is not None:
                self._eccentricity_cache = self._eccentricities_native(kernel)
            elif n <= DENSE_DISTANCE_MATRIX_LIMIT and self.n_edges * 8 >= n * (n - 1):
                # Dense graphs have small diameters: a handful of matrix
                # levels beats n BFS walks.  Above the size limit the
                # (n, n) scratch is unaffordable and BFS is used even on
                # dense graphs.
                self._eccentricity_cache = self._eccentricities_matrix()
            else:
                eccs = []
                for v in range(n):
                    dist = self.bfs_distances(v)
                    eccs.append(int(dist.max()))
                self._eccentricity_cache = tuple(eccs)
        return self._eccentricity_cache

    def _eccentricities_native(self, kernel) -> Tuple[int, ...]:
        """Every eccentricity from one ``repro_eccentricities`` call."""
        from ..engine.native import data_address

        indptr, indices = self._csr()
        dist = np.empty(self._n, dtype=np.int64)
        queue = np.empty(self._n, dtype=NODE_DTYPE)
        ecc = np.empty(self._n, dtype=np.int64)
        kernel(
            data_address(indptr),
            data_address(indices),
            self._n,
            data_address(dist),
            data_address(queue),
            data_address(ecc),
        )
        return tuple(ecc.tolist())

    def _eccentricities_matrix(self) -> Tuple[int, ...]:
        n = self._n
        if n > DENSE_DISTANCE_MATRIX_LIMIT:
            raise GraphError(
                f"all-pairs distance matrix on {n} nodes needs two (n, n) "
                f"arrays (~{n * n * 3 / 1e9:.0f} GB) and is refused above "
                f"n={DENSE_DISTANCE_MATRIX_LIMIT}; use per-source "
                "bfs_distances() for the few sources you need"
            )
        # Boolean semiring: numpy's bool matmul is a logical OR of ANDs,
        # so the frontier product cannot wrap no matter how many (256 or
        # more) frontier nodes share an unvisited neighbour — the case
        # that forced the previous int64 accumulators.  bool adjacency +
        # bool frontier + int16 levels cut the working set ~8x.
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[self._edges_u, self._edges_v] = True
        adjacency[self._edges_v, self._edges_u] = True
        level_dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int64
        distances = np.full((n, n), -1, dtype=level_dtype)
        np.fill_diagonal(distances, 0)
        frontier = np.eye(n, dtype=bool)
        level = 0
        while True:
            level += 1
            frontier = (frontier @ adjacency) & (distances < 0)
            if not frontier.any():
                break
            distances[frontier] = level
        # Disconnected pairs keep -1; report the max finite distance,
        # matching the per-source BFS behaviour.
        return tuple(int(e) for e in distances.max(axis=1))

    def diameter(self) -> int:
        """Graph diameter ``D(G)`` (cached; exact via all-sources BFS)."""
        if self._diameter_cache is None:
            self._diameter_cache = max(self.eccentricities()) if self._n > 1 else 0
        return self._diameter_cache

    def ball(self, node: int, radius: int) -> frozenset:
        """Radius-``radius`` neighbourhood ``B_r(node)`` (Section 2.1)."""
        dist = self.bfs_distances(node)
        return frozenset(int(v) for v in np.flatnonzero((dist >= 0) & (dist <= radius)))

    def ball_of_set(self, nodes: Iterable[int], radius: int) -> frozenset:
        """Radius-``radius`` neighbourhood of a node set ``B_r(U)``."""
        result: set = set()
        for node in nodes:
            result |= self.ball(node, radius)
        return frozenset(result)

    def shortest_path(self, u: int, v: int) -> List[int]:
        """One shortest path from ``u`` to ``v`` as a list of nodes."""
        if u == v:
            return [u]
        dist = self.bfs_distances(u)
        if dist[v] < 0:
            raise GraphError(f"no path between {u} and {v}")
        path = [v]
        current = v
        while current != u:
            for w in self._adjacency[current]:
                if dist[w] == dist[current] - 1:
                    path.append(w)
                    current = w
                    break
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Subgraphs and boundaries
    # ------------------------------------------------------------------
    def edge_boundary(self, node_set: Iterable[int]) -> List[Edge]:
        """Edge boundary ``∂S`` of the node set (Section 2.1)."""
        inside = set(int(v) for v in node_set)
        boundary = []
        for u, v in self.edges():
            if (u in inside) != (v in inside):
                boundary.append((u, v))
        return boundary

    def induced_subgraph(self, node_set: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph ``G[S]`` with relabelled nodes.

        Returns the subgraph (nodes relabelled to ``0..|S|-1``) and the
        mapping from original node ids to new ids.  Connectivity is not
        enforced on the result.
        """
        ordered = sorted(set(int(v) for v in node_set))
        mapping = {orig: new for new, orig in enumerate(ordered)}
        sub_edges = [
            (mapping[u], mapping[v])
            for u, v in self.edges()
            if u in mapping and v in mapping
        ]
        sub = Graph(
            len(ordered),
            sub_edges,
            name=f"{self._name}[induced]",
            check_connected=False,
        )
        return sub, mapping

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (single-node graphs are).

        Constructor validation uses this, but it is also meaningful on
        graphs built with ``check_connected=False`` — e.g. the sampled
        epoch graphs of an edge-churn topology schedule.

        With the native kernel this is the union-find of the C edge pass
        alone (no endpoint writes, no degrees): no CSR and no pass per
        BFS level (a 1000×1000 torus has 1000 levels).  Without it, a BFS
        from node 0.
        """
        if self._n <= 1:
            return True
        from ..engine.native import data_address, get_edge_pass_kernel

        kernel = get_edge_pass_kernel()
        if kernel is None:
            return int((self.bfs_distances(0) >= 0).sum()) == self._n
        parent = np.empty(self._n, dtype=NODE_DTYPE)
        info = np.empty(3, dtype=np.int64)
        kernel(
            data_address(self._edges_u),
            data_address(self._edges_v),
            self.n_edges,
            self._n,
            None,
            None,
            data_address(parent),
            data_address(info),
        )
        return int(info[2]) == 1

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for property computations)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nx_graph, name: str = "graph", check_connected: bool = True) -> "Graph":
        """Build a :class:`Graph` from a networkx graph with integer nodes."""
        nodes = sorted(nx_graph.nodes())
        mapping = {node: i for i, node in enumerate(nodes)}
        edges = [(mapping[u], mapping[v]) for u, v in nx_graph.edges()]
        return cls(len(nodes), edges, name=name, check_connected=check_connected)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and set(self.edges()) == set(other.edges())

    def __hash__(self) -> int:
        return hash((self._n, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(name={self._name!r}, n={self._n}, m={self.n_edges})"
