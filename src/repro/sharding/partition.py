"""Graph partitioning: which shard owns each node.

A :class:`PartitionedGraph` splits a :class:`~repro.graphs.graph.Graph`
into ``k`` shards: every node is owned by exactly one shard (contiguous
``range`` assignment or seeded ``hash`` assignment).  The shard-worker
pool gives each worker the shards it owns, and the span schedule
(:meth:`~repro.sharding.source.ShardedInteractionSource.next_spans`)
reads the assignment to find the boundary draws.

The node assignment is deterministic in ``(mode, shards, seed, graph)``
and digested into :attr:`PartitionedGraph.fingerprint`, so a drifting
partitioner can never silently re-route pairs — the seeded golden
fixture in ``tests/test_sharding.py`` pins both the assignment and the
fingerprint.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from ..core.seeds import splitmix64_array
from ..graphs.graph import Graph, GraphError

#: Supported node-assignment modes.
PARTITION_MODES = ("range", "hash")

#: Upper bound on the shard count (int16 shard ids in the node
#: assignment; far above any sensible machine anyway).
MAX_SHARDS = 4096


def node_assignment(
    n_nodes: int, shards: int, mode: str = "range", seed: int = 0
) -> np.ndarray:
    """The shard owning each node, as an ``int16`` array of length ``n``.

    ``range`` gives contiguous balanced blocks (shard boundaries at
    ``ceil`` spacing, the classic PE-grid layout); ``hash`` scatters
    nodes by a seeded SplitMix64 of the node id, so adversarially
    ordered topologies still balance.  Both are pure functions of their
    arguments — the partition fingerprint depends on this.
    """
    if mode not in PARTITION_MODES:
        raise GraphError(
            f"unknown partition mode {mode!r}; expected one of {PARTITION_MODES}"
        )
    if not 1 <= shards <= min(n_nodes, MAX_SHARDS):
        raise GraphError(
            f"shards must lie in [1, min(n, {MAX_SHARDS})] = "
            f"[1, {min(n_nodes, MAX_SHARDS)}], got {shards}"
        )
    nodes = np.arange(n_nodes, dtype=np.int64)
    if mode == "range":
        assignment = (nodes * shards) // n_nodes
    else:
        # The seed mixes in as a 1-element array: numpy's *scalar* uint64
        # arithmetic warns on the (intentional) wrapping multiplies,
        # array arithmetic wraps silently.
        seed_mix = splitmix64_array(
            np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        )
        mixed = splitmix64_array(nodes.astype(np.uint64) ^ seed_mix)
        assignment = (mixed % np.uint64(shards)).astype(np.int64)
    return assignment.astype(np.int16)


class PartitionedGraph:
    """A graph's nodes split across shards.

    Parameters
    ----------
    graph:
        The topology to partition (must carry at least one edge).
    shards:
        Number of shards ``k`` (``1 <= k <= min(n, MAX_SHARDS)``).
    mode / seed:
        Node-assignment policy (see :func:`node_assignment`).
    """

    def __init__(
        self, graph: Graph, shards: int, mode: str = "range", seed: int = 0
    ) -> None:
        if graph.n_edges == 0:
            raise GraphError("cannot partition an edgeless graph")
        self.graph = graph
        self.mode = str(mode)
        self.seed = int(seed)
        self.n_shards = int(shards)
        self.assignment = node_assignment(graph.n_nodes, self.n_shards, mode, seed)
        self.assignment.flags.writeable = False
        self.shard_sizes = np.bincount(self.assignment, minlength=self.n_shards)
        self._fingerprint: Optional[str] = None

    def boundary_matrix(self) -> np.ndarray:
        """Directed boundary-pair counts: entry ``(i, j)`` is the number
        of ordered scheduler pairs whose initiator lives on shard ``i``
        and responder on shard ``j != i``."""
        k = self.n_shards
        matrix = np.zeros((k, k), dtype=np.int64)
        au = self.assignment[self.graph.edges_u].astype(np.int64)
        av = self.assignment[self.graph.edges_v].astype(np.int64)
        np.add.at(matrix, (au, av), 1)
        np.add.at(matrix, (av, au), 1)
        np.fill_diagonal(matrix, 0)
        return matrix

    def boundary_pair_count(self) -> int:
        """Number of directed pairs whose endpoints live on different shards."""
        return int(self.boundary_matrix().sum())

    @property
    def fingerprint(self) -> str:
        """SHA-256 digest of the partition layout.

        Covers the assignment policy *and* the realised assignment, so
        any drift in the partitioner (a changed hash constant, a changed
        rounding rule) changes the fingerprint.  Recorded alongside
        benchmark results and pinned by the golden fixture test.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            header = (
                f"repro-partition-v1|mode={self.mode}|shards={self.n_shards}|"
                f"seed={self.seed}|n={self.graph.n_nodes}|m={self.graph.n_edges}|"
            )
            digest.update(header.encode("utf-8"))
            digest.update(np.ascontiguousarray(self.assignment).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"PartitionedGraph(graph={self.graph.name!r}, shards={self.n_shards}, "
            f"mode={self.mode!r}, seed={self.seed})"
        )
