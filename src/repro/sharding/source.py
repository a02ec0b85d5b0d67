"""Partition-aware pair sampling and boundary exchange.

:class:`ShardedInteractionSource` wraps the package's single seeded
stream (:class:`~repro.runtime.source.InteractionSource`, consumed
*undecoded* through ``next_pair_indices``) and resolves every drawn pair
index to its global endpoints and their owning shards — the same draws,
in the same global order.  Because the wrapped source is THE seeded
stream, a sharded run consumes bit-for-bit the refill sequence an
unsharded run consumes; partitioning decides *where* a pair is applied,
never *which* pair is drawn.

:class:`ExchangeQueue` is the explicit inter-shard message fabric (the
Network element of the PE-grid decomposition): a boundary pair — one
whose initiator and responder live on different shards — is posted to
the ordered FIFO channel ``(initiator shard -> responder shard)``,
handed over, and acknowledged within the same interaction.  The
handshake is synchronous, so delivery order equals global draw order by
construction, and the per-block quiescence check (every channel empty
at a certificate boundary) asserts the global-order contract instead of
assuming it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Tuple

import numpy as np

from ..runtime.source import InteractionSource
from .partition import PartitionedGraph


class ExchangeError(RuntimeError):
    """A boundary-exchange invariant was violated (lost/reordered message)."""


class ExchangeQueue:
    """Deterministic FIFO channels between ordered shard pairs.

    Tracks per-channel posted/delivered counters; :meth:`assert_quiescent`
    is the global quiescence check run at every certificate boundary.
    """

    def __init__(self, shards: int) -> None:
        self.n_shards = int(shards)
        self._channels: Dict[Tuple[int, int], Deque[Tuple[int, int]]] = {}
        self.posted = np.zeros((self.n_shards, self.n_shards), dtype=np.int64)
        self.delivered = np.zeros((self.n_shards, self.n_shards), dtype=np.int64)

    def post(self, src: int, dst: int, payload: Tuple[int, int]) -> None:
        """Enqueue one boundary interaction on the ``src -> dst`` channel."""
        self._channels.setdefault((src, dst), deque()).append(payload)
        self.posted[src, dst] += 1

    def deliver(self, src: int, dst: int) -> Tuple[int, int]:
        """Dequeue the oldest message of the channel (FIFO)."""
        channel = self._channels.get((src, dst))
        if not channel:
            raise ExchangeError(f"delivery from empty channel {src} -> {dst}")
        self.delivered[src, dst] += 1
        return channel.popleft()

    @property
    def in_flight(self) -> int:
        """Messages posted but not yet delivered, across all channels."""
        return int(self.posted.sum() - self.delivered.sum())

    def assert_quiescent(self) -> None:
        """The global quiescence check: every channel drained."""
        if self.in_flight:
            lagging = [
                (int(src), int(dst), int(self.posted[src, dst] - self.delivered[src, dst]))
                for src in range(self.n_shards)
                for dst in range(self.n_shards)
                if self.posted[src, dst] != self.delivered[src, dst]
            ]
            raise ExchangeError(f"boundary exchange not quiescent: {lagging}")


@dataclass
class SpanBlock:
    """One routed chunk in original draw order, annotated for spans.

    The draws strictly between two boundary events are contiguous in
    draw order and all shard-local, so the worker pool splits each such
    *span* per owning worker and runs it as native-kernel calls against
    the shared global code array — no per-shard regrouping, no argsort.
    Endpoints are **global** node ids (``gu``/``gv``); the per-draw
    shard annotations locate the boundary events, assign owners, and
    feed the opt-in shard statistics.
    """

    size: int
    #: Global initiator/responder node ids, int64, draw order.
    gu: np.ndarray
    gv: np.ndarray
    #: Owning shard of each draw's initiator/responder (int16).
    init_shard: np.ndarray
    resp_shard: np.ndarray
    #: Chunk positions of the boundary events, ascending.
    boundary_pos: np.ndarray

    @property
    def n_boundary(self) -> int:
        return int(self.boundary_pos.size)


class ShardedInteractionSource:
    """The global seeded pair stream, routed to owning shards.

    Parameters
    ----------
    source:
        The seeded stream to consume (any object with
        ``next_pair_indices(size)`` — an ``InteractionSource`` or a
        ``RandomScheduler``).
    partition:
        The :class:`PartitionedGraph` whose node assignment annotates
        the draws.
    """

    def __init__(self, source: InteractionSource, partition: PartitionedGraph) -> None:
        self.source = source
        self.partition = partition

    @property
    def steps_emitted(self) -> int:
        return self.source.steps_emitted

    def next_spans(self, size: int) -> SpanBlock:
        """The next ``size`` draws with global endpoints, in draw order.

        Resolves the draws to **global** node ids from the graph's edge
        arrays and to owning shards from the node assignment; no
        regrouping happens.  The contiguous stretch between two boundary
        positions is shard-local by construction.
        """
        indices = self.source.next_pair_indices(size)
        p = self.partition
        graph = p.graph
        m = graph.n_edges
        # Index r < m is edge r in stored orientation (u -> v); r >= m
        # is its reverse (the encoding of repro.runtime.pairs).
        rev = indices >= m
        edge = np.where(rev, indices - m, indices)
        u = np.take(graph.edges_u, edge)
        v = np.take(graph.edges_v, edge)
        gu = np.where(rev, v, u)
        gv = np.where(rev, u, v)
        init_shard = np.take(p.assignment, gu)
        resp_shard = np.take(p.assignment, gv)
        return SpanBlock(
            size=int(size),
            gu=gu,
            gv=gv,
            init_shard=init_shard,
            resp_shard=resp_shard,
            boundary_pos=np.flatnonzero(init_shard != resp_shard).astype(np.int64),
        )

