"""Influencer-set dynamics ("one-way epidemics", Section 3.2).

Each node starts out holding a unique message; whenever two nodes interact
they exchange every message they have seen.  The set of *influencers*
``I_t(v)`` collects the nodes whose initial state could, in principle, have
affected ``v``'s state after ``t`` steps.  These dynamics drive both the
upper bounds (broadcast-based protocols) and the lower bounds (isolating
covers, Lemma 41) of the paper.

Implementation note: influencer sets are stored as Python integers used as
bitsets, so the per-interaction union is a single ``|`` of two big ints and
simulating the full all-pairs process is quadratic only in memory-touched
words, not in Python-level loop iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..core.scheduler import RandomScheduler
from ..runtime.source import InteractionSource
from .broadcast import default_broadcast_budget as _default_broadcast_budget


@dataclass
class InfluenceSnapshot:
    """State of the influencer dynamics after a number of steps.

    Attributes
    ----------
    step:
        Number of interactions executed.
    influencer_bitsets:
        ``influencer_bitsets[v]`` is a bitmask whose bit ``u`` is set iff
        ``u ∈ I_step(v)``.
    """

    step: int
    influencer_bitsets: List[int]

    def influencers(self, node: int) -> frozenset:
        """The set ``I_t(node)`` as a frozenset of node ids."""
        mask = self.influencer_bitsets[node]
        result = []
        index = 0
        while mask:
            if mask & 1:
                result.append(index)
            mask >>= 1
            index += 1
        return frozenset(result)

    def influencer_count(self, node: int) -> int:
        """``|I_t(node)|``."""
        return int(self.influencer_bitsets[node].bit_count())


class InfluenceProcess:
    """Simulates the influencer-set dynamics on a graph.

    Parameters
    ----------
    graph:
        Interaction graph.
    rng:
        Seed or generator for the scheduler.
    track_nodes:
        If given, only these nodes' influencer sets are updated as
        *receivers*; all nodes still spread information.  (The lower-bound
        experiments only care about ``I_t(V_i)`` for cover sets.)
    """

    def __init__(
        self,
        graph: Graph,
        rng: RngLike = None,
        track_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        self.graph = graph
        self._scheduler = RandomScheduler(graph, rng=rng)
        self._bitsets: List[int] = [1 << v for v in range(graph.n_nodes)]
        self._step = 0
        self._tracked = None if track_nodes is None else frozenset(int(v) for v in track_nodes)

    @property
    def step(self) -> int:
        """Number of interactions executed so far."""
        return self._step

    def snapshot(self) -> InfluenceSnapshot:
        """A copy of the current influencer sets."""
        return InfluenceSnapshot(step=self._step, influencer_bitsets=list(self._bitsets))

    def advance(self, steps: int) -> None:
        """Run the dynamics for ``steps`` further interactions."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        bitsets = self._bitsets
        remaining = steps
        while remaining > 0:
            batch = min(remaining, 8192)
            for u, v in self._scheduler.next_batch(batch):
                merged = bitsets[u] | bitsets[v]
                bitsets[u] = merged
                bitsets[v] = merged
            remaining -= batch
            self._step += batch

    def run_until_full(self, max_steps: int) -> Optional[int]:
        """Run until every node is influenced by every other node.

        Returns the step ``T(G)`` at which this first happens, or ``None``
        if ``max_steps`` is exhausted first.  A count of fully informed
        nodes is maintained incrementally (nodes never lose fullness), so
        each improving merge costs O(1) extra work instead of an O(n)
        rescan of every bitset.
        """
        n = self.graph.n_nodes
        full_mask = (1 << n) - 1
        bitsets = self._bitsets
        full_count = sum(1 for b in bitsets if b == full_mask)
        if full_count == n:
            return self._step
        while self._step < max_steps:
            batch = min(4096, max_steps - self._step)
            interactions = self._scheduler.next_batch(batch)
            for offset, (u, v) in enumerate(interactions, start=1):
                merged = bitsets[u] | bitsets[v]
                if merged == full_mask:
                    full_count += (bitsets[u] != full_mask) + (bitsets[v] != full_mask)
                bitsets[u] = merged
                bitsets[v] = merged
                if full_count == n:
                    self._step += offset
                    return self._step
            self._step += batch
        return None

    def influencer_count(self, node: int) -> int:
        """Current ``|I_t(node)|``."""
        return int(self._bitsets[node].bit_count())

    def set_escaped(self, node_set: Sequence[int], allowed: Sequence[int]) -> bool:
        """Whether any node in ``node_set`` is influenced by a node outside ``allowed``.

        This is the isolation-violation event ``I_t(V_i) \\ B_ℓ(V_i) ≠ ∅``
        used to measure isolation times of covers (Section 6.1).
        """
        allowed_mask = 0
        for v in allowed:
            allowed_mask |= 1 << int(v)
        for v in node_set:
            if self._bitsets[int(v)] & ~allowed_mask:
                return True
        return False


def single_source_broadcast_steps(
    graph: Graph,
    source: int,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps until a broadcast from ``source`` reaches every node (``T(source)``).

    Unlike the all-pairs process, a single-source epidemic only needs one
    boolean per node, so this is the workhorse of the ``B(G)`` estimator.
    Runs as a width-1 stack of the replica-batched engine
    (:mod:`repro.analytics.epidemics`) on the canonical stream of ``rng``;
    returns ``None`` if ``max_steps`` is exhausted.
    """
    n = graph.n_nodes
    if not (0 <= source < n):
        raise ValueError("source out of range")
    if n == 1:
        return 0
    if max_steps is None:
        max_steps = _default_broadcast_budget(graph)
    return _single_epidemic(graph, source, rng, max_steps)


def distance_k_propagation_steps(
    graph: Graph,
    source: int,
    distance: int,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps until the message from ``source`` reaches some node at the given distance.

    This is ``T_k(source)`` from Section 3.2.  Returns ``None`` when no node
    is at that distance, or when the budget is exhausted.  Shares the
    engine — and for a given seed the exact interaction schedule — with
    :func:`single_source_broadcast_steps`, so with the same ``rng`` seed a
    distance-``k`` hit can never come later than the full broadcast.
    """
    n = graph.n_nodes
    distances = graph.bfs_distances(source)
    targets = np.flatnonzero(distances == distance)
    if targets.size == 0:
        return None
    if distance == 0:
        return 0
    if max_steps is None:
        max_steps = _default_broadcast_budget(graph)
    stopmask = np.zeros(n, dtype=np.uint8)
    stopmask[targets] = 1
    return _single_epidemic(graph, source, rng, max_steps, stopmask)


def _single_epidemic(
    graph: Graph,
    source: int,
    rng: RngLike,
    max_steps: int,
    stopmask: Optional[np.ndarray] = None,
) -> Optional[int]:
    """One epidemic from ``source`` on the canonical stream of ``rng``.

    An integer seed (or ``None``) runs as a width-1
    :func:`~repro.analytics.epidemics.run_epidemic_batch`, on an RNG row
    seeded in C where the kernel can seed it.  Any other ``rng`` — a
    shared :class:`numpy.random.Generator`, a bit generator or a
    ``SeedSequence`` — is drawn in NumPy through ``as_rng``, whole blocks
    included, and a shared generator is left where the run leaves it.  A
    seed and ``np.random.default_rng(seed)`` read the same stream either
    way.
    """
    from ..analytics.epidemics import BUDGET_EXHAUSTED, run_epidemic_batch, run_single_epidemic
    from ..analytics.streams import resolve_base_seed

    if rng is None or isinstance(rng, (int, np.integer)):
        stopmasks = None if stopmask is None else stopmask[None, :]
        (steps,) = run_epidemic_batch(
            graph, [source], [resolve_base_seed(rng)], max_steps, stopmasks=stopmasks
        )
        return None if steps == BUDGET_EXHAUSTED else int(steps)
    stream = InteractionSource(graph, rng)
    return run_single_epidemic(graph, source, stream, max_steps, stopmask)
