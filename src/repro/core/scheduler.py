"""Stochastic schedulers for the population model.

In every discrete time step the scheduler samples an ordered pair ``(u, v)``
of adjacent nodes uniformly at random among all ``2m`` ordered pairs
(Section 2.2): equivalently, a uniformly random edge plus a uniformly random
orientation.  :class:`RandomScheduler` implements exactly this and
pre-samples interactions in numpy batches, which is what makes pure-Python
simulation of ``Θ(n^2 log n)``-step executions feasible.

The sampling machinery itself — the refill-size contract, the directed
pair encoding, the epoch capping used by the dynamic twin — lives in
:class:`repro.runtime.source.InteractionSource`; this module provides the
population-model shells over it.  The pre-sample refill size is the
runtime's :data:`repro.runtime.source.REFILL_SIZE` — it is part of the
seeded stream definition, so it has exactly one home.

:class:`SequenceScheduler` replays a fixed interaction sequence; the
lower-bound experiments (isolating covers, influencer multigraphs) and the
reachability-based stability checker use it to explore specific schedules.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, List, Tuple

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..runtime.source import InteractionSource

Interaction = Tuple[int, int]


class Scheduler(abc.ABC):
    """Produces the infinite sequence of ordered interaction pairs."""

    @abc.abstractmethod
    def next_interaction(self) -> Interaction:
        """The next ordered (initiator, responder) pair."""

    @abc.abstractmethod
    def next_batch(self, size: int) -> List[Interaction]:
        """The next ``size`` ordered pairs, in order."""

    def interactions(self) -> Iterator[Interaction]:
        """Iterate over interactions forever (or until exhausted)."""
        while True:
            yield self.next_interaction()


class RandomScheduler(InteractionSource, Scheduler):
    """The uniform stochastic scheduler of the population model.

    Parameters
    ----------
    graph:
        The interaction graph.
    rng:
        Seed or :class:`numpy.random.Generator` for reproducibility.
    """

    def __init__(self, graph: Graph, rng: RngLike = None) -> None:
        super().__init__(graph, rng=rng)
        self._graph = graph

    @property
    def graph(self) -> Graph:
        """The interaction graph being scheduled."""
        return self._graph


class SequenceScheduler(Scheduler):
    """Replays a fixed, finite sequence of ordered interactions.

    Used to execute hand-crafted schedules (reachability analysis, the
    surgery-style arguments in Section 7) and to make simulator unit tests
    deterministic.  Raises :class:`StopIteration` when exhausted.
    """

    def __init__(self, graph: Graph, interactions: Iterable[Interaction]) -> None:
        self._graph = graph
        self._interactions: List[Interaction] = []
        for u, v in interactions:
            u, v = int(u), int(v)
            if not graph.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not an edge of {graph.name}")
            self._interactions.append((u, v))
        self._cursor = 0

    @property
    def remaining(self) -> int:
        """Number of interactions not yet replayed."""
        return len(self._interactions) - self._cursor

    def next_interaction(self) -> Interaction:
        if self._cursor >= len(self._interactions):
            raise StopIteration("sequence scheduler exhausted")
        interaction = self._interactions[self._cursor]
        self._cursor += 1
        return interaction

    def next_batch(self, size: int) -> List[Interaction]:
        if size < 0:
            raise ValueError("batch size must be non-negative")
        end = self._cursor + size
        if end > len(self._interactions):
            raise StopIteration("sequence scheduler exhausted")
        chunk = self._interactions[self._cursor : end]
        self._cursor = end
        return list(chunk)


def all_ordered_pairs(graph: Graph) -> List[Interaction]:
    """All ``2m`` ordered pairs the scheduler may sample (Section 2.2)."""
    pairs: List[Interaction] = []
    for u, v in graph.edges():
        pairs.append((u, v))
        pairs.append((v, u))
    return pairs
