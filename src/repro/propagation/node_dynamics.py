"""Node-sampling ("push–pull") dynamics for comparison (Section 3.1).

Section 3.1 of the paper contrasts the population model — where the
scheduler samples an *edge* uniformly at random — with the classical
asynchronous rumour-spreading models, where a *node* activates (at unit
rate, or uniformly per step) and then contacts a uniformly random
neighbour.  On regular graphs the two give the same interaction
distribution, but on non-regular graphs they differ: in the population
model high-degree nodes interact more often, whereas in node-sampling
dynamics every node is activated equally often.

This module implements the discrete-time node-sampling dynamics so the
difference can be measured directly (it is the reason the paper's
clock/tournament machinery is biased towards high-degree nodes):

* :class:`NodeSamplingScheduler` — a drop-in scheduler that picks a uniform
  node as initiator and a uniform neighbour as responder,
* :func:`node_sampling_broadcast_steps` — single-source epidemic time under
  node sampling,
* :func:`compare_broadcast_dynamics` — measured edge-sampling vs
  node-sampling broadcast times on the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.estimators import SummaryStatistics, summarize_samples
from ..core.scheduler import Interaction, Scheduler
from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike, as_rng

#: Interactions pre-sampled per refill.  Part of the node-sampling
#: stream's definition: changing it changes every seeded run.
_REFILL_SIZE = 65536


class NodeSamplingScheduler(Scheduler):
    """Scheduler for the node-sampling (asynchronous push–pull) dynamics.

    In every step a node is chosen uniformly at random to be the initiator
    and one of its neighbours, uniformly at random, to be the responder.
    On ``Δ``-regular graphs the induced distribution over ordered pairs is
    identical to the population model's; on irregular graphs it is not.
    """

    def __init__(self, graph: Graph, rng: RngLike = None) -> None:
        if graph.n_edges == 0:
            raise ValueError("cannot schedule interactions on an edgeless graph")
        if graph.min_degree == 0:
            raise ValueError("every node must have at least one neighbour")
        self._graph = graph
        self._rng = as_rng(rng)
        self._neighbors = [np.asarray(graph.neighbors(v), dtype=np.int64) for v in graph.nodes]
        self._buffer: List[Interaction] = []
        self._cursor = 0
        self._steps_emitted = 0

    @property
    def graph(self) -> Graph:
        """The interaction graph being scheduled."""
        return self._graph

    @property
    def steps_emitted(self) -> int:
        """Total number of interactions handed out so far."""
        return self._steps_emitted

    def _refill(self, minimum: int) -> None:
        size = max(_REFILL_SIZE, minimum)
        initiators = self._rng.integers(0, self._graph.n_nodes, size=size)
        picks = self._rng.random(size)
        buffer: List[Interaction] = []
        for initiator, pick in zip(initiators.tolist(), picks.tolist()):
            neighbors = self._neighbors[initiator]
            responder = int(neighbors[int(pick * neighbors.shape[0])])
            buffer.append((initiator, responder))
        self._buffer = buffer
        self._cursor = 0

    def next_interaction(self) -> Interaction:
        if self._cursor >= len(self._buffer):
            self._refill(1)
        interaction = self._buffer[self._cursor]
        self._cursor += 1
        self._steps_emitted += 1
        return interaction

    def next_batch(self, size: int) -> List[Interaction]:
        if size < 0:
            raise ValueError("batch size must be non-negative")
        result: List[Interaction] = []
        remaining = size
        while remaining > 0:
            available = len(self._buffer) - self._cursor
            if available == 0:
                self._refill(remaining)
                available = len(self._buffer)
            take = min(available, remaining)
            result.extend(self._buffer[self._cursor : self._cursor + take])
            self._cursor += take
            remaining -= take
        self._steps_emitted += size
        return result


def node_sampling_broadcast_steps(
    graph: Graph,
    source: int,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps until a broadcast from ``source`` informs every node under node sampling.

    Mirrors :func:`repro.propagation.influence.single_source_broadcast_steps`
    but drives the epidemic with :class:`NodeSamplingScheduler`.
    """
    n = graph.n_nodes
    if not (0 <= source < n):
        raise ValueError("source out of range")
    if n == 1:
        return 0
    if max_steps is None:
        import math

        max_steps = int(40 * n * (graph.diameter() + 6 * math.log(max(n, 2)))) + 1000
    scheduler = NodeSamplingScheduler(graph, rng=rng)
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_count = 1
    step = 0
    while step < max_steps:
        batch = min(8192, max_steps - step)
        for u, v in scheduler.next_batch(batch):
            step += 1
            iu = informed[u]
            iv = informed[v]
            if iu != iv:
                informed[v if iu else u] = True
                informed_count += 1
                if informed_count == n:
                    return step
    return None


@dataclass(frozen=True)
class DynamicsComparison:
    """Broadcast times under the two schedulers on the same graph.

    Attributes
    ----------
    edge_sampling:
        Summary of single-source broadcast times in the population model.
    node_sampling:
        Summary under node-sampling dynamics.
    steps_ratio:
        ``edge_sampling.mean / node_sampling.mean`` — close to 1 on regular
        graphs, typically larger than 1 on graphs with strong degree
        imbalance when the source is a low-degree node (its activation rate
        in the population model is ``deg(v)·/m`` per step vs ``1/n`` under
        node sampling).
    """

    edge_sampling: SummaryStatistics
    node_sampling: SummaryStatistics
    steps_ratio: float


def compare_broadcast_dynamics(
    graph: Graph,
    source: int,
    repetitions: int = 10,
    rng: RngLike = None,
) -> DynamicsComparison:
    """Measure edge-sampling vs node-sampling broadcast times from ``source``."""
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    from .influence import single_source_broadcast_steps

    generator = as_rng(rng)
    edge_samples: List[float] = []
    node_samples: List[float] = []
    for _ in range(repetitions):
        edge_steps = single_source_broadcast_steps(graph, source, rng=generator)
        node_steps = node_sampling_broadcast_steps(graph, source, rng=generator)
        if edge_steps is None or node_steps is None:
            raise RuntimeError("broadcast did not finish within its budget")
        edge_samples.append(float(edge_steps))
        node_samples.append(float(node_steps))
    edge_summary = summarize_samples(edge_samples)
    node_summary = summarize_samples(node_samples)
    return DynamicsComparison(
        edge_sampling=edge_summary,
        node_sampling=node_summary,
        steps_ratio=edge_summary.mean / node_summary.mean,
    )


def interaction_rate_imbalance(graph: Graph) -> float:
    """Ratio of max to min per-node interaction probability in the population model.

    A node of degree ``d`` is involved in a step with probability ``d/m``;
    the imbalance ``Δ/δ`` quantifies how far the graph is from the regular
    case where the two dynamics coincide.
    """
    if graph.min_degree == 0:
        raise ValueError("graph has an isolated node")
    return graph.max_degree / graph.min_degree
