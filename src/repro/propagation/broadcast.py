"""Monte-Carlo estimation of broadcast times (Section 3.2).

The key quantity parameterising the paper's upper bounds is the worst-case
expected broadcast time

    ``B(G) = max_v E[T(v)]``,

where ``T(v)`` is the number of scheduler steps until a one-way epidemic
started at ``v`` has reached every node.  This module estimates ``E[T(v)]``
per source, ``B(G)`` (maximising over all or a sample of sources), and the
full-information time ``T(G) = max_{u,v} T(v, u)``.

The fast protocol of Theorem 24 is non-uniform: it is parameterised by an
estimate of ``B(G)·Δ/m``.  :func:`broadcast_time_estimate` is exactly the
estimator the experiment harness feeds it.

All estimators here run on the replica-batched analytics engine
(:mod:`repro.analytics`): the ``repetitions × sources`` epidemics of one
estimate advance in lockstep, each on a private stream derived from the
base seed, so every sample is a pure function of ``(base seed,
trajectory identity)`` — independent of replica-batch width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..analysis.estimators import SummaryStatistics, summarize_samples
from ..analytics.epidemics import run_influence_batch
from ..analytics.estimators import (
    FULL_INFORMATION_TAG,
    batched_broadcast_estimates,
    batched_broadcast_samples,
)
from ..analytics.streams import node_id, resolve_base_seed
from ..core.seeds import derive_seed
from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule


@dataclass(frozen=True)
class BroadcastTimeEstimate:
    """Estimated worst-case expected broadcast time ``B(G)``.

    Attributes
    ----------
    value:
        The estimate of ``B(G)`` (max over sampled sources of the mean
        broadcast time from that source).
    per_source:
        Mapping from source node to its estimated ``E[T(source)]``.
    repetitions:
        Number of Monte-Carlo repetitions per source.
    sources:
        The sources that were sampled.
    """

    value: float
    per_source: Dict[int, float]
    repetitions: int
    sources: Sequence[int]


def expected_broadcast_time_from(
    graph: Graph,
    source: int,
    repetitions: int = 10,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> SummaryStatistics:
    """Monte-Carlo estimate of ``E[T(source)]`` with summary statistics.

    ``schedule`` estimates the broadcast time over a time-varying
    topology; ``graph`` then names the node universe and supplies the
    default step budget.  ``source`` is checked by
    :func:`~repro.analytics.streams.node_id`, also on a one-node graph.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    source = node_id(source, graph.n_nodes)
    if graph.n_nodes == 1:
        return summarize_samples([0.0] * repetitions)
    base = resolve_base_seed(rng)
    if max_steps is None:
        max_steps = _budget(graph)
    samples = batched_broadcast_samples(
        graph,
        [source],
        repetitions,
        base,
        max_steps,
        schedule=schedule,
    )[0]
    return summarize_samples([float(s) for s in samples])


def broadcast_time_estimate(
    graph: Graph,
    repetitions: int = 8,
    max_sources: Optional[int] = None,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> BroadcastTimeEstimate:
    """Estimate ``B(G) = max_v E[T(v)]``.

    For graphs with at most ``max_sources`` nodes every node is used as a
    source; otherwise a degree-stratified sample of sources is used (the
    maximiser of ``E[T(v)]`` tends to be a low-degree, peripheral node, so
    the sample always includes the minimum-degree and maximum-eccentricity
    nodes).  All ``sources × repetitions`` epidemics run in one replica
    stack.

    ``schedule`` estimates the dynamic-topology analogue of ``B(G)``:
    epidemics spread over the epoch graph active at each step, with all
    trajectories crossing epoch switches in lockstep.  Source selection
    and the default budget still use ``graph`` (the node universe).
    """
    if graph.n_nodes == 1:
        return BroadcastTimeEstimate(value=0.0, per_source={0: 0.0}, repetitions=0, sources=(0,))
    value, per_source, sources, repetitions = batched_broadcast_estimates(
        graph,
        [resolve_base_seed(rng)],
        repetitions,
        24 if max_sources is None else max_sources,
        _budget(graph) if max_steps is None else max_steps,
        schedule=schedule,
    )[0]
    return BroadcastTimeEstimate(
        value=value, per_source=per_source, repetitions=repetitions, sources=sources
    )


def full_information_time(
    graph: Graph,
    repetitions: int = 5,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> SummaryStatistics:
    """Monte-Carlo estimate of ``T(G)``: all nodes influenced by all nodes.

    ``T(G) >= T(v)`` for every source, so ``E[T(G)] >= B(G)``; Lemmas 7–9
    bound exactly this quantity.  The ``repetitions`` influence processes
    run replica-batched with packed-bitset influencer sets.  ``schedule``
    runs them over a time-varying topology (lockstep epoch switches, as
    in :func:`broadcast_time_estimate`).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    base = resolve_base_seed(rng)
    if max_steps is None:
        max_steps = _budget(graph)
    seeds = [derive_seed(base, FULL_INFORMATION_TAG, t) for t in range(repetitions)]
    steps = run_influence_batch(graph, seeds, max_steps, schedule=schedule)
    if (steps < 0).any():
        raise RuntimeError(
            "full-information dissemination did not finish within budget"
        )
    return summarize_samples([float(s) for s in steps])


def default_broadcast_budget(graph: Graph) -> int:
    """The estimators' default step budget (Theorem 6 bound with slack)."""
    n = graph.n_nodes
    m = graph.n_edges
    d = graph.diameter()
    return int(20 * m * (6 * math.log(max(n, 2)) + d)) + 1000


_budget = default_broadcast_budget
