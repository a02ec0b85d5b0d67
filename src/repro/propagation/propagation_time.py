"""Distance-k propagation times ``T_k(G)`` (Section 3.2, lower bounds).

``T_k(u)`` is the first step at which the message originating at ``u``
reaches a node at distance exactly ``k``; ``T_k(G) = min_u T_k(u)``.  The
renitent-graph lower bound (Theorem 34) rests on showing that covers stay
isolated — i.e. that ``T_ℓ(G)`` is large — so the harness needs Monte-Carlo
estimates of these quantities to compare against Lemma 13/14.

The repeated measurements run replica-batched: all repetitions (or
violation trials) advance in lockstep on the analytics engine, each with
its own child-seeded stream and a per-replica stop mask marking the
distance-``k`` target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.estimators import SummaryStatistics, summarize_samples
from ..analytics.epidemics import run_epidemic_batch
from ..analytics.estimators import DISTANCE_K_TAG
from ..analytics.streams import node_id, resolve_base_seed
from ..core.seeds import derive_seed
from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike, as_rng
from .broadcast import default_broadcast_budget as _default_broadcast_budget


@dataclass(frozen=True)
class PropagationTimeEstimate:
    """Estimate of ``T_k(G)`` obtained by minimising over sampled sources."""

    distance: int
    value: float
    per_source: Dict[int, float]
    repetitions: int


def _distance_targets(graph: Graph, source: int, distance: int) -> np.ndarray:
    return np.flatnonzero(graph.bfs_distances(source) == distance)


def propagation_time_from(
    graph: Graph,
    source: int,
    distance: int,
    repetitions: int = 10,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[SummaryStatistics]:
    """Monte-Carlo estimate of ``E[T_k(source)]``.

    Returns ``None`` when no node lies at the requested distance from the
    source (``T_k(source) = ∞`` in the paper's notation) or when any
    repetition exhausts its step budget.  ``source`` is checked by
    :func:`~repro.analytics.streams.node_id` before it seeds or indexes
    anything (a float raises ``TypeError``, an id outside ``[0, n)``
    ``ValueError``).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    source = node_id(source, graph.n_nodes)
    targets = _distance_targets(graph, source, distance)
    if targets.size == 0:
        return None
    if distance == 0:
        return summarize_samples([0.0] * repetitions)
    base = resolve_base_seed(rng)
    if max_steps is None:
        max_steps = _default_broadcast_budget(graph)
    stopmasks = np.zeros((repetitions, graph.n_nodes), dtype=np.uint8)
    stopmasks[:, targets] = 1
    seeds = [
        derive_seed(base, DISTANCE_K_TAG, source, t) for t in range(repetitions)
    ]
    steps = run_epidemic_batch(
        graph,
        [source] * repetitions,
        seeds,
        max_steps,
        stopmasks=stopmasks,
    )
    if (steps < 0).any():
        return None
    return summarize_samples([float(s) for s in steps])


def propagation_time_estimate(
    graph: Graph,
    distance: int,
    repetitions: int = 8,
    max_sources: int = 16,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> PropagationTimeEstimate:
    """Estimate ``T_k(G) = min_u T_k(u)`` over all (or sampled) sources.

    Only sources that actually have a node at distance ``k`` contribute;
    if none do, a :class:`ValueError` is raised (``T_k(G) = ∞``).
    """
    generator = as_rng(rng)
    eligible = [
        v
        for v in range(graph.n_nodes)
        if bool((graph.bfs_distances(v) == distance).any())
    ]
    if not eligible:
        raise ValueError(f"no pair of nodes at distance {distance} in {graph.name}")
    if len(eligible) > max_sources:
        chosen = generator.choice(np.array(eligible), size=max_sources, replace=False)
        sources = sorted(int(v) for v in chosen)
    else:
        sources = eligible
    per_source: Dict[int, float] = {}
    for source in sources:
        stats = propagation_time_from(
            graph,
            source,
            distance,
            repetitions=repetitions,
            rng=generator,
            max_steps=max_steps,
        )
        if stats is not None:
            per_source[source] = stats.mean
    if not per_source:
        raise ValueError("no source produced a finite propagation time")
    return PropagationTimeEstimate(
        distance=distance,
        value=min(per_source.values()),
        per_source=per_source,
        repetitions=repetitions,
    )


def empirical_violation_rate(
    graph: Graph,
    distance: int,
    threshold: float,
    trials: int = 50,
    rng: RngLike = None,
    sources: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
) -> float:
    """Fraction of trials where ``T_k(source) < threshold`` (Lemma 14 check).

    Lemma 14 claims this rate is at most ``1/n`` when the threshold is
    ``k·m/(Δ·e^3)`` and ``k >= ln n``; the benchmark compares the measured
    rate against that guarantee.  All trials advance in one replica stack,
    trial ``t`` starting at ``sources[t % len(sources)]``.  Every given
    source is checked as :func:`propagation_time_from` checks its own.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if sources is not None:
        sources = [node_id(source, graph.n_nodes) for source in sources]
    base = resolve_base_seed(rng)
    if sources is None:
        eligible = [
            v
            for v in range(graph.n_nodes)
            if bool((graph.bfs_distances(v) == distance).any())
        ]
        if not eligible:
            raise ValueError(f"no node has a distance-{distance} peer in {graph.name}")
        sources = eligible
    if max_steps is None:
        max_steps = _default_broadcast_budget(graph)
    target_cache: Dict[int, np.ndarray] = {}
    trial_sources: List[int] = []
    trial_seeds: List[int] = []
    stopmask_rows: List[np.ndarray] = []
    zero_hits = 0
    for trial in range(trials):
        source = sources[trial % len(sources)]
        if source not in target_cache:
            target_cache[source] = _distance_targets(graph, source, distance)
        targets = target_cache[source]
        if targets.size == 0:
            # T_k(source) = ∞: can never beat a finite threshold.
            continue
        if distance == 0:
            zero_hits += 1 if 0 < threshold else 0
            continue
        row = np.zeros(graph.n_nodes, dtype=np.uint8)
        row[targets] = 1
        stopmask_rows.append(row)
        trial_sources.append(source)
        trial_seeds.append(derive_seed(base, DISTANCE_K_TAG, "violation", trial))
    violations = zero_hits
    if trial_sources:
        steps = run_epidemic_batch(
            graph,
            trial_sources,
            trial_seeds,
            max_steps,
            stopmasks=np.asarray(stopmask_rows),
        )
        violations += int(((steps >= 0) & (steps < threshold)).sum())
    return violations / trials
