"""High-level replica-batched Monte-Carlo estimators.

The ``B(G)`` estimator enumerates all ``R = |sources| × repetitions``
epidemics of one estimate — and, in the multi-base form the experiment
harness uses for the fast protocol, of *several* estimates at once — into
a single replica stack for :func:`repro.analytics.epidemics.run_epidemic_batch`.

Trajectory seeds are derived as ``derive_seed(base, "bcast", source,
repetition)``: a pure function of the estimate's base seed and the
trajectory's identity, independent of the source sample, of the
replica-batch width and of which other estimates share the stack.  A
batched multi-trial run therefore reproduces each trial's standalone
estimate bit for bit — the invariant that lets the orchestrator shard
fast-protocol trials arbitrarily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.seeds import derive_seed, prefixed_seed_grid, seed_prefix
from ..graphs.graph import Graph
from .epidemics import run_epidemic_batch
from .streams import node_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

#: Domain tags for trajectory-seed derivation (see repro.core.seeds).
BROADCAST_TAG = "bcast"
SOURCES_TAG = "bcast-sources"
FULL_INFORMATION_TAG = "fullinfo"
DISTANCE_K_TAG = "distk"
HITTING_TAG = "hit"
MEETING_TAG = "meet"


def _forced_sources(graph: Graph) -> Tuple[FrozenSet[int], np.ndarray]:
    """``(forced nodes, remaining candidates)`` of ``graph``: the
    graph-only part of :func:`select_sources`, computed once and kept on
    the graph for as long as it lives."""
    if graph._forced_sources_cache is None:
        degrees = graph.degrees
        forced = frozenset(
            (
                int(np.argmin(degrees)),
                int(np.argmax(degrees)),
                int(np.argmax(graph.eccentricities())),
            )
        )
        remaining = np.array([v for v in range(graph.n_nodes) if v not in forced], dtype=np.int64)
        remaining.flags.writeable = False
        graph._forced_sources_cache = (forced, remaining)
    return graph._forced_sources_cache


def select_sources(graph: Graph, max_sources: int, base: int) -> List[int]:
    """The estimate's source sample: all nodes, or a degree-stratified draw.

    The maximiser of ``E[T(v)]`` tends to be a low-degree, peripheral
    node, so the sample always includes the minimum/maximum-degree and
    maximum-eccentricity nodes; the remainder is drawn from a dedicated
    child stream so the sample depends only on ``(graph, max_sources,
    base)``.  Only that draw is per call; the rest is computed once per
    graph.
    """
    n = graph.n_nodes
    if n <= max_sources:
        return list(range(n))
    forced, remaining = _forced_sources(graph)
    extra_count = max(max_sources - len(forced), 0)
    if remaining.size and extra_count:
        rng = np.random.default_rng(derive_seed(base, SOURCES_TAG))
        extra = rng.choice(
            remaining, size=min(extra_count, remaining.size), replace=False
        ).tolist()
    else:
        extra = []
    return sorted(forced.union(extra))


def broadcast_trajectory_seed(base: int, source: int, repetition: int) -> int:
    """Seed of one epidemic of a ``B(G)`` estimate (pure in its arguments)."""
    return derive_seed(base, BROADCAST_TAG, source, repetition)


def broadcast_trajectory_seeds(
    base: int, sources: Sequence[int], repetitions: int
) -> List[int]:
    """:func:`broadcast_trajectory_seed` of every ``(source, repetition)``.

    Source-major order, as Python integers (see
    :func:`broadcast_trajectory_seed_array`).
    """
    return broadcast_trajectory_seed_array(base, sources, repetitions).tolist()


def broadcast_trajectory_seed_array(
    base: int, sources: Sequence[int], repetitions: int
) -> np.ndarray:
    """:func:`broadcast_trajectory_seeds` as one ``uint64`` array.

    The ``(base, "bcast")`` prefix is folded once and every
    ``(source, repetition)`` in one vectorised pass; the array seeds the
    kernel's RNG rows as it is.
    """
    return prefixed_seed_grid(seed_prefix(base, BROADCAST_TAG), sources, repetitions)


def batched_broadcast_samples(
    graph: Graph,
    sources: Sequence[int],
    repetitions: int,
    base: int,
    max_steps: int,
    schedule: Optional["TopologySchedule"] = None,
) -> np.ndarray:
    """Broadcast-step samples of every source, one replica stack.

    Returns a ``(len(sources), repetitions)`` int64 matrix; row ``i``
    holds the samples of ``sources[i]``.  Per-source means taken with
    ``mean(axis=1)`` are exact: a row's sum of integer step counts stays
    far below ``2**53``.  Raises :class:`RuntimeError` if any trajectory
    exhausts ``max_steps`` (matching the serial estimators' budget
    contract).  ``schedule`` runs the epidemics on a time-varying
    topology (see :func:`repro.analytics.epidemics.run_epidemic_batch`).
    Every source is checked by :func:`~repro.analytics.streams.node_id`
    before it seeds anything: a float raises ``TypeError``, an id outside
    ``[0, n)`` ``ValueError``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    sources = [node_id(source, graph.n_nodes) for source in sources]
    steps = run_epidemic_batch(
        graph,
        [source for source in sources for _ in range(repetitions)],
        broadcast_trajectory_seed_array(base, sources, repetitions),
        max_steps,
        schedule=schedule,
    )
    if (steps < 0).any():
        raise RuntimeError(
            "broadcast did not complete within the step budget; increase max_steps"
        )
    return steps.reshape(len(sources), repetitions)


#: Plain-data form of one ``B(G)`` estimate: (value, per-source means,
#: sources, repetitions).  The dataclass lives in
#: :mod:`repro.propagation.broadcast` (the public API home).
EstimateData = Tuple[float, Dict[int, float], Tuple[int, ...], int]


def batched_broadcast_estimates(
    graph: Graph,
    bases: Sequence[int],
    repetitions: int,
    max_sources: int,
    max_steps: int,
    schedule: Optional["TopologySchedule"] = None,
) -> List[EstimateData]:
    """``B(G)`` estimates for several base seeds in one replica stack.

    This is the harness's fast-protocol hot path: one measurement's
    ``trials × sources × repetitions`` epidemics all advance in lockstep.
    Entry ``i`` is bit-identical to what
    :func:`~repro.propagation.broadcast.broadcast_time_estimate` returns
    for ``bases[i]``, because that call is this function with the one
    base.  ``schedule`` runs the epidemics on a time-varying topology
    (see :func:`repro.analytics.epidemics.run_epidemic_batch`).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    plans: List[List[int]] = []
    trajectory_sources: List[int] = []
    # Every base's (source, repetition) seeds fold in one grid: each
    # source row continues its own base's (base, "bcast") prefix.
    outer: List[int] = []
    prefixes: List[int] = []
    for base in bases:
        sources = select_sources(graph, max_sources, int(base))
        plans.append(sources)
        trajectory_sources.extend(source for source in sources for _ in range(repetitions))
        outer.extend(sources)
        prefixes.extend([seed_prefix(int(base), BROADCAST_TAG)] * len(sources))
    steps = run_epidemic_batch(
        graph,
        trajectory_sources,
        prefixed_seed_grid(prefixes, outer, repetitions),
        max_steps,
        schedule=schedule,
    )
    if (steps < 0).any():
        raise RuntimeError(
            "broadcast did not complete within the step budget; increase max_steps"
        )
    means = iter(steps.reshape(-1, repetitions).mean(axis=1).tolist())
    estimates: List[EstimateData] = []
    for sources in plans:
        per_source = dict(zip(sources, means))
        estimates.append(
            (max(per_source.values()), per_source, tuple(sources), repetitions)
        )
    return estimates
