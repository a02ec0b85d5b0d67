"""Random walks in the population model (Section 4.1).

A token performing a random walk in the population model moves whenever the
scheduler samples an edge incident to its current position — it then jumps
to the other endpoint.  The jump chain is therefore the classic random walk,
but the holding time at a node ``v`` is geometric with mean ``m / deg(v)``:
high-degree nodes move more often.

The constant-state protocol of Theorem 16 is analysed through the hitting
and meeting times of these walks (Lemmas 17–19); this module provides both
exact linear-algebra computations (assembled with vectorized NumPy
indexing over the edge arrays) and Monte-Carlo estimators.  The
estimators run on the replica-batched analytics engine
(:mod:`repro.analytics.walks`): positions advance one interaction block
at a time with event-skipping — the walk jumps straight between the
block's incident interactions — instead of replaying every step in a
Python loop, and the batched forms run all trajectories in lockstep.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..analytics.estimators import HITTING_TAG, MEETING_TAG
from ..analytics.streams import node_id, resolve_base_seed, step_budget
from ..analytics.walks import (
    default_walk_budget,
    run_hitting_batch,
    run_meeting_batch,
    run_single_hitting,
    run_single_meeting,
)
from ..core.seeds import derive_seed
from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike, as_rng
from ..runtime.source import InteractionSource

_EXACT_NODE_LIMIT = 400
_EXACT_MEETING_NODE_LIMIT = 45


def population_hitting_times_to(graph: Graph, target: int) -> np.ndarray:
    """Exact ``H_P(u, target)`` for all ``u`` (population-model walk).

    System: ``h(u) = m/deg(u) + (1/deg(u)) Σ_{w ~ u} h(w)`` for ``u != target``.
    The coefficient matrix is assembled in one pass over the edge arrays.
    """
    n = graph.n_nodes
    if not (0 <= target < n):
        raise ValueError("target out of range")
    if n > _EXACT_NODE_LIMIT:
        raise ValueError(f"exact computation limited to n <= {_EXACT_NODE_LIMIT}")
    if n == 1:
        return np.zeros(1)
    m = graph.n_edges
    degrees = graph.degrees.astype(np.float64)
    # Row/column index of each non-target node in the reduced system.
    index = np.full(n, -1, dtype=np.int64)
    others = np.flatnonzero(np.arange(n) != target)
    index[others] = np.arange(n - 1)
    a = np.eye(n - 1, dtype=np.float64)
    edges_u = graph.edges_u
    edges_v = graph.edges_v
    keep = (edges_u != target) & (edges_v != target)
    rows = index[edges_u[keep]]
    cols = index[edges_v[keep]]
    # Simple graph: each (row, col) pair appears once, so plain fancy
    # assignment of both orientations is exact.
    a[rows, cols] -= 1.0 / degrees[edges_u[keep]]
    a[cols, rows] -= 1.0 / degrees[edges_v[keep]]
    b = m / degrees[others]
    solution = np.linalg.solve(a, b)
    result = np.zeros(n, dtype=np.float64)
    result[others] = solution
    return result


def population_worst_case_hitting_time(graph: Graph) -> float:
    """``H_P(G) = max_{u,v} H_P(u, v)``."""
    n = graph.n_nodes
    if n == 1:
        return 0.0
    worst = 0.0
    for target in range(n):
        worst = max(worst, float(population_hitting_times_to(graph, target).max()))
    return worst


def exact_meeting_times(graph: Graph) -> np.ndarray:
    """Exact expected meeting times ``M(u, v)`` of two population-model walks.

    Two walks *meet* at step ``t`` when the sampled edge ``e_t`` has the two
    walks at its endpoints (Section 4.1).  The pair process is a Markov
    chain on ordered pairs of distinct positions, absorbed when the edge
    joining the two walks fires; a single sampled edge can never merge two
    distinct walks onto the same node without such a meeting, so diagonal
    states are unreachable and set to zero.  Solving the ``n^2``-dimensional
    linear system directly limits this to small graphs; it is used to
    validate the Monte-Carlo estimator and Lemma 18.

    The system is assembled one edge at a time with vectorized operations
    over all ``n^2`` pair states (each edge defines one transposition of
    the node set applied to both walk coordinates).
    """
    n = graph.n_nodes
    if n > _EXACT_MEETING_NODE_LIMIT:
        raise ValueError(
            f"exact meeting times limited to n <= {_EXACT_MEETING_NODE_LIMIT}"
        )
    m = graph.n_edges
    size = n * n
    a = np.eye(size, dtype=np.float64)
    b = np.zeros(size, dtype=np.float64)
    x = np.repeat(np.arange(n), n)
    y = np.tile(np.arange(n), n)
    live = x != y  # diagonal states are unreachable: identity rows, b = 0
    b[live] = 1.0
    rows = np.arange(size)
    prob = 1.0 / m
    for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist()):
        swap = np.arange(n)
        swap[u] = v
        swap[v] = u
        # Absorbing event: the sampled edge joins the two walks.
        meets = ((x == u) & (y == v)) | ((x == v) & (y == u))
        moves = live & ~meets
        targets = swap[x[moves]] * n + swap[y[moves]]
        # Distinct edges can map a state onto the same successor, so
        # accumulate (np.add.at) rather than assign.
        np.add.at(a, (rows[moves], targets), -prob)
    solution = np.linalg.solve(a, b)
    return solution.reshape(n, n)


def simulate_meeting_time(
    graph: Graph,
    start_a: int,
    start_b: int,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps until two population-model walks meet (single trajectory).

    Coincident starts are fine: the first sampled edge incident to the
    shared node is a meeting.
    """
    generator = as_rng(rng)
    if max_steps is None:
        max_steps = default_walk_budget(graph)
    stream = InteractionSource(graph, generator)
    return run_single_meeting(graph, start_a, start_b, stream, max_steps)


def simulate_population_hitting_time(
    graph: Graph,
    start: int,
    target: int,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """Steps until a population-model walk from ``start`` reaches ``target``.

    Node ids and ``max_steps`` are checked as
    :func:`~repro.analytics.walks.run_hitting_batch` checks them, also
    for a walk that starts on its target, which reports 0.
    """
    max_steps = default_walk_budget(graph) if max_steps is None else step_budget(max_steps)
    if node_id(start, graph.n_nodes) == node_id(target, graph.n_nodes):
        return 0
    stream = InteractionSource(graph, as_rng(rng))
    return run_single_hitting(graph, start, target, stream, max_steps)


def simulate_population_hitting_times(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Replica-batched hitting-time samples, one per ``(start, target)`` pair.

    Trajectory ``t`` reads the stream seeded by ``derive_seed(base,
    "hit", t)`` where ``base`` resolves from ``rng`` — so each sample is
    a pure function of ``(base, t)``, bit-identical for any stack width
    (:func:`~repro.analytics.walks.run_hitting_batch`).  Budget-exhausted
    trajectories report -1.
    """
    base = resolve_base_seed(rng)
    seeds = [derive_seed(base, HITTING_TAG, t) for t in range(len(pairs))]
    return run_hitting_batch(graph, pairs, seeds, max_steps=max_steps)


def simulate_meeting_times(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    rng: RngLike = None,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Replica-batched meeting-time samples, one per ``(start_a, start_b)`` pair."""
    base = resolve_base_seed(rng)
    seeds = [derive_seed(base, MEETING_TAG, t) for t in range(len(pairs))]
    return run_meeting_batch(graph, pairs, seeds, max_steps=max_steps)
