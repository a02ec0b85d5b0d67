"""Replica-batched population-model walks (hitting and meeting times).

A population-model walk only moves when the scheduler samples an edge
incident to its current position — an expected ``deg(pos)/m`` fraction of
all interactions.  Instead of replaying every interaction in a Python
loop, each trajectory consumes its stream one block at a time and *skips
between touch events*: the block's interactions are indexed by endpoint
(one ``lexsort``), and the walk jumps straight from one incident
interaction to the next with two binary searches.  Per block the work is
``O(block log block)`` for the index plus ``O(moves · log block)`` — and
the number of touch events equals the number of moves, so the cost scales
with how often the walk actually moves, not with the raw step count.

Trajectory streams, block schedule, budget conventions and replica-batch
semantics match :mod:`repro.analytics.epidemics`: ``R`` walks advance on
the same lockstep driver (:mod:`repro.analytics.streams`) as position
vectors, finished walks are compacted out of the stack, and results are
bit-identical for any replica-batch width.  A walk stack supplies only
its two position vectors and its per-walk block step
(:func:`_hitting_block` or :func:`_meeting_block`); walks have no kernel.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..runtime.source import InteractionSource
from .epidemics import BUDGET_EXHAUSTED
from .streams import _run_lockstep, iter_width_chunks, make_streams, node_id, step_budget


def default_walk_budget(graph: Graph) -> int:
    """The walk estimators' historical step budget (``200·n·m + 1000``)."""
    return 200 * graph.n_nodes * graph.n_edges + 1000


def _touch_index(iu: np.ndarray, iv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Block interactions grouped by endpoint, step-sorted within a node."""
    block = iu.shape[0]
    nodes = np.concatenate((iu, iv))
    steps = np.concatenate((np.arange(block, dtype=np.int64),) * 2)
    order = np.lexsort((steps, nodes))
    return nodes[order], steps[order]


def _next_touch(snodes: np.ndarray, ssteps: np.ndarray, node: int, after: int) -> int:
    """First step index > ``after`` whose interaction touches ``node`` (-1: none)."""
    lo = np.searchsorted(snodes, node, "left")
    hi = np.searchsorted(snodes, node, "right")
    segment = ssteps[lo:hi]
    j = np.searchsorted(segment, after + 1, "left")
    if j == segment.shape[0]:
        return -1
    return int(segment[j])


def _hitting_block(
    iu: np.ndarray, iv: np.ndarray, position: int, target: int
) -> Tuple[int, int, int]:
    """Advance one walk through one block; returns (position, target, finish offset)."""
    snodes, ssteps = _touch_index(iu, iv)
    cursor = -1
    while True:
        event = _next_touch(snodes, ssteps, position, cursor)
        if event < 0:
            return position, target, -1
        position = int(iu[event]) + int(iv[event]) - position
        if position == target:
            return position, target, event + 1
        cursor = event


def _meeting_block(
    iu: np.ndarray, iv: np.ndarray, pos_a: int, pos_b: int
) -> Tuple[int, int, int]:
    """Advance one walk pair through one block; returns (a, b, finish offset)."""
    snodes, ssteps = _touch_index(iu, iv)
    cursor = -1
    while True:
        next_a = _next_touch(snodes, ssteps, pos_a, cursor)
        next_b = next_a if pos_a == pos_b else _next_touch(snodes, ssteps, pos_b, cursor)
        if next_a < 0 and next_b < 0:
            return pos_a, pos_b, -1
        if next_a == next_b:
            # One interaction touching both walks can only be the edge
            # joining them (or any edge at a shared node): a meeting.
            return pos_a, pos_b, next_a + 1
        if next_b < 0 or (0 <= next_a < next_b):
            pos_a = int(iu[next_a]) + int(iv[next_a]) - pos_a
            cursor = next_a
        else:
            pos_b = int(iu[next_b]) + int(iv[next_b]) - pos_b
            cursor = next_b


def _walk_pairs(graph: Graph, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``pairs`` as an ``(R, 2)`` int64 array of node ids.

    Each id goes through :func:`~repro.analytics.streams.node_id` (a float
    raises ``TypeError``, an id outside ``[0, n)`` ``ValueError``), and an
    entry that is not two ids raises ``ValueError``.
    """
    positions = np.empty((len(pairs), 2), dtype=np.int64)
    for t, pair in enumerate(pairs):
        try:
            first, second = pair
        except (TypeError, ValueError):
            raise ValueError(f"pair {t} is not two node ids: {pair!r}") from None
        positions[t] = node_id(first, graph.n_nodes), node_id(second, graph.n_nodes)
    return positions


def _walk_stack(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    streams: List[InteractionSource],
    max_steps: int,
    walk_block: Callable[..., Tuple[int, int, int]],
) -> np.ndarray:
    """Run one wave of walks to finish or budget; steps per walk.

    The pairs and the budget are checked as the batch drivers check them.
    """

    def apply(rows, iu: np.ndarray, iv: np.ndarray, finish: np.ndarray) -> None:
        first, second = rows
        for r in range(finish.shape[0]):
            first[r], second[r], finish[r] = walk_block(
                iu[r], iv[r], int(first[r]), int(second[r])
            )

    first, second = _walk_pairs(graph, pairs).T
    out = np.full(first.shape[0], BUDGET_EXHAUSTED, dtype=np.int64)
    _run_lockstep(graph, [first, second], apply, out, step_budget(max_steps), streams)
    return out


# ----------------------------------------------------------------------
# Batched drivers
# ----------------------------------------------------------------------
def run_hitting_batch(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    max_steps: Optional[int] = None,
    replica_batch: Optional[int] = None,
) -> np.ndarray:
    """Hitting steps for ``R`` walks; ``pairs[t]`` is ``(start, target)``.

    Walks starting on their target report 0.  Same return conventions as
    :func:`repro.analytics.epidemics.run_epidemic_batch`, whose checks
    the node ids, seeds and ``max_steps`` pass too; every check runs
    before the first walk.
    """
    positions, seeds, max_steps = _checked_batch(graph, pairs, seeds, max_steps)
    results = np.zeros(len(seeds), dtype=np.int64)
    for chunk in iter_width_chunks(len(seeds), replica_batch):
        live = [t for t in chunk if positions[t, 0] != positions[t, 1]]
        streams = make_streams(graph, [seeds[t] for t in live])
        results[live] = _walk_stack(graph, positions[live], streams, max_steps, _hitting_block)
    return results


def run_meeting_batch(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    max_steps: Optional[int] = None,
    replica_batch: Optional[int] = None,
) -> np.ndarray:
    """Meeting steps for ``R`` walk pairs; ``pairs[t]`` is ``(start_a, start_b)``.

    Checked as :func:`run_hitting_batch` checks its arguments.
    """
    positions, seeds, max_steps = _checked_batch(graph, pairs, seeds, max_steps)
    results = np.empty(len(seeds), dtype=np.int64)
    for chunk in iter_width_chunks(len(seeds), replica_batch):
        streams = make_streams(graph, [seeds[t] for t in chunk])
        results[chunk.start : chunk.stop] = _walk_stack(
            graph, positions[chunk.start : chunk.stop], streams, max_steps, _meeting_block
        )
    return results


def _checked_batch(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]],
    seeds: Sequence[int],
    max_steps: Optional[int],
) -> Tuple[np.ndarray, List[int], int]:
    """A walk batch's positions, seeds and budget, each checked up front."""
    if len(seeds) != len(pairs):
        raise ValueError("need exactly one seed per trajectory")
    positions = _walk_pairs(graph, pairs)
    seeds = [operator.index(seed) for seed in seeds]
    max_steps = default_walk_budget(graph) if max_steps is None else step_budget(max_steps)
    return positions, seeds, max_steps


# ----------------------------------------------------------------------
# Single-stream wrappers (shared-generator call sites)
# ----------------------------------------------------------------------
def run_single_hitting(
    graph: Graph,
    start: int,
    target: int,
    stream: InteractionSource,
    max_steps: int,
) -> Optional[int]:
    """One hitting-time trajectory on a caller-provided stream.

    A walk that starts on its target reports 0 and draws nothing from
    ``stream``, as in :func:`run_hitting_batch`; its ids and budget are
    checked all the same.
    """
    if node_id(start, graph.n_nodes) == node_id(target, graph.n_nodes):
        step_budget(max_steps)
        return 0
    steps = int(_walk_stack(graph, [(start, target)], [stream], max_steps, _hitting_block)[0])
    return None if steps == BUDGET_EXHAUSTED else steps


def run_single_meeting(
    graph: Graph,
    start_a: int,
    start_b: int,
    stream: InteractionSource,
    max_steps: int,
) -> Optional[int]:
    """One meeting-time trajectory on a caller-provided stream."""
    steps = int(_walk_stack(graph, [(start_a, start_b)], [stream], max_steps, _meeting_block)[0])
    return None if steps == BUDGET_EXHAUSTED else steps
