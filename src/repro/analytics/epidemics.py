"""Replica-batched one-way epidemics and influence processes.

The Monte-Carlo analytics floor of the experiment harness — ``B(G)``
estimates, full-information times, distance-``k`` propagation times — is
built from two stochastic processes:

* the **single-source epidemic**: one informed bit per node, spread along
  sampled interactions until all ``n`` nodes (or a stop set) are reached;
* the **all-pairs influence process**: one ``n``-bit influencer set per
  node, merged pairwise until every node is influenced by every node.

This module runs ``R`` independent trajectories of either process as
one stack: epidemics as an ``(R, n)`` uint8 informed matrix, influence
as an ``(R, n, ⌈n/64⌉)`` packed uint64 bitset tensor.  Each trajectory
reads its private stream (:mod:`repro.analytics.streams`).

Two legs produce bit-identical results:

* the v6 kernels (:func:`repro.engine.native.get_broadcast_epoch_kernel`,
  :func:`~repro.engine.native.get_influence_epoch_kernel`) when every
  seed is kernel-seedable: the streams live only in ``(R,
  RNG_STATE_WORDS)`` rows seeded in C (``repro_pcg64_init``), are drawn
  inside the kernel, and a row stops drawing at its finishing step.  So
  on a static topology one kernel call per width chunk runs every row
  to its finish or the step budget;
* the no-kernel leg (no compiler, or a seed outside ``[0, 2**64)``): one
  NumPy-drawn :class:`~repro.analytics.streams.TrajectoryStream` per
  trajectory, applied by a vectorized NumPy block or, for tiny stacks
  (``R < 4``), a scalar loop.

The no-kernel leg, a topology schedule (blocks end at epoch switches)
and a caller-held stream (below) advance the stack in lockstep rounds,
one block per round (:func:`~repro.analytics.streams.block_size`);
finished replicas are compacted out between rounds so stabilized
stragglers do not drag the batch.

:func:`run_single_epidemic` alone runs on a stream its caller holds (a
shared generator).  On the kernel its PCG64 state is packed into a row,
and when the row leaves the stack the state is written back and the rest
of the block is drawn on the caller's generator, so the generator ends
exactly where the no-kernel leg, which draws whole blocks, leaves it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.native import (
    RNG_STATE_WORDS,
    data_address,
    get_broadcast_epoch_kernel,
    get_influence_epoch_kernel,
    kernel_thread_count,
)
from ..graphs.graph import Graph
from ..runtime.source import (
    kernel_rng_rows,
    pack_generator_state,
    unpack_generator_state,
)
from .streams import (
    TrajectoryStream,
    block_size,
    directed_pairs,
    fill_draw_rows,
    iter_width_chunks,
    make_streams,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

#: Below this many co-resident replicas the scalar Python loop beats the
#: per-step fancy-indexing overhead of the NumPy path.  Dispatch only —
#: all paths compute identical results.
_SCALAR_MAX_REPLICAS = 4

BUDGET_EXHAUSTED = -1


def _pack_stream_states(streams: Sequence[TrajectoryStream]) -> Optional[np.ndarray]:
    """Export caller-held streams' PCG64 states into kernel RNG rows.

    Returns ``None`` (keeping the streams on the NumPy leg) when the
    kernel is not built or a stream rides a bit generator the kernel
    cannot continue.
    """
    if get_broadcast_epoch_kernel() is None:
        return None
    rows = np.zeros((len(streams), RNG_STATE_WORDS), dtype=np.uint64)
    try:
        for j, stream in enumerate(streams):
            pack_generator_state(stream.generator, rows[j])
    except (KeyError, TypeError, ValueError):
        return None
    return rows


def _writeback_stream_states(
    streams: Sequence[TrajectoryStream],
    rows: np.ndarray,
    mask: np.ndarray,
    draws_left: Optional[np.ndarray] = None,
    bound: int = 0,
) -> None:
    """Import kernel RNG rows back into the caller-held streams in ``mask``.

    The kernel stops drawing at a row's finishing step, while the NumPy
    leg draws whole blocks up front.  ``draws_left[j]`` (the rest of the
    block) is drawn here with one ``integers(0, bound)`` call on the
    caller's generator.  Bounded ``integers`` is prefix-stable, buffered
    32-bit half-word included, so the generator ends exactly where a
    whole-block draw leaves it.
    """
    for j in np.flatnonzero(mask):
        generator = streams[j].generator
        unpack_generator_state(generator, rows[j])
        if draws_left is not None and draws_left[j] > 0:
            generator.integers(0, bound, size=int(draws_left[j]))


def _active_tables(
    graph: Graph,
    schedule: Optional["TopologySchedule"],
    consumed: int,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[int], int]:
    """Directed endpoint tables + draw bound for the block at ``consumed``.

    On a static run (``schedule is None``) this is the graph's own tables
    and the block size is untouched.  On a dynamic run the block is
    clipped at the next epoch boundary, so every draw in it is made — and
    decoded — against one epoch's edge table, and all co-resident
    replicas cross the epoch switch together (they share ``consumed``).
    """
    if schedule is None:
        directed_u, directed_v = directed_pairs(graph)
        return directed_u, directed_v, None, block
    index, _, end = schedule.epoch_at(consumed)
    if end is not None:
        block = min(block, end - consumed)
    directed_u, directed_v = directed_pairs(schedule.epoch_graph(index))
    return directed_u, directed_v, int(directed_u.shape[0]), block


# ----------------------------------------------------------------------
# Single-source epidemics
# ----------------------------------------------------------------------
def run_epidemic_batch(
    graph: Graph,
    sources: Sequence[int],
    seeds: Sequence[int],
    max_steps: int,
    stopmasks: Optional[np.ndarray] = None,
    replica_batch: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> np.ndarray:
    """Steps until completion for ``R`` independent epidemics.

    Trajectory ``t`` starts at ``sources[t]`` and reads the stream seeded
    by ``seeds[t]``.  Without ``stopmasks`` an epidemic completes when all
    ``n`` nodes are informed; with ``stopmasks`` (an ``(R, n)`` uint8
    matrix) it completes when a newly informed node has its mask bit set
    (distance-``k`` propagation).  Returns an int64 array with the 1-based
    completion step per trajectory, or :data:`BUDGET_EXHAUSTED` where
    ``max_steps`` ran out.  ``replica_batch`` caps how many trajectories
    are co-resident; it never changes the results.

    ``schedule`` runs the epidemics on a time-varying topology: blocks
    are clipped at epoch boundaries so all co-resident trajectories
    advance through epoch switches in lockstep, and every draw samples
    the active epoch's ordered-pair table.  A single-epoch schedule
    reproduces the static run bit for bit.
    """
    count = len(sources)
    if len(seeds) != count:
        raise ValueError("need exactly one seed per trajectory")
    if schedule is not None and schedule.n_nodes != graph.n_nodes:
        raise ValueError("schedule universe does not match the graph")
    for source in sources:
        if not (0 <= int(source) < graph.n_nodes):
            raise ValueError("source out of range")
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        chunk_seeds = seeds[chunk.start : chunk.stop]
        rng_rows = kernel_rng_rows(chunk_seeds)
        chunk_sources = [int(source) for source in sources[chunk.start : chunk.stop]]
        chunk_masks = None if stopmasks is None else stopmasks[list(chunk)]
        _run_epidemic_stack(
            graph,
            rng_rows,
            make_streams(graph, chunk_seeds) if rng_rows is None else None,
            chunk_sources,
            chunk_masks,
            max_steps,
            results,
            chunk.start,
            schedule,
        )
    return results


def run_single_epidemic(
    graph: Graph,
    source: int,
    stream: TrajectoryStream,
    max_steps: int,
    stopmask: Optional[np.ndarray] = None,
) -> Optional[int]:
    """One epidemic on a caller-held stream (shared-generator wrappers).

    Consumes the stream with the same block schedule as the batched
    engine, whole blocks included, so e.g. a distance-``k`` run and a full
    broadcast with the same seed share their interaction schedule step
    for step, and a shared generator ends in the same state on every leg.
    """
    results = np.full(1, BUDGET_EXHAUSTED, dtype=np.int64)
    masks = None if stopmask is None else np.ascontiguousarray(stopmask, dtype=np.uint8)[None, :]
    streams = [stream]
    _run_epidemic_stack(
        graph, _pack_stream_states(streams), streams, [int(source)], masks, max_steps, results, 0
    )
    steps = int(results[0])
    return None if steps == BUDGET_EXHAUSTED else steps


def _run_epidemic_stack(
    graph: Graph,
    rng_rows: Optional[np.ndarray],
    streams: Optional[List[TrajectoryStream]],
    sources: List[int],
    stopmasks: Optional[np.ndarray],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    """Run one wave of co-resident epidemics to completion or budget.

    With ``rng_rows`` the kernel draws; ``streams`` are then the
    caller-held streams behind the rows (``None`` for private rows) and
    get their state back as they leave the stack.  Without ``rng_rows``
    the ``streams`` draw each block in NumPy.
    """
    n = graph.n_nodes
    active = len(sources)
    informed = np.zeros((active, n), dtype=np.uint8)
    informed[np.arange(active), np.asarray(sources, dtype=np.int64)] = 1
    counts = np.ones(active, dtype=np.int64)
    masks = (
        None
        if stopmasks is None
        else np.ascontiguousarray(stopmasks, dtype=np.uint8)
    )
    kernel = None if rng_rows is None else get_broadcast_epoch_kernel()
    threads = kernel_thread_count()

    def advance(directed_u, directed_v, bound: int, block: int, finish: np.ndarray) -> None:
        """Every row up to ``block`` draws, in one kernel call."""
        kernel(
            data_address(informed),
            data_address(rng_rows),
            data_address(directed_u),
            data_address(directed_v),
            bound,
            finish.shape[0],
            block,
            n,
            None if masks is None else data_address(masks),
            data_address(counts),
            data_address(finish),
            threads,
        )

    if kernel is not None and streams is None and schedule is None:
        # Private rows on a static topology: one call over the whole
        # budget draws what the rounds would (a row stops drawing at its
        # finish) and writes each finishing step, or -1
        # (BUDGET_EXHAUSTED), straight into the row's result slot.
        if max_steps > 0:
            directed_u, directed_v = directed_pairs(graph)
            finish = results[result_offset : result_offset + active]
            advance(directed_u, directed_v, 2 * graph.n_edges, max_steps, finish)
        return
    indices = np.arange(result_offset, result_offset + active, dtype=np.int64)
    consumed = 0
    round_index = 0
    while indices.size and consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        directed_u, directed_v, pair_count, block = _active_tables(
            graph, schedule, consumed, block
        )
        a = indices.shape[0]
        finish = np.full(a, -1, dtype=np.int64)
        bound = 2 * graph.n_edges if pair_count is None else pair_count
        if kernel is not None:
            advance(directed_u, directed_v, bound, block, finish)
        else:
            draws = np.empty((a, block), dtype=np.int64)
            fill_draw_rows(streams, draws, pair_count)
            if a >= _SCALAR_MAX_REPLICAS:
                iu = directed_u.take(draws)
                iv = directed_v.take(draws)
                _numpy_epidemic_block(informed, iu, iv, counts, finish, n, masks)
            else:
                _scalar_epidemic_block(
                    informed, draws, directed_u, directed_v, counts, finish, n, masks
                )
        done = finish >= 0
        if done.any():
            results[indices[done]] = consumed + finish[done]
            keep = ~done
            if rng_rows is not None:
                if streams is not None:
                    _writeback_stream_states(streams, rng_rows, done, block - finish, bound)
                rng_rows = np.ascontiguousarray(rng_rows[keep])
            informed = np.ascontiguousarray(informed[keep])
            counts = counts[keep]
            indices = indices[keep]
            if masks is not None:
                masks = np.ascontiguousarray(masks[keep])
            if streams is not None:
                streams = [s for s, k in zip(streams, keep) if k]
        consumed += block
        round_index += 1
    if rng_rows is not None and streams:
        _writeback_stream_states(streams, rng_rows, np.ones(len(streams), dtype=bool))


def _numpy_epidemic_block(
    informed: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
    masks: Optional[np.ndarray],
) -> None:
    a, block = iu.shape
    rows = np.arange(a)
    active = np.ones(a, dtype=bool)
    for i in range(block):
        u = iu[:, i]
        v = iv[:, i]
        informed_u = informed[rows, u]
        spread = (informed_u != informed[rows, v]) & active
        if not spread.any():
            continue
        touched = rows[spread]
        informed[touched, u[spread]] = 1
        informed[touched, v[spread]] = 1
        counts[spread] += 1
        if masks is None:
            hit = counts[spread] == n
        else:
            fresh = np.where(informed_u[spread] == 1, v[spread], u[spread])
            hit = masks[touched, fresh] == 1
        if hit.any():
            finish[touched[hit]] = i + 1
            active[touched[hit]] = False
            if not active.any():
                return


def _scalar_epidemic_block(
    informed: np.ndarray,
    draws: np.ndarray,
    directed_u: np.ndarray,
    directed_v: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
    masks: Optional[np.ndarray],
) -> None:
    a, block = draws.shape
    for r in range(a):
        inf = informed[r]
        stop = None if masks is None else masks[r]
        count = int(counts[r])
        row_u = directed_u.take(draws[r]).tolist()
        row_v = directed_v.take(draws[r]).tolist()
        for i in range(block):
            u = row_u[i]
            v = row_v[i]
            a_informed = inf[u]
            if a_informed != inf[v]:
                fresh = v if a_informed else u
                inf[u] = 1
                inf[v] = 1
                count += 1
                if (stop[fresh] if stop is not None else count == n):
                    finish[r] = i + 1
                    break
        counts[r] = count


# ----------------------------------------------------------------------
# All-pairs influence (full-information time)
# ----------------------------------------------------------------------
def run_influence_batch(
    graph: Graph,
    seeds: Sequence[int],
    max_steps: int,
    replica_batch: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> np.ndarray:
    """Steps until every node is influenced by every node, per trajectory.

    Influencer sets are packed 64 sources per uint64 word; one interaction
    is a ``⌈n/64⌉``-word OR applied to both endpoints.  Same return
    conventions, batching semantics and ``schedule`` behaviour as
    :func:`run_epidemic_batch`.
    """
    count = len(seeds)
    if schedule is not None and schedule.n_nodes != graph.n_nodes:
        raise ValueError("schedule universe does not match the graph")
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        chunk_seeds = [int(seeds[t]) for t in chunk]
        _run_influence_stack(graph, chunk_seeds, max_steps, results, chunk.start, schedule)
    return results


def _run_influence_stack(
    graph: Graph,
    seeds: List[int],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    n = graph.n_nodes
    rng_rows = kernel_rng_rows(seeds)
    if rng_rows is None and len(seeds) < _SCALAR_MAX_REPLICAS and schedule is None:
        # The tiny-stack fallback decodes draws through its stream's own
        # static tables, so dynamic runs take the generic path instead.
        _scalar_influence(graph, seeds, max_steps, results, result_offset)
        return
    streams = make_streams(graph, seeds) if rng_rows is None else None
    active = len(seeds)
    words = (n + 63) // 64
    bits = np.zeros((active, n, words), dtype=np.uint64)
    node_ids = np.arange(n)
    bits[:, node_ids, node_ids // 64] = np.uint64(1) << (node_ids % 64).astype(np.uint64)
    # Buffered fancy-index |= would drop duplicate word indices; build the
    # full mask (low n bits set) word by word instead.
    full = np.array(
        [(1 << min(64, n - 64 * j)) - 1 for j in range(words)], dtype=np.uint64
    )
    flags = np.zeros((active, n), dtype=np.uint8)
    counts = np.zeros(active, dtype=np.int64)
    kernel = None if rng_rows is None else get_influence_epoch_kernel()
    threads = kernel_thread_count()

    def advance(directed_u, directed_v, bound: int, block: int, finish: np.ndarray) -> None:
        """Every row up to ``block`` draws, in one kernel call."""
        kernel(
            data_address(bits),
            data_address(rng_rows),
            data_address(directed_u),
            data_address(directed_v),
            bound,
            finish.shape[0],
            block,
            n,
            words,
            data_address(full),
            data_address(flags),
            data_address(counts),
            data_address(finish),
            threads,
        )

    if kernel is not None and schedule is None:
        # One call to finish or budget, as for private epidemic rows.
        if max_steps > 0:
            directed_u, directed_v = directed_pairs(graph)
            finish = results[result_offset : result_offset + active]
            advance(directed_u, directed_v, 2 * graph.n_edges, max_steps, finish)
        return
    indices = np.arange(result_offset, result_offset + active, dtype=np.int64)
    consumed = 0
    round_index = 0
    while indices.size and consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        directed_u, directed_v, pair_count, block = _active_tables(
            graph, schedule, consumed, block
        )
        a = indices.shape[0]
        finish = np.full(a, -1, dtype=np.int64)
        if kernel is not None:
            bound = 2 * graph.n_edges if pair_count is None else pair_count
            advance(directed_u, directed_v, bound, block, finish)
        else:
            draws = np.empty((a, block), dtype=np.int64)
            fill_draw_rows(streams, draws, pair_count)
            iu = directed_u.take(draws)
            iv = directed_v.take(draws)
            _numpy_influence_block(bits, iu, iv, full, flags, counts, finish, n)
        done = finish >= 0
        if done.any():
            results[indices[done]] = consumed + finish[done]
            keep = ~done
            if rng_rows is not None:
                rng_rows = np.ascontiguousarray(rng_rows[keep])
            else:
                streams = [s for s, k in zip(streams, keep) if k]
            bits = np.ascontiguousarray(bits[keep])
            flags = np.ascontiguousarray(flags[keep])
            counts = counts[keep]
            indices = indices[keep]
        consumed += block
        round_index += 1


def _numpy_influence_block(
    bits: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    full: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
) -> None:
    a, block = iu.shape
    rows = np.arange(a)
    active = np.ones(a, dtype=bool)
    for i in range(block):
        u = iu[:, i]
        v = iv[:, i]
        merged = bits[rows, u] | bits[rows, v]
        bits[rows, u] = merged
        bits[rows, v] = merged
        newly_full = (merged == full).all(axis=1) & active
        if not newly_full.any():
            continue
        flag_u = flags[rows, u]
        flag_v = flags[rows, v]
        counts[newly_full] += (
            (1 - flag_u[newly_full].astype(np.int64))
            + (1 - flag_v[newly_full].astype(np.int64))
        )
        touched = rows[newly_full]
        flags[touched, u[newly_full]] = 1
        flags[touched, v[newly_full]] = 1
        hit = active & (counts == n)
        if hit.any():
            finish[hit] = i + 1
            active &= ~hit
            if not active.any():
                return


def _scalar_influence(
    graph: Graph,
    seeds: List[int],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
) -> None:
    """Tiny-stack fallback: Python-int bitsets on the same streams/schedule."""
    n = graph.n_nodes
    full_mask = (1 << n) - 1
    for offset, seed in enumerate(seeds):
        stream = make_streams(graph, [seed])[0]
        bitsets = [1 << v for v in range(n)]
        full_count = 1 if n == 1 else 0
        consumed = 0
        round_index = 0
        while consumed < max_steps:
            block = min(block_size(round_index), max_steps - consumed)
            iu = np.empty(block, dtype=np.int64)
            iv = np.empty(block, dtype=np.int64)
            stream.next_into(iu, iv)
            finish = -1
            for i, (u, v) in enumerate(zip(iu.tolist(), iv.tolist()), start=1):
                merged = bitsets[u] | bitsets[v]
                if merged == full_mask:
                    full_count += (bitsets[u] != full_mask) + (bitsets[v] != full_mask)
                bitsets[u] = merged
                bitsets[v] = merged
                if full_count == n:
                    finish = i
                    break
            if finish >= 0:
                results[result_offset + offset] = consumed + finish
                break
            consumed += block
            round_index += 1
