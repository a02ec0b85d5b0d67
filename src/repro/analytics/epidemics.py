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
  NumPy-drawn :class:`~repro.runtime.source.InteractionSource` per
  trajectory, applied by scalar loops: an epidemic round of
  :data:`_SCALAR_MAX_REPLICAS` rows or more takes a vectorized NumPy
  block instead, and influence always keeps Python-int bitsets.

Both stacks run on the lockstep driver of :mod:`repro.analytics.streams`
and supply only their state, their kernel call and their block step.
The no-kernel leg and a topology schedule (blocks end at epoch
switches) advance the stack in lockstep rounds, one block per round
(:func:`~repro.analytics.streams.block_size`); finished replicas are
compacted out between rounds so stabilized stragglers do not drag the
batch.  Influence picks its state once, when the stack starts:
Python-int bitsets without the kernel, packed words on it.

:func:`run_single_epidemic` runs one epidemic on a stream its caller
holds (a shared generator).  It always draws in NumPy, whole blocks
included, so the caller's generator ends in the same state whether or
not the kernel is built; kernel RNG rows are only ever seeded in C.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..engine.native import (
    data_address,
    get_broadcast_epoch_kernel,
    get_influence_epoch_kernel,
)
from ..graphs.graph import Graph
from ..runtime.source import InteractionSource, kernel_rng_rows
from .streams import _run_lockstep, iter_width_chunks, make_streams, node_id, step_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

#: Below this many co-resident replicas, an epidemic round without the
#: kernel takes the scalar Python loop, which beats the NumPy block's
#: per-step fancy indexing there: without the kernel, whole ``B(G)``
#: stacks on cycles, cliques and tori ran at parity near 96 rows, the
#: scalar loop ahead below it and the NumPy block above it (2-vCPU host).
#: Dispatch only — both paths compute identical results.
_SCALAR_MAX_REPLICAS = 96

BUDGET_EXHAUSTED = -1


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
    by ``seeds[t]``.  Sources, seeds and ``max_steps`` are integers (a
    float raises ``TypeError``); a source outside ``[0, n)`` or a negative
    budget raises ``ValueError``.
    Without ``stopmasks`` an epidemic completes when all ``n`` nodes are
    informed; with ``stopmasks`` (an ``(R, n)`` array; any other shape
    raises ``ValueError``) it completes when a newly informed node has a
    nonzero mask entry (distance-``k`` propagation).  Returns an int64
    array with the 1-based completion step per trajectory, or
    :data:`BUDGET_EXHAUSTED` where ``max_steps`` ran out.
    ``replica_batch`` caps how many trajectories are co-resident; it
    never changes the results.

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
    sources = [node_id(source, graph.n_nodes) for source in sources]
    max_steps = step_budget(max_steps)
    if stopmasks is not None:
        stopmasks = _target_masks(stopmasks, (count, graph.n_nodes))
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        chunk_seeds = seeds[chunk.start : chunk.stop]
        rng_rows = kernel_rng_rows(chunk_seeds)
        chunk_sources = sources[chunk.start : chunk.stop]
        chunk_masks = None if stopmasks is None else stopmasks[chunk.start : chunk.stop]
        _run_epidemic_stack(
            graph,
            rng_rows,
            make_streams(graph, chunk_seeds) if rng_rows is None else None,
            chunk_sources,
            chunk_masks,
            max_steps,
            results[chunk.start : chunk.stop],
            schedule,
        )
    return results


def run_single_epidemic(
    graph: Graph,
    source: int,
    stream: InteractionSource,
    max_steps: int,
    stopmask: Optional[np.ndarray] = None,
) -> Optional[int]:
    """One epidemic on a caller-held stream (shared-generator wrappers).

    Draws on the stream in NumPy with the same block schedule as the
    batched engine, whole blocks included, so a trajectory equals the
    batched one on the same seed step for step, and a shared generator
    ends in the same state whether or not the kernel is built.
    """
    results = np.full(1, BUDGET_EXHAUSTED, dtype=np.int64)
    masks = None if stopmask is None else _target_masks(stopmask, (graph.n_nodes,))[None, :]
    sources = [node_id(source, graph.n_nodes)]
    _run_epidemic_stack(graph, None, [stream], sources, masks, step_budget(max_steps), results)
    steps = int(results[0])
    return None if steps == BUDGET_EXHAUSTED else steps


def _target_masks(masks, shape) -> np.ndarray:
    """Stop masks as a contiguous 0/1 ``uint8`` array of ``shape``.

    Any nonzero entry marks a target, so the kernel, the scalar loop and
    the NumPy block read the same stop set.
    """
    masks = np.asarray(masks)
    if masks.shape != shape:
        raise ValueError(f"stop masks must have shape {shape}, got {masks.shape}")
    return (masks != 0).view(np.uint8)


def _run_epidemic_stack(
    graph: Graph,
    rng_rows: Optional[np.ndarray],
    streams: Optional[List[InteractionSource]],
    sources: List[int],
    stopmasks: Optional[np.ndarray],
    max_steps: int,
    out: np.ndarray,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    """Run one wave of co-resident epidemics to completion or budget.

    With ``rng_rows`` the kernel draws (``streams`` is ``None``);
    without them the ``streams`` draw each block in NumPy.
    """
    n = graph.n_nodes
    active = len(sources)
    informed = np.zeros((active, n), dtype=np.uint8)
    informed[np.arange(active), np.asarray(sources, dtype=np.int64)] = 1
    kernel = get_broadcast_epoch_kernel()

    def advance(rows, rng_rows, directed_u, directed_v, block: int, finish: np.ndarray) -> None:
        """Every row up to ``block`` draws, in one kernel call."""
        informed, counts, masks = rows
        kernel(
            data_address(informed),
            data_address(rng_rows),
            data_address(directed_u),
            data_address(directed_v),
            directed_u.shape[0],
            finish.shape[0],
            block,
            n,
            None if masks is None else data_address(masks),
            data_address(counts),
            data_address(finish),
        )

    def apply(rows, iu: np.ndarray, iv: np.ndarray, finish: np.ndarray) -> None:
        """One NumPy-drawn block; a narrow round takes the scalar loop."""
        if finish.shape[0] >= _SCALAR_MAX_REPLICAS:
            _numpy_epidemic_block(*rows, iu, iv, finish, n)
        else:
            _scalar_epidemic_block(*rows, iu, iv, finish, n)

    rows = [informed, np.ones(active, dtype=np.int64), stopmasks]
    _run_lockstep(graph, rows, apply, out, max_steps, streams, rng_rows, advance, schedule)


def _numpy_epidemic_block(
    informed: np.ndarray,
    counts: np.ndarray,
    masks: Optional[np.ndarray],
    iu: np.ndarray,
    iv: np.ndarray,
    finish: np.ndarray,
    n: int,
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
    counts: np.ndarray,
    masks: Optional[np.ndarray],
    iu: np.ndarray,
    iv: np.ndarray,
    finish: np.ndarray,
    n: int,
) -> None:
    a, block = iu.shape
    for r in range(a):
        inf = informed[r]
        stop = None if masks is None else masks[r]
        count = int(counts[r])
        row_u = iu[r].tolist()
        row_v = iv[r].tolist()
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

    On the kernel, influencer sets are packed 64 sources per uint64 word
    and one interaction is a ``⌈n/64⌉``-word OR applied to both
    endpoints; without it, each node's set is one Python int.  Same return
    conventions, batching semantics and ``schedule`` behaviour as
    :func:`run_epidemic_batch`.
    """
    count = len(seeds)
    if schedule is not None and schedule.n_nodes != graph.n_nodes:
        raise ValueError("schedule universe does not match the graph")
    max_steps = step_budget(max_steps)
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        chunk_seeds = [operator.index(seeds[t]) for t in chunk]
        _run_influence_stack(
            graph, chunk_seeds, max_steps, results[chunk.start : chunk.stop], schedule
        )
    return results


def _run_influence_stack(
    graph: Graph,
    seeds: List[int],
    max_steps: int,
    out: np.ndarray,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    n = graph.n_nodes
    active = len(seeds)
    rng_rows = kernel_rng_rows(seeds)
    if rng_rows is None:
        # Without the kernel, Python-int bitsets: the scalar loop was
        # never slower than a NumPy block of packed words, at any stack
        # width from 4 to 1024 rows on cycles, cliques and tori.
        bitsets = [[1 << v for v in range(n)] for _ in range(active)]
        rows = [bitsets, np.zeros(active, dtype=np.int64)]
        _run_lockstep(
            graph,
            rows,
            _scalar_influence_block,
            out,
            max_steps,
            make_streams(graph, seeds),
            schedule=schedule,
        )
        return
    words = (n + 63) // 64
    bits = np.zeros((active, n, words), dtype=np.uint64)
    node_ids = np.arange(n)
    bits[:, node_ids, node_ids // 64] = np.uint64(1) << (node_ids % 64).astype(np.uint64)
    # Buffered fancy-index |= would drop duplicate word indices; build the
    # full mask (low n bits set) word by word instead.
    full = np.array(
        [(1 << min(64, n - 64 * j)) - 1 for j in range(words)], dtype=np.uint64
    )
    kernel = get_influence_epoch_kernel()

    def advance(rows, rng_rows, directed_u, directed_v, block: int, finish: np.ndarray) -> None:
        """Every row up to ``block`` draws, in one kernel call."""
        bits, flags, counts = rows
        kernel(
            data_address(bits),
            data_address(rng_rows),
            data_address(directed_u),
            data_address(directed_v),
            directed_u.shape[0],
            finish.shape[0],
            block,
            n,
            words,
            data_address(full),
            data_address(flags),
            data_address(counts),
            data_address(finish),
        )

    rows = [bits, np.zeros((active, n), dtype=np.uint8), np.zeros(active, dtype=np.int64)]
    _run_lockstep(
        graph, rows, None, out, max_steps, rng_rows=rng_rows, kernel_step=advance,
        schedule=schedule,
    )


def _scalar_influence_block(rows, iu: np.ndarray, iv: np.ndarray, finish: np.ndarray) -> None:
    """The no-kernel block: Python-int influencer bitsets, one per node."""
    bitsets, full_counts = rows
    n = len(bitsets[0])
    full_mask = (1 << n) - 1
    for r, sets in enumerate(bitsets):
        full_count = int(full_counts[r])
        for i, (u, v) in enumerate(zip(iu[r].tolist(), iv[r].tolist()), start=1):
            merged = sets[u] | sets[v]
            if merged == full_mask:
                full_count += (sets[u] != full_mask) + (sets[v] != full_mask)
            sets[u] = merged
            sets[v] = merged
            if full_count == n:
                finish[r] = i
                break
        full_counts[r] = full_count
