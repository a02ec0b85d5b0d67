"""Per-trajectory streams and the one lockstep driver of the replica stacks.

Every Monte-Carlo estimator in :mod:`repro.analytics` runs ``R``
trajectories in lockstep, and each trajectory owns a private stream
derived from a SplitMix64 child seed (:mod:`repro.core.seeds`).
Determinism rests on two invariants:

1. **Seed purity** — the stream of trajectory ``t`` is a pure function of
   ``(base seed, domain tag, trajectory identity)``, never of how many
   trajectories run alongside it.  Replica-batch width, compaction of
   finished replicas and the scalar/NumPy/C execution paths therefore all
   produce bit-identical results.
2. **Fixed block schedule** — all engine paths consume a stream in the
   same global round schedule (1024, 2048, then 4096 forever), so a
   trajectory reads the same draw sequence whether it runs alone, in a
   width-3 wave or in a full stack.  (NumPy's bounded ``integers`` is
   additionally prefix-stable — one draw of ``n`` equals concatenated
   smaller draws — which makes the stream robust to the schedule itself.)

A stream drawn in NumPy is a plain
:class:`~repro.runtime.source.InteractionSource` read in its *directed
dialect*: one bounded-integers draw over ``[0, 2m)`` per block
(:meth:`~repro.runtime.source.InteractionSource.draw_pair_indices`),
decoded through the shared directed endpoint tables of
:mod:`repro.runtime.pairs`.  On the C kernel the epidemic and influence
stacks build no Python stream at all: the same draws are made in C from
rows seeded by ``repro_pcg64_init`` (:mod:`repro.analytics.epidemics`),
and those rows never leave C.  That is ~3 array operations per block
against the general scheduler's seven, and draws are demand-sized — a
trajectory that finishes after 900 steps has sampled ~1.5k interactions,
not a full pre-sample buffer.  Protocol simulations keep the scheduler
dialect (``RandomScheduler`` and its refill contract) unchanged; both
dialects are defined in :mod:`repro.runtime.source`.

The warm-up schedule exists for exactly that reason: epidemics on
well-connected graphs finish in ``Θ(n log n)`` steps, so the first blocks
stay small and the block size only doubles up to 4096 for the
long-running tail (cycles, renitent constructions).

Every stack — epidemics, influence, hitting and meeting walks — runs on
:func:`_run_lockstep`.  A process hands it only its per-row state, its
draws (kernel RNG rows or Python streams, never both), its kernel call
or block step, and the driver owns the one-call path for kernel rows on
a static topology, the rounds clipped at epoch ends, the finish and
result writes, and the compaction of finished rows together with their
RNG rows or streams.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..runtime.pairs import directed_tables
from ..runtime.source import InteractionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

_FIRST_BLOCK = 1024
_MAX_BLOCK = 4096

#: Default replica-batch wave width.  A wave's draws matrix is
#: ``width × block`` int64 (plus an equally sized iu/iv decode on the
#: NumPy fallback), so an uncapped wave of e.g. 20 trials × 24 sources ×
#: 8 repetitions would transiently allocate hundreds of MB.  512 replicas
#: amortize per-round overhead just as well and bound the footprint at
#: ~16 MB per matrix; results are width-invariant either way.
_DEFAULT_WAVE = 512


def block_size(round_index: int) -> int:
    """Size of the ``round_index``-th lockstep block (1024 doubling to 4096).

    The first block covers a clique-style ``Θ(n log n)`` epidemic at the
    benchmark sizes in a single draw; long-running trajectories (cycles,
    renitent constructions) double up to the maximal block.
    """
    return min(_FIRST_BLOCK << min(round_index, 2), _MAX_BLOCK)


def resolve_base_seed(rng: RngLike) -> int:
    """Reduce an ``rng`` argument to one 63-bit base seed.

    Integers pass through, ``None`` draws fresh OS entropy, and an
    existing :class:`numpy.random.Generator` contributes a single draw —
    so estimators called with a shared generator stay deterministic in
    that generator's state while their trajectories still get
    batch-width-independent child streams.  Anything else that is not an
    integer (a float seed, say) raises :class:`TypeError`, as
    ``np.random.default_rng`` does, rather than being truncated.
    """
    if rng is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0] >> 1)
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 1 << 63))
    return operator.index(rng)


def node_id(node: int, n: int) -> int:
    """``node`` as a node id of an ``n``-node graph.

    A value that is not an integer (a float, say) raises
    :class:`TypeError` rather than being truncated, and an id outside
    ``[0, n)`` raises :class:`ValueError`.
    """
    node = operator.index(node)
    if not 0 <= node < n:
        raise ValueError(f"node id {node} out of range [0, {n})")
    return node


def step_budget(max_steps: int) -> int:
    """``max_steps`` as an integer budget.

    A float raises :class:`TypeError` rather than being truncated, and a
    negative budget raises :class:`ValueError`.
    """
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    return max_steps


def make_streams(graph: Graph, seeds: Sequence[int]) -> List[InteractionSource]:
    """One private NumPy stream per trajectory seed.

    A seed that is not an integer (a float, say) raises :class:`TypeError`
    rather than being truncated.
    """
    return [
        InteractionSource(graph, np.random.default_rng(operator.index(seed))) for seed in seeds
    ]


def fill_draw_rows(
    streams: Sequence[InteractionSource],
    draws: np.ndarray,
    count: Optional[int] = None,
) -> None:
    """Fill row ``j`` of the ``(R, block)`` draws matrix from stream ``j``.

    The rows hold raw ordered-pair indices: the stack decodes the whole
    matrix with one gather per endpoint table.  ``count`` overrides the
    per-draw bound (active epoch's ``2m_k`` on dynamic topologies);
    ``None`` keeps each stream's own bound.
    """
    for j, stream in enumerate(streams):
        stream.draw_pair_indices(draws[j], count)


def iter_width_chunks(count: int, width: Optional[int]) -> Iterator[range]:
    """Split ``range(count)`` into replica-batch waves of at most ``width``.

    ``width=None`` applies the default wave cap (:data:`_DEFAULT_WAVE`).
    Because trajectory streams are private, the chunking affects
    scheduling and memory only — never the per-trajectory results.
    """
    if width is None:
        width = min(count, _DEFAULT_WAVE) or 1
    if width < 1:
        raise ValueError("replica_batch width must be positive")
    for lo in range(0, count, width):
        yield range(lo, min(lo + width, count))


def _active_tables(
    graph: Graph,
    schedule: Optional["TopologySchedule"],
    consumed: int,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Directed endpoint tables for the block at ``consumed``, and its size.

    On a static run (``schedule is None``) these are the graph's own
    tables and the block size is untouched.  On a dynamic run the block
    is clipped at the next epoch boundary, so every draw in it is made —
    and decoded — against one epoch's edge table, and all co-resident
    replicas cross the epoch switch together (they share ``consumed``).
    The draw bound is the tables' length, ``2m`` of the active graph.
    """
    if schedule is not None:
        index, _, end = schedule.epoch_at(consumed)
        if end is not None:
            block = min(block, end - consumed)
        graph = schedule.epoch_graph(index)
    directed_u, directed_v = directed_tables(graph)
    return directed_u, directed_v, block


def _compact(row: Any, keep: np.ndarray) -> Any:
    """The entries of one per-row array or list that ``keep`` marks."""
    if isinstance(row, list):
        return [item for item, kept in zip(row, keep) if kept]
    return None if row is None else row[keep]


def _run_lockstep(
    graph: Graph,
    rows: List[Any],
    block_step: Optional[Callable[..., None]],
    out: np.ndarray,
    max_steps: int,
    streams: Optional[List[InteractionSource]] = None,
    rng_rows: Optional[np.ndarray] = None,
    kernel_step: Optional[Callable[..., None]] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    """Advance one stack of co-resident trajectories to finish or budget.

    ``rows`` is the process's per-row state: arrays or lists whose first
    axis is the stack (``None`` for an absent one), compacted here as
    rows finish.  A stack draws either on kernel RNG rows or on Python
    streams, never on both.  With ``rng_rows`` the kernel draws, through
    ``kernel_step(rows, rng_rows, directed_u, directed_v, block,
    finish)``.  Otherwise row ``j`` draws each block from ``streams[j]``
    in NumPy and ``block_step(rows, iu, iv, finish)`` applies the decoded
    ``(stack, block)`` endpoint matrices (a stack that always has
    ``rng_rows`` passes ``None``).  A step writes each row's 1-based
    finishing offset in the block, or -1, into ``finish``.  ``out``
    starts at -1 (``BUDGET_EXHAUSTED``) and receives each row's finishing
    step.
    """
    if rng_rows is not None and schedule is None:
        # Kernel rows on a static topology: one call over the whole
        # budget draws what the rounds would (a row stops drawing at its
        # finish) and writes each finishing step, or -1
        # (BUDGET_EXHAUSTED), straight into the row's result slot.
        if max_steps > 0:
            directed_u, directed_v = directed_tables(graph)
            kernel_step(rows, rng_rows, directed_u, directed_v, max_steps, out)
        return
    slots = np.arange(out.shape[0])
    consumed = 0
    round_index = 0
    while slots.size and consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        directed_u, directed_v, block = _active_tables(graph, schedule, consumed, block)
        finish = np.full(slots.shape[0], -1, dtype=np.int64)
        if rng_rows is not None:
            kernel_step(rows, rng_rows, directed_u, directed_v, block, finish)
        else:
            draws = np.empty((slots.shape[0], block), dtype=np.int64)
            fill_draw_rows(streams, draws, directed_u.shape[0])
            block_step(rows, directed_u.take(draws), directed_v.take(draws), finish)
        done = finish >= 0
        if done.any():
            out[slots[done]] = consumed + finish[done]
            keep = ~done
            rng_rows = _compact(rng_rows, keep)
            streams = _compact(streams, keep)
            rows = [_compact(row, keep) for row in rows]
            slots = slots[keep]
        consumed += block
        round_index += 1
