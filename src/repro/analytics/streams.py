"""Per-trajectory interaction streams for the replica-batched engine.

Every Monte-Carlo estimator in :mod:`repro.analytics` runs ``R``
trajectories in lockstep, and each trajectory owns a private
:class:`TrajectoryStream` derived from a SplitMix64 child seed
(:mod:`repro.core.seeds`).  Determinism rests on two invariants:

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

A ``TrajectoryStream`` is the *directed dialect* of the runtime's
unified :class:`~repro.runtime.source.InteractionSource`: one
bounded-integers draw over ``[0, 2m)`` per block, decoded through the
shared directed endpoint tables of :mod:`repro.runtime.pairs`.  On the
C kernel the epidemic and influence stacks build no ``TrajectoryStream``
at all: the same draws are made in C from rows seeded by
``repro_pcg64_init`` (:mod:`repro.analytics.epidemics`).  That is ~3 array
operations per block against the general scheduler's seven, and draws
are demand-sized — a trajectory that finishes after 900 steps has
sampled ~1.5k interactions, not a full pre-sample buffer.  Protocol
simulations keep the scheduler dialect (``RandomScheduler`` and its
refill contract) unchanged; both dialects are defined in
:mod:`repro.runtime.source`.

The warm-up schedule exists for exactly that reason: epidemics on
well-connected graphs finish in ``Θ(n log n)`` steps, so the first blocks
stay small and the block size only doubles up to 4096 for the
long-running tail (cycles, renitent constructions).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..runtime.pairs import directed_tables
from ..runtime.source import InteractionSource

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
    batch-width-independent child streams.
    """
    if rng is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0] >> 1)
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 1 << 63))
    return int(rng)


def directed_pairs(graph: Graph):
    """The ``2m`` ordered scheduler pairs as two parallel endpoint tables.

    Re-exported from :func:`repro.runtime.pairs.directed_tables`, the
    single home of the directed pair encoding.
    """
    return directed_tables(graph)


class TrajectoryStream(InteractionSource):
    """One trajectory's private, demand-sized interaction stream."""

    def __init__(self, graph: Graph, rng: RngLike) -> None:
        super().__init__(graph, rng=rng)

    def draws_into(self, out: np.ndarray, count: Optional[int] = None) -> None:
        """Fill a preallocated row with raw ordered-pair indices.

        The undecoded form: the stack decodes a whole ``(R, block)``
        draws matrix with one gather per endpoint table instead of two
        per stream.  ``count`` overrides the draw bound
        (the dynamic-topology stacks pass the active epoch's ``2m_k``);
        the default is the stream graph's own ``2m``.
        """
        self.draw_pair_indices(out, count)

    def next_into(self, initiators: np.ndarray, responders: np.ndarray) -> None:
        """Fill two preallocated arrays with the next ``len`` ordered pairs."""
        self.draw_pairs_into(initiators, responders)


def make_streams(graph: Graph, seeds: Sequence[int]) -> List[TrajectoryStream]:
    """One private stream per trajectory seed."""
    return [TrajectoryStream(graph, np.random.default_rng(int(seed))) for seed in seeds]


def fill_draw_rows(
    streams: Sequence[TrajectoryStream],
    draws: np.ndarray,
    count: Optional[int] = None,
) -> None:
    """Fill row ``j`` of the ``(R, block)`` draws matrix from stream ``j``.

    ``count`` overrides the per-draw bound (active epoch's ``2m_k`` on
    dynamic topologies); ``None`` keeps each stream's own bound.
    """
    for j, stream in enumerate(streams):
        stream.draws_into(draws[j], count)


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
