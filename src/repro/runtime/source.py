"""The unified interaction sampler behind every seeded pair stream.

:class:`InteractionSource` is the single implementation of buffered
ordered-pair sampling in this package.  ``RandomScheduler`` (static
graphs) and ``DynamicScheduler`` (time-varying topologies) are thin
shells over it, and the analytics engine's trajectory streams are plain
instances of it (:mod:`repro.analytics.streams`); before this module
existed each of the three carried its own refill/consume machinery.

Two seeded *dialects* coexist, both defined here and both preserved bit
for bit:

* the **scheduler dialect** (protocol simulations): refills draw
  ``integers(0, m)`` (a uniform edge) followed by ``integers(0, 2)`` (a
  uniform orientation), in that order, with refill size
  ``max(REFILL_SIZE, minimum)`` where ``minimum`` is the draws still
  needed by the current call.  Because certificate-cadence blocks never
  exceed :data:`REFILL_SIZE`, the refill sequence — and hence every
  seeded trajectory — is independent of how consumers chunk their reads.
* the **directed dialect** (analytics streams): demand-sized single
  draws ``integers(0, 2m)`` straight into the directed pair-index space
  (:mod:`repro.runtime.pairs`), via :meth:`draw_pair_indices`.

On a dynamic topology a refill is **capped at the current epoch
boundary**: a pre-sample buffer never crosses an epoch switch, so every
draw is made — and decoded — against the edge table it will be applied
to.  For a single-epoch schedule no cap ever fires and the stream is
bit-identical to the static one on the same seed.

Internally the buffer holds raw directed pair indices; endpoints are
decoded on consumption through the shared tables.  That lets the
sharded engine (:mod:`repro.sharding`) read undecoded indices with
:meth:`next_pair_indices` and resolve them itself, while ``next_batch`` /
``next_arrays`` reproduce the historical decoded streams exactly.

Both dialects also run in C, on kernel RNG rows that
:func:`kernel_rng_rows` seeds from integer seeds: the v6 epoch stack
(:mod:`repro.runtime.execute`) draws the scheduler dialect in its row
block, and the analytics epidemic and influence kernels draw the
directed dialect.  Those rows are private to C: no Python generator is
ever exported into one or restored from one.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..engine.native import RNG_STATE_WORDS, data_address, get_rng_kernels
from ..graphs.graph import NODE_DTYPE, Graph
from ..graphs.random_graphs import RngLike, as_rng
from .pairs import directed_tables, encode_oriented

#: Pre-sample size per RNG refill in the scheduler dialect.  4096 keeps
#: the sampling fully vectorised while wasting little work on short runs
#: (stabilization-bound executions often need only a few thousand
#: interactions).  The refill size is part of the seeded stream
#: definition — changing it changes every seeded trajectory (last
#: changed from 65536 in the engine PR; see CHANGES.md).  This constant
#: is the single source of truth: every scheduler refills by it, and the
#: orchestrator hashes it into scenario content hashes.
REFILL_SIZE = 4096

Interaction = Tuple[int, int]


class InteractionSource:
    """One seeded ordered-pair stream over a static or dynamic topology.

    Parameters
    ----------
    topology:
        A :class:`~repro.graphs.graph.Graph` (sampled forever) or a
        :class:`~repro.dynamics.schedule.TopologySchedule` (sampled from
        the epoch graph active at the current step; duck-typed so this
        module needs no import of :mod:`repro.dynamics`).
    rng:
        Seed or :class:`numpy.random.Generator` for reproducibility.

    Scheduler-dialect refills pre-sample :data:`REFILL_SIZE` pairs.
    """

    def __init__(self, topology, rng: RngLike = None) -> None:
        self._rng = as_rng(rng)
        self._buffer: np.ndarray = np.zeros(0, dtype=np.int64)
        self._cursor = 0
        self._position = 0
        if isinstance(topology, Graph):
            if topology.n_edges == 0:
                raise ValueError("cannot schedule interactions on an edgeless graph")
            self._schedule = None
            self._epoch_graph: Optional[Graph] = topology
            self._epoch_end: Optional[int] = None
            # Decode tables are built on first *decoded* consumption:
            # undecoded readers (the sharded engine, which resolves raw
            # indices against the graph's edge arrays) never
            # materialise the resident 2m endpoint arrays.
            self._du: Optional[np.ndarray] = None
            self._dv: Optional[np.ndarray] = None
            self._edge_count = topology.n_edges
        else:
            self._schedule = topology
            self._epoch_graph = None
            self._epoch_end = 0  # forces epoch activation on the first refill
            self._du = self._dv = np.zeros(0, dtype=NODE_DTYPE)
            self._edge_count = 0

    # ------------------------------------------------------------------
    # Stream state
    # ------------------------------------------------------------------
    @property
    def steps_emitted(self) -> int:
        """Total number of interactions handed out so far."""
        return self._position

    @property
    def pair_count(self) -> int:
        """Size ``2m`` of the active epoch's directed pair-index space."""
        return 2 * self._edge_count

    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The decode tables, built lazily on a static topology."""
        if self._du is None:
            assert self._epoch_graph is not None
            self._du, self._dv = directed_tables(self._epoch_graph)
        return self._du, self._dv

    @property
    def active_graph(self) -> Graph:
        """The graph the *next* interaction will be drawn from."""
        if self._schedule is None or self._cursor < self._buffer.shape[0]:
            assert self._epoch_graph is not None
            return self._epoch_graph
        return self._schedule.graph_at(self._position)

    # ------------------------------------------------------------------
    # Refills (the seeded scheduler dialect, defined exactly once)
    # ------------------------------------------------------------------
    def _activate_epoch(self, position: int) -> None:
        schedule = self._schedule
        assert schedule is not None
        index, _, end = schedule.epoch_at(position)
        graph = schedule.epoch_graph(index)
        self._epoch_graph = graph
        self._epoch_end = end
        self._du, self._dv = directed_tables(graph)
        self._edge_count = graph.n_edges

    def _refill(self, minimum: int) -> None:
        """THE seeded pair draw: uniform edge index, then uniform orientation.

        Refills happen only on an empty buffer, with ``minimum`` = the
        draws still needed by the current call; on a dynamic topology
        the refill is capped at the current epoch boundary.  The two-call
        draw order is part of the seeded-stream definition.
        """
        position = self._position
        if self._epoch_end is not None and position >= self._epoch_end:
            self._activate_epoch(position)
        size = max(REFILL_SIZE, minimum)
        if self._epoch_end is not None:
            size = min(size, self._epoch_end - position)
        edge_indices = self._rng.integers(0, self._edge_count, size=size)
        orientations = self._rng.integers(0, 2, size=size)
        self._buffer = encode_oriented(edge_indices, orientations, self._edge_count)
        self._cursor = 0

    def _consume(self, size: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(indices, du, dv)`` chunks totalling ``size`` draws.

        The decode tables are captured per chunk because a refill at a
        chunk boundary may swap epochs on a dynamic topology.
        """
        if size < 0:
            raise ValueError("batch size must be non-negative")
        remaining = size
        while remaining > 0:
            available = self._buffer.shape[0] - self._cursor
            if available == 0:
                self._refill(remaining)
                available = self._buffer.shape[0]
            take = min(available, remaining)
            chunk = self._buffer[self._cursor : self._cursor + take]
            self._cursor += take
            self._position += take
            remaining -= take
            du, dv = self._tables()
            yield chunk, du, dv

    # ------------------------------------------------------------------
    # Consumption (shared by every scheduler shell)
    # ------------------------------------------------------------------
    def next_interaction(self) -> Interaction:
        """The next ordered (initiator, responder) pair."""
        if self._cursor >= self._buffer.shape[0]:
            self._refill(1)
        index = self._buffer[self._cursor]
        self._cursor += 1
        self._position += 1
        du, dv = self._tables()
        return (int(du[index]), int(dv[index]))

    def next_batch(self, size: int) -> List[Interaction]:
        """The next ``size`` ordered pairs, in order, as Python tuples."""
        result: List[Interaction] = []
        for chunk, du, dv in self._consume(size):
            result.extend(zip(du.take(chunk).tolist(), dv.take(chunk).tolist()))
        return result

    def next_arrays(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`next_batch` but returns numpy arrays (hot loops),
        ``int32`` like the graph's node ids."""
        initiators = np.empty(size, dtype=NODE_DTYPE)
        responders = np.empty(size, dtype=NODE_DTYPE)
        filled = 0
        for chunk, du, dv in self._consume(size):
            take = chunk.shape[0]
            np.take(du, chunk, out=initiators[filled : filled + take])
            np.take(dv, chunk, out=responders[filled : filled + take])
            filled += take
        return initiators, responders

    def next_pair_indices(self, size: int) -> np.ndarray:
        """The next ``size`` draws as raw directed pair indices.

        Same stream, undecoded: kernels that hold the directed endpoint
        tables decode these themselves, saving two Python-level gathers
        per block.  Only meaningful while the tables are constant, i.e. on
        a static topology.
        """
        if size < 0:
            raise ValueError("batch size must be non-negative")
        out = np.empty(size, dtype=np.int64)
        buffer = self._buffer
        cursor = self._cursor
        filled = 0
        while filled < size:
            available = buffer.shape[0] - cursor
            if available == 0:
                self._refill(size - filled)
                buffer = self._buffer
                cursor = self._cursor
                available = buffer.shape[0]
            take = min(available, size - filled)
            out[filled : filled + take] = buffer[cursor : cursor + take]
            cursor += take
            filled += take
            self._position += take
        self._cursor = cursor
        return out

    # ------------------------------------------------------------------
    # The directed dialect (analytics trajectory streams)
    # ------------------------------------------------------------------
    def draw_pair_indices(self, out: np.ndarray, bound: Optional[int] = None) -> None:
        """Demand-sized draw straight into the directed pair-index space.

        One bounded-integers call over ``[0, bound)`` — the analytics
        engine's seeded-stream definition (block sizes are chosen by the
        caller's lockstep schedule, not by the refill contract).
        ``bound`` overrides the draw bound (dynamic stacks pass the
        active epoch's ``2m_k``); the default is the source's own
        ``2m``.
        """
        limit = self.pair_count if bound is None else int(bound)
        out[...] = self._rng.integers(0, limit, size=out.shape[0])


# ----------------------------------------------------------------------
# Kernel-resident streams (the v6 dialect)
# ----------------------------------------------------------------------
def kernel_seedable(seed) -> bool:
    """Whether ``seed`` can seed an in-kernel stream.

    The kernel reimplements ``SeedSequence`` for non-negative integers
    below ``2**64`` (at most two 32-bit entropy words) — exactly the
    range the package's own :func:`repro.core.seeds.derive_seed`
    produces.  Generators and wider seeds stay on the NumPy paths.
    """
    return isinstance(seed, (int, np.integer)) and 0 <= int(seed) < (1 << 64)


def kernel_rng_rows(seeds) -> Optional[np.ndarray]:
    """One kernel RNG state row per seed, seeded in C, or ``None``.

    Row ``r`` holds the state of ``np.random.default_rng(seeds[r])``
    (``repro_pcg64_init``: one call, no Python generator).  ``None`` when
    the kernel is not built or a seed is not :func:`kernel_seedable`.
    A ``uint64`` array is taken as it is: every word is seedable.
    """
    kernels = get_rng_kernels()
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if kernels is None:
            return None
        words = np.ascontiguousarray(seeds)
    else:
        if kernels is None or not all(map(kernel_seedable, seeds)):
            return None
        words = np.array([int(seed) for seed in seeds], dtype=np.uint64)
    rows = np.zeros((words.size, RNG_STATE_WORDS), dtype=np.uint64)
    kernels["pcg64_init"](data_address(words), words.size, data_address(rows))
    return rows

