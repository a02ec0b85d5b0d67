"""The shard-worker pool executor.

:func:`execute_sharded` runs an :class:`~repro.runtime.plan.ExecutionPlan`
on the fork-based shard-worker pool (:mod:`repro.sharding.pool`); it is
the pool's only entry, and the shard and worker counts are its own
arguments, not fields of the plan.  The global seeded stream, the
``min(check_interval, remaining)`` block sizes, the initial and
per-block certificate checks, the unique-leader precheck and all
per-replica bookkeeping (last output change, leader count, distinct-code
mask) mirror :func:`repro.runtime.execute._execute_stack_v6` exactly, so
results are byte-identical to :func:`repro.runtime.execute.execute_plan`
on the same plan — gated for 2 and 4 workers in CI.

Execution follows the *span* schedule
(:meth:`~repro.sharding.source.ShardedInteractionSource.next_spans`): a
routed chunk is an alternation of shard-local stretches and boundary
events, consumed in original draw order against a global ``int64`` code
array.  Interactions on disjoint shard-local state commute, so between
two boundary events every shard's local draws may run on another
process and still produce the byte-identical global result; only the
boundary events themselves are order-critical, and they apply in global
draw order, in this process, always.  The span arrays are split per
owning worker, and the boundary events become pairwise handshakes
inside a per-chunk super-step barrier.

The pool serves a plan only when :func:`sharded_eligible` accepts it;
everything else — one shard and topology schedules included — runs on
:func:`~repro.runtime.execute.execute_plan` (v6 stack → per-replica
engine → reference).  A pool that will not start, or a worker that dies
mid-run, hands the affected replica and every later one to that same
chain; the streams are re-creatable from their seeds, so the results do
not change.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import operator
import time
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from ..runtime.execute import _stack_v6_eligible, execute_plan
from ..runtime.plan import ExecutionPlan
from .partition import MAX_SHARDS, PartitionedGraph
from .pool import ShardPoolError, ShardWorkerPool
from .source import ExchangeQueue, ShardedInteractionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult

_MISSING = object()


def _pool_size(shards: int, workers: int) -> Tuple[int, int]:
    """``(shards, workers)`` as ints; either below 1 raises ``ValueError``."""
    shards, workers = operator.index(shards), operator.index(workers)
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return shards, workers


def _shard_count(plan: ExecutionPlan, shards: int) -> int:
    return min(shards, plan.graph.n_nodes, MAX_SHARDS)


def sharded_eligible(plan: ExecutionPlan, shards: int, workers: int) -> bool:
    """Whether ``workers`` pool processes can serve ``plan`` in ``shards``
    shards (the probe).

    The pool needs at least two shards, a static topology (the pool has
    no epoch logic), a plan the v6 stack would serve (one compiled table
    set, kernel-seedable seeds, the native kernel built — so the
    unsharded chain can take over any replica byte-identically),
    transition tables complete over the enumerated states (the workers
    read forked copies of the tables, so no entry may be filled during a
    run) and a forkable platform.  The workers apply table entries only,
    so a plan on a protocol's kernel rule (the identifier protocol under
    ``engine="auto"``) runs unsharded on the v6 stack.  ``shards`` or
    ``workers`` below 1 raises ``ValueError``.
    """
    shards, workers = _pool_size(shards, workers)
    if plan.schedule is not None or _shard_count(plan, shards) < 2:
        return False
    if plan.graph.n_edges == 0 or not _stack_v6_eligible(plan):
        return False
    from ..engine.compiler import CompiledProtocol

    compiled = plan.compiled
    if not isinstance(compiled, CompiledProtocol) or not compiled.tables_complete:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def execute_sharded(
    plan: ExecutionPlan,
    shards: int,
    workers: int,
    partition: Optional[PartitionedGraph] = None,
) -> List["SimulationResult"]:
    """Run every replica of ``plan`` on ``workers`` pool processes, in
    replica order.

    A plan :func:`sharded_eligible` declines runs on
    :func:`~repro.runtime.execute.execute_plan` instead, with the same
    results.  ``partition`` injects a prebuilt layout of the plan's graph
    (the differential tests pass hash partitions); by default the graph
    is range-partitioned into ``min(shards, n, MAX_SHARDS)`` shards.
    Every replica is timed individually (``wall_time_seconds`` is that
    replica's own measurement, never a smeared share of the plan's).
    """
    shards, workers = _pool_size(shards, workers)
    if not sharded_eligible(plan, shards, workers):
        return execute_plan(plan)
    initial_states = plan.initial_states()
    initial_codes = np.ascontiguousarray(plan.compiled.encode(initial_states), dtype=np.int64)
    initially_stable = plan.protocols[0].is_output_stable_configuration(
        initial_states, plan.graph
    )
    if partition is None:
        partition = PartitionedGraph(plan.graph, _shard_count(plan, shards))
    try:
        pool = ShardWorkerPool(partition, plan.compiled, n_workers=workers)
    except Exception:
        # No pool here (a daemonic parent may not fork, shared memory
        # may be exhausted): the unsharded chain gives the same results.
        return execute_plan(plan)

    results: List["SimulationResult"] = []
    try:
        for index, seed in enumerate(plan.seeds):
            start = time.perf_counter()
            try:
                result = _run_replica(
                    plan, pool, partition, seed, initial_codes, initially_stable
                )
            except ShardPoolError as exc:
                # A worker died mid-super-step (or the pool broke some
                # other way).  Drop the traceback frames first — they pin
                # numpy views of the shared block, which must die for the
                # pool to release its mapping cleanly — then rerun this
                # replica and every later one unsharded.
                err: Optional[BaseException] = exc
                for _ in range(8):
                    if err is None:
                        break
                    err.__traceback__ = None
                    err = err.__context__
                pool.close()
                rest = dataclasses.replace(
                    plan, protocols=plan.protocols[index:], seeds=plan.seeds[index:]
                )
                return results + execute_plan(rest)
            result.wall_time_seconds = time.perf_counter() - start
            results.append(result)
    finally:
        pool.close()
    return results


class _ReplicaState:
    """Mutable per-replica bookkeeping shared with the pool backend."""

    __slots__ = ("leaders", "last_change", "seen")

    def __init__(self, leaders: int, seen: np.ndarray) -> None:
        self.leaders = int(leaders)
        self.last_change = 0
        self.seen = seen


def _run_replica(
    plan: ExecutionPlan,
    pool: ShardWorkerPool,
    partition: PartitionedGraph,
    seed: Any,
    initial_codes: np.ndarray,
    stabilized: bool,
) -> "SimulationResult":
    """One replica: span-scheduled super-steps on the pool, boundary
    events applied in global draw order."""
    from ..core.configuration import Configuration
    from ..core.scheduler import RandomScheduler
    from ..core.simulator import SimulationResult

    graph = plan.graph
    protocol = plan.protocols[0]
    compiled = plan.compiled
    backend = pool.replica_backend(initial_codes)
    routed = ShardedInteractionSource(RandomScheduler(graph, rng=seed), partition)
    exchange = ExchangeQueue(partition.n_shards)
    seen = np.zeros(compiled.stride, dtype=np.uint8)
    seen[np.unique(initial_codes)] = 1
    state = _ReplicaState(compiled.leader_count(initial_codes), seen)

    max_steps = plan.max_steps
    check_interval = plan.check_interval
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    step = 0
    certified_step = 0
    while not stabilized and step < max_steps:
        chunk = min(check_interval, max_steps - step)
        _run_pool_chunk(backend, routed, chunk, step, state, exchange, compiled)
        step += chunk
        # Certificate boundary: the exchange fabric must be globally
        # quiescent, then the same precheck-gated certificate the stack
        # executor runs.
        exchange.assert_quiescent()
        if precheck and state.leaders != 1:
            continue
        decoded = compiled.decode_codes(backend.assemble())
        if protocol.is_output_stable_configuration(decoded, graph):
            stabilized = True
            certified_step = step
    backend.end_replica(state)

    decoded = compiled.decode_codes(backend.assemble())
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=state.last_change,
        steps_executed=step,
        leaders=state.leaders,
        final_configuration=Configuration(decoded, step=step),
        distinct_states_observed=int(state.seen.sum()),
        leader_trace=[],
        wall_time_seconds=0.0,
    )


def _run_pool_chunk(
    backend: Any,
    routed: ShardedInteractionSource,
    size: int,
    base_step: int,
    state: _ReplicaState,
    exchange: ExchangeQueue,
    compiled: Any,
) -> None:
    """One super-step of the worker pool.

    The workers run their shard-local runs ahead on their own programs;
    this loop only drives the boundary handshakes — every boundary
    event is applied *here*, in global draw order, through the exchange
    fabric — plus the per-chunk ``done`` barrier.
    """
    scalar = compiled.scalar
    stride = compiled.stride
    block = backend.begin_chunk(routed, size, base_step)
    for seg in range(block.n_boundary):
        backend.sync_boundary(seg)
        # Boundary event: the one order-critical draw.
        si, sj, gi, gj, a, b = backend.boundary(seg)
        entry = scalar.get(a * stride + b, _MISSING)
        if entry is _MISSING:
            # Complete tables cannot miss; a miss here means the
            # workers' forked table copies are stale.
            raise ShardPoolError("table miss under the worker pool")
        if entry is not None:
            # Hand the responder's half across the shard fabric
            # (synchronous FIFO handshake — delivery order is global
            # draw order by construction).
            exchange.post(si, sj, (gi, gj))
            exchange.deliver(si, sj)
            na, nb, dl, chg = entry
            backend.write_boundary(na, nb)
            state.seen[na] = 1
            state.seen[nb] = 1
            if dl:
                state.leaders += dl
            if chg:
                changed_at = base_step + int(block.boundary_pos[seg]) + 1
                if changed_at > state.last_change:
                    state.last_change = changed_at
        backend.release_boundary(seg)
    backend.finish_chunk(state)

