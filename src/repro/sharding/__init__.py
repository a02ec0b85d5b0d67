"""Sharded graph engine: the fork-based shard-worker pool.

The package partitions a topology's nodes across shards
(:class:`PartitionedGraph`), resolves the global seeded ``[0, 2m)`` pair
stream to global endpoints annotated with their owning shards
(:class:`ShardedInteractionSource`), and runs a plan on a persistent
fork-based :class:`ShardWorkerPool` (:func:`execute_sharded`).  Execution
follows the *span* schedule (:class:`SpanBlock`): every routed chunk is
split per owning worker into shard-local runs, executed as native-kernel
calls against a shared global code array, while the boundary events —
the only order-critical draws — apply in the parent in global draw order
through explicit exchange queues (:class:`ExchangeQueue`).

The package's one entry is ``execute_sharded(plan, shards, workers)``;
the runtime never routes a plan here, and no scenario, CLI flag or
service frame reaches it.  The pool serves a plan only when
:func:`sharded_eligible` accepts it (at least two shards, complete
tables, a built kernel, fork); every other plan runs on
:func:`repro.runtime.execute.execute_plan`.  ``shards`` or ``workers``
below 1 raises ``ValueError``.  The determinism contract (gated by
``tests/test_sharding.py``): a pool run is byte-identical to
``execute_plan`` on the same plan for any seed, shard count and worker
count.  Neither count ever changes what is measured.
"""

from .executor import execute_sharded, sharded_eligible
from .partition import PARTITION_MODES, PartitionedGraph
from .pool import ShardPoolError, ShardWorkerPool
from .source import ExchangeQueue, ShardedInteractionSource, SpanBlock

__all__ = [
    "PARTITION_MODES",
    "PartitionedGraph",
    "ExchangeQueue",
    "ShardedInteractionSource",
    "SpanBlock",
    "ShardPoolError",
    "ShardWorkerPool",
    "execute_sharded",
    "sharded_eligible",
]
