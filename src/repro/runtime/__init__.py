"""Unified execution-plan runtime.

This package is the single seam between *what* an experiment runs —
``(protocol, graph, topology schedule, engine choice, replica seeds)`` —
and *how* it executes.  It grew out of three independently evolved
stacks (the core scheduler, the dynamic-topology scheduler and the
analytics trajectory streams) plus engine-selection logic that was
duplicated across ``Simulator.run``, the multi-replica runner, the
experiment harness and the orchestrator.  The runtime consolidates all
of it into three layers:

* :mod:`repro.runtime.pairs` — the directed ordered-pair index space
  shared by every sampler and kernel: one ``[0, 2m)`` encoding, one set
  of cached endpoint tables, one place that defines how a
  ``(edge, orientation)`` draw maps onto it.
* :mod:`repro.runtime.source` — :class:`InteractionSource`, the one
  buffered sampling engine: ``RandomScheduler`` and ``DynamicScheduler``
  are thin shells over it and the analytics streams drawn in NumPy are
  plain instances of it — same refill-size contract, same
  epoch-boundary capping, one consume loop.  Every seeded stream
  produced before this package existed is reproduced bit for bit.  The
  kernel RNG rows it seeds (:func:`~repro.runtime.source.kernel_rng_rows`)
  are private to C.
* :mod:`repro.runtime.plan` / :mod:`repro.runtime.execute` —
  :class:`ExecutionPlan`, which compiles a run once (engine resolution,
  shared transition tables, per-replica seeds) and then executes it
  through one executor chain, chosen from the plan's inputs: the v6
  epoch stack (plans of any width, including 1, on static graphs and
  topology schedules, with the seeded streams drawn in-kernel; a plan
  of several ``compile_key`` groups runs one stack per group) → the
  per-replica compiled engine, one scalar loop per replica (stream
  overrides, traces, seeds the kernel cannot reproduce, hosts without
  the kernel) → the reference interpreter.

``Simulator.run``, ``repro.engine.run_replicas`` and the experiment
harness are thin wrappers over :func:`compile_plan` +
:func:`execute_plan`; the orchestrator ships serialised unit plans to
its worker shards.  A new executor (threads, GPU, remote shards) is
added here alone — nothing else in the package needs to know.
"""

from .pairs import (
    decode_pairs,
    directed_pair_count,
    directed_tables,
    encode_oriented,
)
from .plan import ExecutionPlan, compile_plan
from .execute import execute_plan
from .source import REFILL_SIZE, InteractionSource

__all__ = [
    "ExecutionPlan",
    "InteractionSource",
    "REFILL_SIZE",
    "compile_plan",
    "decode_pairs",
    "directed_pair_count",
    "directed_tables",
    "encode_oriented",
    "execute_plan",
]
