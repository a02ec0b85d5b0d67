"""Embarrassingly-parallel replicas of one (graph, protocol) pair.

Monte-Carlo experiments run the same protocol on the same graph many times
with different seeds.  :func:`run_replicas` executes R such replicas as
*one* ``engine="auto"`` :class:`~repro.runtime.plan.ExecutionPlan`: the
plan resolves the protocol's transition rule once (its transition
tables, or the identifier protocol's arithmetic kernel rule) and the
runtime executors (:mod:`repro.runtime.execute`) run every replica
against it — through the v6 epoch stack, which advances all replicas
with in-kernel seeded streams, or, where the stack cannot serve the
plan (no v6 kernel, seeds the kernel cannot reproduce), replica by
replica through the per-replica engine's scalar loop.  A protocol that
``auto`` declines to compile runs on the reference interpreter.
Every replica draws from its own independent scheduler stream, so every
path is bit-identical to R separate reference runs with the same
seeds.

Stability certificates are evaluated at the same ``check_interval``
cadence as the reference simulator; in the stack a replica whose
certificate fires drops out (its stream stops being consumed) and the
remaining replicas continue.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.protocol import PopulationProtocol

# The simulator module brings the runtime with it: a first call of
# run_replicas then imports nothing.
from ..core.simulator import SimulationResult
from ..graphs.graph import Graph


def run_replicas(
    protocol: PopulationProtocol,
    graph: Graph,
    seeds: Sequence[Any],
    max_steps: int,
    inputs: Optional[Sequence[Any]] = None,
    check_interval: Optional[int] = None,
) -> List["SimulationResult"]:
    """Run one replica per seed; results match the reference runs exactly.

    Parameters
    ----------
    protocol / graph:
        The protocol and interaction graph shared by all replicas.
    seeds:
        One scheduler seed (or generator) per replica.
    max_steps / inputs / check_interval:
        As in :meth:`repro.core.simulator.Simulator.run`.

    The replicas run on the v6 epoch stack when the kernel is built and
    every seed is an integer in ``[0, 2**64)``, else one by one on the
    per-replica engine, :class:`~repro.engine.stepper.CompiledRun`, or,
    for a protocol ``engine="auto"`` declines to compile, on the
    reference interpreter; all are exact and differ in wall time only.
    The v6 stack runs its replica rows in order on the calling thread.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    seeds = list(seeds)
    if not seeds:
        return []
    from ..runtime import compile_plan, execute_plan

    plan = compile_plan(
        [protocol] * len(seeds),
        graph,
        seeds,
        max_steps=max_steps,
        engine="auto",
        check_interval=check_interval,
        inputs=inputs,
    )
    return execute_plan(plan)
