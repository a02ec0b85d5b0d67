"""Execution plans: compile a run once, execute it anywhere.

An :class:`ExecutionPlan` captures everything needed to execute ``R``
replicas of one ``(protocol, graph, topology schedule)`` workload — the
per-replica scheduler seeds, the resolved mode, the shared compiled
transition tables, the certificate cadence — as one immutable object.
:func:`compile_plan` resolves a ``"reference"`` or ``"shared"`` plan
once, and the executors (:mod:`repro.runtime.execute`) run it as
resolved.  A ``"single"`` plan is resolved again when it executes: one
of several ``compile_key`` groups is compiled afresh group by group, and
each replica of a single group resolves its own table set before its
first draw (see the rules below).

``Simulator.run`` (single runs), ``repro.engine.replicas.run_replicas``
(replica stacks), ``repro.experiments.harness`` (measurements) and
``repro.orchestration.runner`` (sweep units) all call
:func:`compile_plan`; the resolution rules are:

* ``engine="reference"`` — every replica runs the pure-Python
  interpreter (:data:`ExecutionPlan.mode` ``"reference"``).
* ``engine="auto"`` for a protocol with a
  :meth:`~repro.core.protocol.PopulationProtocol.kernel_rule` (the
  identifier protocol while ``k + 4 <= 63``), when the v6 stack can
  serve the plan — homogeneous replicas, no stream override, no trace,
  the v6 kernel built, every seed kernel-seedable — shares that rule (``"shared"``,
  :attr:`ExecutionPlan.compiled` is the rule): the kernel computes the
  transitions, and no table is built.
* ``engine="auto"`` with **homogeneous** replicas (same ``compile_key``,
  no stream override, no trace), at any width including 1, for a
  protocol that :func:`~repro.engine.compiler.compilation_worthwhile`
  accepts — one table set is compiled up front and shared
  (``"shared"``).  A worthwhile protocol enumerates at most the one
  table bound :data:`~repro.engine.compiler.DEFAULT_MAX_STATES` of
  states, and its codes are fixed when its tables are built.
* everything else — per-replica resolution at execution time
  (``"single"``): each replica's table set is resolved before its first
  draw, and a replica whose protocol ``compilation_worthwhile``
  declines runs on the reference interpreter.  A ``"single"`` plan of
  several ``compile_key`` groups is resolved again group by group at
  execution time, so each group can be shared.

A successor or initial state outside a table set's enumeration, met
while the tables are built or during a run, raises
:class:`~repro.engine.compiler.ProtocolCompilationError` on every
executor; no plan falls back from tables it has started to use.

A topology schedule does not change the mode: the v6 stack and the
per-replica engine (one scalar loop per replica) both run ``"shared"``
schedule plans.

The mode fixes *what* is shared, not which executor runs it: the
executor is chosen from the plan's inputs (see
:func:`repro.runtime.execute.execute_plan`).  Plans never change
measured values: for any mode, replica ``i``'s result is bit-identical
to a standalone reference run with seed ``seeds[i]``
(``tests/test_runtime_plan.py`` pins this property across engines,
executors and topology schedules).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..engine import native
from ..graphs.graph import Graph
from .source import kernel_seedable

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.protocol import PopulationProtocol
    from ..dynamics.schedule import TopologySchedule

#: Engine choices accepted by :func:`compile_plan` (and ``Simulator``).
ENGINES = ("reference", "auto")


@dataclass
class ExecutionPlan:
    """A compiled, runnable description of ``R`` replica executions.

    Instances are produced by :func:`compile_plan` and consumed by
    :func:`repro.runtime.execute.execute_plan`; the fields are resolved
    values, not requests (``mode`` instead of a raw engine string,
    ``check_interval`` always concrete, ``compiled`` already built for
    shared plans: a :class:`~repro.engine.compiler.CompiledProtocol`
    table set, or the protocol's kernel rule).
    """

    graph: Graph
    protocols: List["PopulationProtocol"]
    seeds: List[Any]
    max_steps: int
    check_interval: int
    mode: str  # "reference" | "shared" | "single"
    schedule: Optional["TopologySchedule"] = None
    inputs: Optional[Sequence[Any]] = None
    compiled: Optional[Any] = None  # CompiledProtocol or a kernel rule
    scheduler: Optional[Any] = None  # single-replica stream override (replay)
    record_leader_trace: bool = False
    trace_resolution: int = 64
    _initial_states: Optional[List[Any]] = field(default=None, repr=False)

    @property
    def n_replicas(self) -> int:
        return len(self.protocols)

    def initial_states(self) -> List[Any]:
        """The shared initial configuration (built once per plan)."""
        if self._initial_states is None:
            protocol = self.protocols[0]
            n = self.graph.n_nodes
            if self.inputs is None:
                states: List[Any] = [protocol.initial_state(None)] * n
            else:
                if len(self.inputs) != n:
                    raise ValueError("inputs must provide one symbol per node")
                states = [protocol.initial_state(symbol) for symbol in self.inputs]
            self._initial_states = states
        return self._initial_states


def _homogeneous(protocols: Sequence["PopulationProtocol"]) -> bool:
    """Whether all replicas can share one compiled table set."""
    first = protocols[0]
    if all(protocol is first for protocol in protocols):
        return True
    keys = [protocol.compile_key() for protocol in protocols]
    return keys[0] is not None and all(key == keys[0] for key in keys)


def v6_servable(seeds: Sequence[Any]) -> bool:
    """Whether the v6 kernel can run these streams.

    A missing or disabled v6 kernel, or any seed the kernel cannot
    reproduce (a live Generator, or an integer outside ``[0, 2**64)``),
    rules the kernel out.
    """
    if native.get_run_epoch_kernel() is None:
        return False
    return all(map(kernel_seedable, seeds))


def compile_plan(
    protocols: Sequence["PopulationProtocol"],
    graph: Graph,
    seeds: Sequence[Any],
    max_steps: int,
    engine: str = "auto",
    check_interval: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
    inputs: Optional[Sequence[Any]] = None,
    scheduler: Optional[Any] = None,
    record_leader_trace: bool = False,
    trace_resolution: int = 64,
) -> ExecutionPlan:
    """Resolve one workload into an :class:`ExecutionPlan`.

    Parameters mirror :meth:`repro.core.simulator.Simulator.run` (single
    replica) and :func:`repro.engine.run_replicas` (stacks); ``seeds``
    supplies one scheduler seed (or generator) per replica and must match
    ``protocols`` in length.  See the module docstring for the engine
    resolution rules.  ``max_steps`` and ``check_interval`` decide a
    result, so they are taken through :func:`operator.index` (a float
    raises ``TypeError`` rather than being truncated); a negative budget
    or a cadence below 1 raises ``ValueError``.
    """
    protocols = list(protocols)
    seeds = list(seeds)
    max_steps = operator.index(max_steps)
    if not protocols:
        raise ValueError("a plan needs at least one replica")
    if len(seeds) != len(protocols):
        raise ValueError("need exactly one scheduler seed per replica")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if graph.n_nodes < 1:
        raise ValueError("graph must be non-empty")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if schedule is not None:
        if scheduler is not None:
            raise ValueError("pass either schedule or scheduler, not both")
        if schedule.n_nodes != graph.n_nodes:
            raise ValueError(
                f"schedule universe has {schedule.n_nodes} nodes, "
                f"graph has {graph.n_nodes}"
            )
    if scheduler is not None and len(protocols) > 1:
        raise ValueError("a stream override applies to single-replica plans only")

    if check_interval is None:
        from ..core.simulator import default_check_interval

        check_interval = default_check_interval(graph)
    check_interval = operator.index(check_interval)
    if check_interval < 1:
        raise ValueError("check_interval must be positive")

    mode = "single"
    compiled: Any = None
    if engine == "reference":
        mode = "reference"
    elif scheduler is None and not record_leader_trace:
        from ..engine.compiler import compilation_worthwhile, get_compiled

        rule = protocols[0].kernel_rule()
        if rule is not None and _homogeneous(protocols) and v6_servable(seeds):
            # The v6 kernel computes the transitions: no tables to build.
            mode, compiled = "shared", rule
        elif compilation_worthwhile(protocols[0]) and _homogeneous(protocols):
            mode, compiled = "shared", get_compiled(protocols[0])

    return ExecutionPlan(
        graph=graph,
        protocols=protocols,
        seeds=seeds,
        max_steps=max_steps,
        check_interval=check_interval,
        mode=mode,
        schedule=schedule,
        inputs=inputs,
        compiled=compiled,
        scheduler=scheduler,
        record_leader_trace=record_leader_trace,
        trace_resolution=trace_resolution,
    )
