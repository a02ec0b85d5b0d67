"""Execution engine facade for population protocols on graphs.

The simulator drives a protocol with a scheduler (Section 2.2): it applies
the transition function to the sampled (initiator, responder) pairs, keeps
track of when node outputs last changed, and periodically evaluates the
protocol's stability certificate.  The *stabilization time* reported in the
paper is the minimum step ``t`` such that the configuration after ``t``
interactions is stable and correct; the simulator reports

* ``last_output_change_step`` — the last interaction at which any node's
  output changed.  For the leader-election protocols in this package the
  configuration cannot be stable before this step, and it is the primary
  measurement used by the benchmark harness, and
* ``certified_step`` — the (interval-aligned) step at which the protocol's
  stability certificate first held, an upper bound on stabilization time.

The gap between the two is at most one checking interval plus the slack of
the certificate; the tests cross-validate both against an exhaustive
reachability check on small instances.

Since the runtime refactor, :class:`Simulator` is a thin facade: ``run``
compiles a single-replica :class:`~repro.runtime.plan.ExecutionPlan`
under the engine the simulator was constructed with (``"auto"``, the
default, or ``"reference"``; no run overrides it) and hands it to the
runtime executors (:mod:`repro.runtime.execute`), which own both the
reference interpreter and the compiled block loops.  Engine selection, streams and
certificate cadence are therefore resolved in exactly one place for
single runs, replica stacks, harness measurements and orchestrated
sweeps alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike
from ..runtime.plan import ENGINES
from .configuration import Configuration
from .protocol import PopulationProtocol
from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule


@dataclass
class SimulationResult:
    """Outcome of a single protocol execution.

    Attributes
    ----------
    stabilized:
        Whether the stability certificate held before the step budget ran
        out.
    certified_step:
        Step at which the certificate first held (interval resolution), or
        the total steps executed when not stabilized.
    last_output_change_step:
        Last step at which some node's output changed (0 if never).
    steps_executed:
        Total interactions simulated.
    leaders:
        Number of leaders in the final configuration.
    final_configuration:
        The final :class:`Configuration`.
    distinct_states_observed:
        Number of distinct states seen over the whole execution — the
        empirical space complexity.
    leader_trace:
        Optional ``(step, leader_count)`` checkpoints.
    wall_time_seconds:
        Wall-clock duration of the run.  Replicas executed in a batched
        stack report the stack's wall time divided evenly across its
        replicas; the shard-worker pool
        (:func:`repro.sharding.execute_sharded`) times each replica
        individually.
    """

    stabilized: bool
    certified_step: int
    last_output_change_step: int
    steps_executed: int
    leaders: int
    final_configuration: Configuration
    distinct_states_observed: int
    leader_trace: List[Tuple[int, int]] = field(default_factory=list)
    wall_time_seconds: float = 0.0

    @property
    def stabilization_step(self) -> int:
        """Best estimate of the stabilization time (see module docstring)."""
        if not self.stabilized:
            return self.steps_executed
        return max(self.last_output_change_step, 0)


def default_check_interval(graph: Graph) -> int:
    """Default certificate-checking cadence: ``max(1, m // 4)``, ≤ 4096.

    Shared by the reference interpreter, the compiled engine and the
    multi-replica runner — all three must use the same cadence (and hence
    the same scheduler batch sizes) for their results to stay
    bit-identical.
    """
    return min(max(1, graph.n_edges // 4), 4096)


class Simulator:
    """Runs population protocols on a graph.

    Parameters
    ----------
    graph:
        The interaction graph.
    protocol:
        The protocol to execute.
    rng:
        Seed or generator for the stochastic scheduler.
    engine:
        The execution engine of every :meth:`run`:

        * ``"auto"`` (the default, as in :func:`repro.runtime.compile_plan`
          and every layer above it) — compiled where the protocol allows
          it, reference otherwise, with bit-identical results.  The
          identifier protocol runs on the v6 kernel's arithmetic rule, other
          protocols on transition tables of at most
          :data:`repro.engine.compiler.DEFAULT_MAX_STATES` states;
        * ``"reference"`` — the pure-Python interpreter (the semantic
          reference; see :mod:`repro.runtime.execute`).

        A compiled run takes the v6 epoch stack where it can serve the
        run, else the per-replica engine
        (:class:`repro.engine.stepper.CompiledRun`); the run's inputs
        decide which (see :mod:`repro.runtime.execute`).
    """

    def __init__(
        self,
        graph: Graph,
        protocol: PopulationProtocol,
        rng: RngLike = None,
        engine: str = "auto",
    ) -> None:
        if graph.n_nodes < 1:
            raise ValueError("graph must be non-empty")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.graph = graph
        self.protocol = protocol
        self.engine = engine
        self._rng = rng

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(
        self,
        max_steps: int,
        inputs: Optional[Sequence[Any]] = None,
        check_interval: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        record_leader_trace: bool = False,
        trace_resolution: int = 64,
        schedule: Optional["TopologySchedule"] = None,
    ) -> SimulationResult:
        """Execute until the stability certificate holds or ``max_steps``.

        Parameters
        ----------
        max_steps:
            Hard budget on the number of interactions.
        inputs:
            Optional per-node input symbols (defaults to the uniform
            ``None`` input of stable leader election).
        check_interval:
            How often (in steps) to evaluate the stability certificate.
            Defaults to ``max(1, m // 4)``, clamped to at most 4096.
        scheduler:
            Override the default stream, the one :class:`RandomScheduler`
            draws (used by replay and lower-bound experiments).
        record_leader_trace:
            If true, record ``(step, leader_count)`` checkpoints.
        trace_resolution:
            Approximate number of trace checkpoints to record.
        schedule:
            Optional :class:`~repro.dynamics.schedule.TopologySchedule`:
            interactions are sampled from the epoch graph active at the
            current step (the stream of
            :class:`~repro.dynamics.scheduler.DynamicScheduler`) and the
            stability certificate is evaluated against the
            schedule's union graph, which keeps certification sound under
            topology change.  A single-epoch schedule reproduces the
            equivalent static run bit for bit.  Mutually exclusive with
            ``scheduler``.
        """
        from ..runtime import compile_plan, execute_plan

        plan = compile_plan(
            [self.protocol],
            self.graph,
            [self._rng],
            max_steps=max_steps,
            engine=self.engine,
            check_interval=check_interval,
            schedule=schedule,
            inputs=inputs,
            scheduler=scheduler,
            record_leader_trace=record_leader_trace,
            trace_resolution=trace_resolution,
        )
        return execute_plan(plan)[0]

    def run_fixed_schedule(
        self,
        interactions: Iterable[Tuple[int, int]],
        inputs: Optional[Sequence[Any]] = None,
    ) -> SimulationResult:
        """Execute a specific interaction sequence (deterministic replay)."""
        from .scheduler import SequenceScheduler

        scheduler = SequenceScheduler(self.graph, interactions)
        steps = scheduler.remaining
        return self.run(
            max_steps=steps,
            inputs=inputs,
            check_interval=max(steps, 1),
            scheduler=scheduler,
        )


def default_max_steps(n_nodes: int) -> int:
    """The generous default step budget used by :func:`run_leader_election`.

    ``50 · n² · max(log2 n, 1) + 10^4`` covers the constant-state
    protocol's ``O(H(G) n log n)`` bound on the benchmark graph sizes.
    """
    import math

    n = n_nodes
    return int(50 * n * n * max(math.log2(max(n, 2)), 1.0)) + 10_000


def run_leader_election(
    protocol: PopulationProtocol,
    graph: Graph,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    inputs: Optional[Sequence[Any]] = None,
    check_interval: Optional[int] = None,
    record_leader_trace: bool = False,
    engine: str = "auto",
    schedule: Optional["TopologySchedule"] = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``protocol`` on ``graph`` until stable.

    ``max_steps`` defaults to a generous ``50 * n^2 * max(log2 n, 1) + 10^4``
    budget, which covers the constant-state protocol's ``O(H(G) n log n)``
    bound on the benchmark graph sizes.  ``engine`` selects the execution
    engine (see :class:`Simulator`); results are identical across engines
    for the same ``rng`` seed.  ``schedule`` runs the election on a
    time-varying topology (see :meth:`Simulator.run`); ``graph`` then
    names the node universe and the defaults (step budget, certificate
    cadence) are derived from it.
    """
    if max_steps is None:
        max_steps = default_max_steps(graph.n_nodes)
    simulator = Simulator(graph, protocol, rng=rng, engine=engine)
    return simulator.run(
        max_steps=max_steps,
        inputs=inputs,
        check_interval=check_interval,
        record_leader_trace=record_leader_trace,
        schedule=schedule,
    )
