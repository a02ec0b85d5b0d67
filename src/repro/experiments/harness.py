"""Experiment harness: repeated measurements, sweep results and scaling fits.

This is the layer the benchmarks and the CLI are built on.  It knows how to

* instantiate each of the paper's protocols for a given graph (the fast
  protocol needs a broadcast-time estimate, the identifier protocol needs
  ``n``),
* run repeated leader-election measurements on one graph and aggregate
  them,
* hold a protocol's measurements across population sizes
  (:class:`SweepResult`) and fit the measured stabilization times to a
  power law for comparison against Table 1.

Size sweeps run through :func:`repro.orchestration.run_scenario`, which
derives every size's graph seed, measurement seed and step budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

from ..analysis.estimators import SummaryStatistics, summarize_samples
from ..analysis.scaling import PowerLawFit, fit_power_law
from ..core.protocol import PopulationProtocol
from ..core.seeds import trial_seeds
from ..core.simulator import SimulationResult, default_max_steps
from ..graphs.graph import Graph
from ..propagation.broadcast import broadcast_time_estimate
from ..protocols.fast import FastLeaderElection
from ..protocols.identifier import IdentifierLeaderElection
from ..protocols.star import StarLeaderElection
from ..protocols.tokens import TokenLeaderElection

ProtocolFactory = Callable[[Graph, Optional[int]], PopulationProtocol]
ProtocolBatchFactory = Callable[
    [Graph, Sequence[Optional[int]]], List[PopulationProtocol]
]


@dataclass(frozen=True)
class ProtocolSpec:
    """A named way of instantiating a protocol for a graph.

    ``spec_config`` is the declarative form of the spec — the builder name
    plus the keyword arguments that produced it.  The orchestrator
    (:mod:`repro.orchestration`) ships this plain data to worker processes
    and hashes it into scenario cache keys; specs constructed from a raw
    factory (``spec_config=None``) cannot be orchestrated, so they can be
    measured on one graph (:func:`measure_protocol_on_graph`) but not
    swept over sizes.

    ``batch_factory``, when present, instantiates one protocol per trial
    seed in a single call and MUST produce, for each seed, exactly the
    protocol ``factory`` would produce for that seed alone.  The fast
    protocol uses it to run all trials' ``B(G)`` epidemics in one
    replica-batched stack (:mod:`repro.analytics`); the per-seed purity
    requirement is what keeps orchestrator shards bit-identical to the
    serial path.
    """

    name: str
    factory: ProtocolFactory
    paper_bound: str = ""
    spec_config: Optional[tuple] = None
    batch_factory: Optional[ProtocolBatchFactory] = None


def token_protocol_spec() -> ProtocolSpec:
    """Theorem 16: the 6-state token protocol."""
    return ProtocolSpec(
        name="token-6state",
        factory=lambda graph, seed: TokenLeaderElection(),
        paper_bound="O(H(G) n log n) steps, O(1) states",
        spec_config=("token", ()),
    )


def identifier_protocol_spec(identifier_bits: Optional[int] = None) -> ProtocolSpec:
    """Theorem 21: the identifier-broadcast protocol."""

    def factory(graph: Graph, seed: Optional[int]) -> PopulationProtocol:
        return IdentifierLeaderElection(
            graph.n_nodes,
            identifier_bits=identifier_bits,
            regular=graph.is_regular(),
        )

    return ProtocolSpec(
        name="identifier-broadcast",
        factory=factory,
        paper_bound="O(B(G) + n log n) steps, O(n^4) states",
        spec_config=("identifier", (("identifier_bits", identifier_bits),)),
    )


def fast_protocol_spec(
    tau: float = 0.5,
    h_offset: int = 1,
    alpha: float = 3.0,
    broadcast_repetitions: int = 4,
) -> ProtocolSpec:
    """Theorem 24: the fast space-efficient protocol.

    Uses simulation-scale constants by default (see
    :class:`~repro.protocols.clocks.ClockParameters`); pass ``h_offset=8``
    and ``tau>=1`` for the paper's parameterisation.
    """

    def build(graph: Graph, broadcast_time: float) -> PopulationProtocol:
        return FastLeaderElection.for_graph(
            graph,
            broadcast_time=max(broadcast_time, 1.0),
            tau=tau,
            h_offset=h_offset,
            alpha=alpha,
        )

    def factory(graph: Graph, seed: Optional[int]) -> PopulationProtocol:
        estimate = broadcast_time_estimate(
            graph,
            repetitions=broadcast_repetitions,
            max_sources=6,
            rng=seed,
        )
        return build(graph, estimate.value)

    def batch_factory(
        graph: Graph, seeds: Sequence[Optional[int]]
    ) -> List[PopulationProtocol]:
        # One replica stack for every trial's sources × repetitions
        # epidemics.  Each trial's estimate is a pure function of its own
        # seed (trajectory seeds derive from it), so entry i is
        # bit-identical to factory(graph, seeds[i]).
        if graph.n_nodes == 1:
            return [build(graph, 0.0) for _ in seeds]
        from ..analytics.estimators import batched_broadcast_estimates
        from ..analytics.streams import resolve_base_seed
        from ..propagation.broadcast import default_broadcast_budget

        bases = [resolve_base_seed(seed) for seed in seeds]
        estimates = batched_broadcast_estimates(
            graph,
            bases,
            repetitions=broadcast_repetitions,
            max_sources=6,
            max_steps=default_broadcast_budget(graph),
        )
        return [build(graph, value) for value, _, _, _ in estimates]

    return ProtocolSpec(
        name="fast-space-efficient",
        factory=factory,
        paper_bound="O(B(G) log n) steps, O(log^2 n) states",
        spec_config=(
            "fast",
            (
                ("alpha", alpha),
                ("broadcast_repetitions", broadcast_repetitions),
                ("h_offset", h_offset),
                ("tau", tau),
            ),
        ),
        batch_factory=batch_factory,
    )


def star_protocol_spec() -> ProtocolSpec:
    """The trivial constant-state protocol for stars (Table 1, last row)."""
    return ProtocolSpec(
        name="star-trivial",
        factory=lambda graph, seed: StarLeaderElection(),
        paper_bound="O(1) steps, O(1) states (stars only)",
        spec_config=("star", ()),
    )


def default_protocol_specs() -> List[ProtocolSpec]:
    """The three protocols compared throughout Table 1."""
    return [token_protocol_spec(), identifier_protocol_spec(), fast_protocol_spec()]


@dataclass
class Measurement:
    """Aggregated repeated runs of one protocol on one graph."""

    protocol_name: str
    graph_name: str
    n_nodes: int
    n_edges: int
    stabilization_steps: SummaryStatistics
    certified_steps: SummaryStatistics
    success_rate: float
    max_states_observed: int
    state_space_size: Optional[int]
    results: List[SimulationResult] = field(default_factory=list)
    #: Total wall-clock seconds spent executing the trials (sum of the
    #: per-trial ``wall_time_seconds``; replicas run in a batched stack
    #: report the stack's wall time split evenly).  Provenance, not a
    #: measured value — excluded from canonical scenario aggregates.
    wall_time_seconds: float = 0.0

    def as_dict(self) -> dict:
        """Flat dictionary used by the report renderer."""
        return {
            "protocol": self.protocol_name,
            "graph": self.graph_name,
            "n": self.n_nodes,
            "m": self.n_edges,
            "mean_steps": self.stabilization_steps.mean,
            "q90_steps": self.stabilization_steps.q90,
            "success_rate": self.success_rate,
            "states_observed": self.max_states_observed,
            "state_space_size": self.state_space_size,
            "wall_time_seconds": self.wall_time_seconds,
        }


#: JSON-native per-trial record, the unit the orchestrator's result store
#: persists.  Aggregating these in global trial order reproduces the
#: in-process :class:`Measurement` bit for bit.
TrialRecord = dict


def trial_record_from_result(result: SimulationResult) -> TrialRecord:
    """Reduce one :class:`SimulationResult` to its JSON-native record.

    ``wall_time_seconds`` (added in result schema v3) is provenance: it
    is persisted per trial and surfaced through
    :attr:`Measurement.wall_time_seconds`, but never enters canonical
    scenario aggregates, which must stay byte-identical across execution
    plans.
    """
    return {
        "stabilization_step": int(result.stabilization_step),
        "certified_step": int(result.certified_step),
        "steps_executed": int(result.steps_executed),
        "stabilized": bool(result.stabilized),
        "leaders": int(result.leaders),
        "distinct_states": int(result.distinct_states_observed),
        "wall_time_seconds": float(result.wall_time_seconds),
    }


TRIAL_RECORD_FIELDS = (
    "stabilization_step",
    "certified_step",
    "steps_executed",
    "stabilized",
    "leaders",
    "distinct_states",
    "wall_time_seconds",
)


def measurement_from_records(
    protocol_name: str,
    graph: Graph,
    records: Sequence[TrialRecord],
    state_space_size: Optional[int],
    results: Optional[List[SimulationResult]] = None,
) -> Measurement:
    """Aggregate per-trial records (in global trial order) into a measurement."""
    if not records:
        raise ValueError("need at least one trial record")
    stabilization = [float(max(r["stabilization_step"], 1)) for r in records]
    certified = [float(max(r["certified_step"], 1)) for r in records]
    successes = sum(int(r["stabilized"] and r["leaders"] == 1) for r in records)
    wall = sum(float(r.get("wall_time_seconds", 0.0)) for r in records)
    return Measurement(
        protocol_name=protocol_name,
        graph_name=graph.name,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        stabilization_steps=summarize_samples(stabilization),
        certified_steps=summarize_samples(certified),
        success_rate=successes / len(records),
        max_states_observed=max(r["distinct_states"] for r in records),
        state_space_size=state_space_size,
        results=list(results) if results is not None else [],
        wall_time_seconds=wall,
    )


def run_measurement_trials(
    spec: ProtocolSpec,
    graph: Graph,
    trial_indices: Sequence[int],
    seed: int = 0,
    max_steps: Optional[int] = None,
    engine: str = "auto",
    schedule: Optional["TopologySchedule"] = None,
) -> Tuple[List[SimulationResult], Optional[int]]:
    """Execute an arbitrary subset of a measurement's trials.

    Trial ``t`` receives the scheduler seed ``trial_seed(seed, t)`` — a
    pure function of the measurement base seed and the *global* trial
    index (see :mod:`repro.core.seeds`), so any partition of the index set
    (batches, shards, worker processes) reproduces exactly the trials a
    serial full run would execute.  With a ``schedule`` every trial runs
    on the time-varying topology (the same schedule object across trials;
    trial seeds only drive the interaction sampling, so shard invariance
    is untouched).

    Returns the per-trial results plus the protocol's declared state-space
    size (the second half of a :class:`Measurement`; the orchestrator
    persists it alongside the trial records).
    """
    run_seeds = trial_seeds(seed, trial_indices)
    return run_protocol_trials(
        build_trial_protocols(spec, graph, run_seeds),
        graph,
        run_seeds,
        max_steps=max_steps,
        engine=engine,
        schedule=schedule,
    )


def build_trial_protocols(
    spec: ProtocolSpec, graph: Graph, run_seeds: Sequence[int]
) -> List[PopulationProtocol]:
    """One protocol instance per trial seed, built in one call where possible.

    With more than one seed a spec's ``batch_factory`` builds them all at
    once (the fast protocol runs every trial's ``B(G)`` epidemics in one
    replica stack); otherwise ``factory`` runs once per seed.  Entry
    ``i`` is the protocol ``spec.factory(graph, run_seeds[i])`` builds, so
    how seeds are grouped into calls never changes a result.  The
    orchestrator builds a whole sweep cell's protocols in one call and
    runs each unit's share through :func:`run_protocol_trials`.
    """
    run_seeds = list(run_seeds)
    if spec.batch_factory is not None and len(run_seeds) > 1:
        return spec.batch_factory(graph, run_seeds)
    return [spec.factory(graph, run_seed) for run_seed in run_seeds]


def run_protocol_trials(
    protocols: Sequence[PopulationProtocol],
    graph: Graph,
    run_seeds: Sequence[int],
    max_steps: Optional[int] = None,
    engine: str = "auto",
    schedule: Optional["TopologySchedule"] = None,
) -> Tuple[List[SimulationResult], Optional[int]]:
    """Execute trials whose protocols are already built, one per seed.

    Execution goes through a single :class:`~repro.runtime.plan.ExecutionPlan`:
    one engine resolution, one shared table set, and by default the
    replica-batched stack that advances every trial in lockstep blocks,
    on static and dynamic topologies alike (trials whose protocol
    instances differ in ``compile_key`` run as one stack per key; the
    reference engine runs trial by trial).  Results are bit-identical for
    every execution strategy.  Returns the results and the first
    protocol's declared state-space size.
    """
    protocols = list(protocols)
    if not protocols:
        return [], None
    from ..runtime import compile_plan, execute_plan

    budget = max_steps if max_steps is not None else default_max_steps(graph.n_nodes)
    plan = compile_plan(
        protocols,
        graph,
        run_seeds,
        max_steps=budget,
        engine=engine,
        schedule=schedule,
    )
    return execute_plan(plan), protocols[0].state_space_size()


def measure_protocol_on_graph(
    spec: ProtocolSpec,
    graph: Graph,
    repetitions: int = 5,
    seed: int = 0,
    max_steps: Optional[int] = None,
    keep_results: bool = False,
    engine: str = "auto",
    schedule: Optional["TopologySchedule"] = None,
) -> Measurement:
    """Run ``spec`` on ``graph`` ``repetitions`` times and aggregate.

    ``engine`` selects the execution engine (see
    :class:`~repro.core.simulator.Simulator`); results are identical across
    engines for a given ``seed``.  The repetitions execute as one
    :class:`~repro.runtime.plan.ExecutionPlan`: with a non-reference
    engine, trials whose protocol instances share a transition table
    (equal ``compile_key``) advance together through the replica-batched
    stack (:mod:`repro.runtime.execute`), reusing one compiled table set
    across all trials.

    Trial ``t`` runs with seed ``trial_seed(seed, t)``, a pure function of
    the base seed and the global trial index — independent of batch size
    and of how the orchestrator shards the trials (see
    :mod:`repro.core.seeds`).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    results, state_space = run_measurement_trials(
        spec,
        graph,
        range(repetitions),
        seed=seed,
        max_steps=max_steps,
        engine=engine,
        schedule=schedule,
    )
    return measurement_from_records(
        spec.name,
        graph,
        [trial_record_from_result(result) for result in results],
        state_space,
        results=results if keep_results else None,
    )


class DegenerateSweepError(ValueError):
    """The sweep grid cannot support a scaling fit (see :meth:`SweepResult.fit`)."""


@dataclass
class SweepResult:
    """A protocol measured across a sweep of population sizes."""

    protocol_name: str
    workload_name: str
    sizes: List[int]
    measurements: List[Measurement]

    def mean_steps(self) -> List[float]:
        """Mean stabilization steps per size."""
        return [m.stabilization_steps.mean for m in self.measurements]

    def fit(self, log_exponent: Optional[float] = 0.0) -> PowerLawFit:
        """Power-law fit of mean stabilization steps vs the actual graph sizes.

        Raises :class:`DegenerateSweepError` when the grid cannot support a
        fit — fewer than two *distinct* actual sizes (workload rounding can
        collapse nominally different sizes, e.g. hypercubes), or a
        non-positive / non-finite mean (a size whose every trial exhausted
        the budget at step 0).  Without the guard these cases surface as a
        numpy ``lstsq`` warning and a garbage exponent.
        """
        actual_sizes = [m.n_nodes for m in self.measurements]
        means = self.mean_steps()
        if len(set(actual_sizes)) < 2:
            raise DegenerateSweepError(
                f"{self.protocol_name} on {self.workload_name}: scaling fit needs at "
                f"least two distinct graph sizes, got {sorted(set(actual_sizes))} "
                f"(requested grid {self.sizes})"
            )
        bad = [
            (size, mean)
            for size, mean in zip(actual_sizes, means)
            if not math.isfinite(mean) or mean <= 0.0
        ]
        if bad:
            raise DegenerateSweepError(
                f"{self.protocol_name} on {self.workload_name}: scaling fit needs "
                f"positive finite mean steps at every size; offending (size, mean) "
                f"pairs: {bad}"
            )
        return fit_power_law(actual_sizes, means, log_exponent=log_exponent)


def compare_protocols_on_graph(
    specs: Sequence[ProtocolSpec],
    graph: Graph,
    repetitions: int = 3,
    seed: int = 0,
    max_steps: Optional[int] = None,
    engine: str = "auto",
) -> Dict[str, Measurement]:
    """Measure several protocols on the same graph (the per-row comparison)."""
    return {
        spec.name: measure_protocol_on_graph(
            spec,
            graph,
            repetitions=repetitions,
            seed=seed,
            max_steps=max_steps,
            engine=engine,
        )
        for spec in specs
    }


def default_step_budget(graph: Graph, multiplier: float = 60.0) -> int:
    """A step budget safely above the constant-state protocol's bound.

    ``multiplier · n^2 · log n`` covers ``O(H(G)·n log n)`` on the benchmark
    families at benchmark sizes (regular and dense graphs have
    ``H(G) ∈ O(n^2)`` / ``O(n)``); pathological families (lollipops) are
    given more room by the caller.
    """
    n = graph.n_nodes
    return int(multiplier * n * n * max(math.log(max(n, 2)), 1.0)) + 10_000
