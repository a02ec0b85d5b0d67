"""Sharded scenario execution: serial, parallel and cached.

The runner decomposes a :class:`~repro.orchestration.scenario.Scenario`
into **work units** — one unit covers ``trials_per_shard`` consecutive
trials of one (protocol, size) cell — compiles each pending unit into a
self-contained :class:`UnitPlan` (workload + graph seed, declarative
protocol and schedule configs, engine choice and the explicit per-trial
scheduler seeds), and executes the plans the result store cannot serve,
either in-process or fanned out over a ``multiprocessing`` pool.  All
seed derivation happens once, in the parent, when the plans are built;
workers execute what they are shipped instead of re-deriving
spec/engine/schedule per unit, and the actual trial execution goes
through the same :mod:`repro.runtime` plans as direct harness calls.

An in-process run prepares each **cell** once for all of its pending
units (:func:`prepare_cell`: graph, spec, schedule and every pending
trial's protocol, the fast protocol's ``B(G)`` calibration as one
stack), then executes and stores the units one by one; a pool or
service worker prepares the one unit it is sent.

Bit-identity is the design invariant.  Trial ``t`` of cell ``(p, i)``
always runs with scheduler seed ``trial_seed(measure_seed(seed, i), t)``
and a graph built from ``graph_seed(seed, i)`` (see
:mod:`repro.core.seeds`); a unit plan is a pure function of (scenario
config, unit bounds).  Shard boundaries, worker counts and cache state
therefore change *where* a trial executes, never its result, and the
aggregate of any execution plan equals the serial plan's byte for byte
(:meth:`ScenarioResult.canonical_json`).  This module is the only
place those per-size seeds and step budgets are derived: every size
sweep, the Table 1 row groups and scaling series included, runs through
:func:`run_scenario`, and each cell's measurement equals
:func:`~repro.experiments.harness.measure_protocol_on_graph` on that
cell's graph, seed and budget.

Worker processes are started with the ``fork`` method where the platform
offers it: the parent compiles each protocol's transition tables once and
warms the process-wide compilation cache, and forked children inherit the
packed numpy tables copy-on-write — no per-worker recompilation and
nothing to serialise.  On spawn-only platforms each worker compiles its
own tables on first use (slower start, same results).
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.protocol import PopulationProtocol
from ..core.seeds import graph_seed, measure_seed, trial_seeds
from ..dynamics.schedule import TopologySchedule
from ..experiments.harness import (
    DegenerateSweepError,
    Measurement,
    ProtocolSpec,
    SweepResult,
    build_trial_protocols,
    default_step_budget,
    measurement_from_records,
    run_protocol_trials,
    trial_record_from_result,
)
from ..experiments.workloads import get_workload
from ..graphs.graph import Graph
from .scenario import (
    RESULT_SCHEMA_VERSION,
    ProtocolConfig,
    Scenario,
    ScheduleConfig,
    _freeze,
    _thaw,
)
from .store import ResultStore


@dataclass(frozen=True)
class WorkUnit:
    """One shard: trials ``[trial_lo, trial_hi)`` of one (protocol, size) cell."""

    spec_index: int
    size_index: int
    shard_index: int
    trial_lo: int
    trial_hi: int

    @property
    def key(self) -> str:
        """Stable identifier, also the cache file stem."""
        return f"p{self.spec_index:02d}-s{self.size_index:02d}-t{self.shard_index:04d}"

    @property
    def n_trials(self) -> int:
        return self.trial_hi - self.trial_lo


def build_work_units(scenario: Scenario) -> List[WorkUnit]:
    """The scenario's deterministic work decomposition, in serial order."""
    units: List[WorkUnit] = []
    shard = scenario.trials_per_shard
    for spec_index in range(len(scenario.protocols)):
        for size_index in range(len(scenario.sizes)):
            for shard_index, lo in enumerate(range(0, scenario.repetitions, shard)):
                units.append(
                    WorkUnit(
                        spec_index=spec_index,
                        size_index=size_index,
                        shard_index=shard_index,
                        trial_lo=lo,
                        trial_hi=min(lo + shard, scenario.repetitions),
                    )
                )
    return units


#: Per-process graph memo.  With trials_per_shard=1 every trial is its own
#: work unit, and sampled families (random-regular, geometric) pay a
#: rejection loop per build.  Graphs are deterministic in exactly
#: (workload, size, graph seed), so that triple is the key — scenario
#: variants (different repetitions, engine, shard size) share entries.
_GRAPH_CACHE: Dict[Tuple[str, int, int], Graph] = {}
_GRAPH_CACHE_LIMIT = 64


def _cached_graph(workload: str, size: int, seed: int) -> Graph:
    """The graph of ``(workload, size, graph seed)``, served from the memo."""
    key = (workload, size, seed)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        if len(_GRAPH_CACHE) >= _GRAPH_CACHE_LIMIT:
            _GRAPH_CACHE.clear()
        graph = get_workload(workload).build(size, seed=seed)
        _GRAPH_CACHE[key] = graph
    return graph


def scenario_graph(scenario: Scenario, size_index: int) -> Graph:
    """The graph of the scenario's size cell ``size_index`` (memoised)."""
    return _cached_graph(
        scenario.workload,
        scenario.sizes[size_index],
        graph_seed(scenario.seed, size_index),
    )


@dataclass(frozen=True)
class UnitPlan:
    """One shard's fully resolved execution plan, as plain data.

    Built once in the parent by :func:`build_unit_plans` — which is where
    *all* seed derivation happens — and shipped verbatim to worker
    processes: a worker materialises the graph, spec and topology
    schedule from these fields and hands the explicit ``run_seeds`` to
    the runtime, re-deriving nothing.  Every field is JSON-native, so a
    unit plan is cheap to pickle and independent of the scenario object
    that produced it.
    """

    unit_key: str
    trial_lo: int
    trial_hi: int
    workload: str
    size: int
    graph_seed: int
    protocol: Tuple[Tuple[str, Any], ...]  # (builder, params) — ProtocolConfig form
    run_seeds: Tuple[int, ...]
    engine: str
    step_budget_multiplier: float
    schedule: Optional[Tuple[Tuple[str, Any], ...]] = None  # ScheduleConfig form
    schedule_seed: int = 0

    def build_graph(self) -> Graph:
        """The unit's interaction graph (served from the process memo)."""
        return _cached_graph(self.workload, self.size, self.graph_seed)

    def build_spec(self) -> ProtocolSpec:
        builder, params = self.protocol
        return ProtocolConfig(builder=builder, params=tuple(params)).build_spec()


def build_unit_plans(
    scenario: Scenario, units: Sequence[WorkUnit]
) -> List[UnitPlan]:
    """Compile work units into self-contained plans (all seeds derived here).

    A size cell's graph and schedule seeds are derived once, for all of
    its units, and its trial seeds in one :func:`trial_seeds` call over
    the span of its units' trials, which folds the cell's prefix once.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for unit in units:
        lo, hi = spans.get(unit.size_index, (unit.trial_lo, unit.trial_hi))
        spans[unit.size_index] = (min(lo, unit.trial_lo), max(hi, unit.trial_hi))
    cells = {
        size_index: (
            lo,
            trial_seeds(measure_seed(scenario.seed, size_index), range(lo, hi)),
            graph_seed(scenario.seed, size_index),
            scenario.schedule_seed(size_index),
        )
        for size_index, (lo, hi) in spans.items()
    }
    plans: List[UnitPlan] = []
    for unit in units:
        lo, cell_run_seeds, cell_graph_seed, cell_schedule_seed = cells[unit.size_index]
        protocol = scenario.protocols[unit.spec_index]
        plans.append(
            UnitPlan(
                unit_key=unit.key,
                trial_lo=unit.trial_lo,
                trial_hi=unit.trial_hi,
                workload=scenario.workload,
                size=scenario.sizes[unit.size_index],
                graph_seed=cell_graph_seed,
                protocol=(protocol.builder, tuple(protocol.params)),
                run_seeds=tuple(cell_run_seeds[unit.trial_lo - lo : unit.trial_hi - lo]),
                engine=scenario.engine,
                step_budget_multiplier=scenario.step_budget_multiplier,
                schedule=(
                    (scenario.schedule.kind, tuple(scenario.schedule.params))
                    if scenario.schedule is not None
                    else None
                ),
                schedule_seed=cell_schedule_seed,
            )
        )
    return plans


def unit_plan_to_wire(plan: UnitPlan) -> Dict[str, Any]:
    """The JSON-native wire form of a unit plan.

    This is what the service layer (:mod:`repro.service`) ships to remote
    workers instead of a pickle: every field is plain JSON, and
    :func:`unit_plan_from_wire` reconstructs an equal :class:`UnitPlan`
    (tuples restored), so a remote worker executes exactly the plan a
    fork-worker would have received.
    """
    builder, params = plan.protocol
    return {
        "unit": plan.unit_key,
        "trials": [plan.trial_lo, plan.trial_hi],
        "workload": plan.workload,
        "size": plan.size,
        "graph_seed": plan.graph_seed,
        "protocol": {"builder": builder, "params": [[k, _thaw(v)] for k, v in params]},
        "run_seeds": list(plan.run_seeds),
        "engine": plan.engine,
        "step_budget_multiplier": plan.step_budget_multiplier,
        "schedule": (
            None
            if plan.schedule is None
            else {
                "kind": plan.schedule[0],
                "params": [[k, _thaw(v)] for k, v in plan.schedule[1]],
            }
        ),
        "schedule_seed": plan.schedule_seed,
    }


def unit_plan_from_wire(wire: Dict[str, Any]) -> UnitPlan:
    """Rebuild a :class:`UnitPlan` from :func:`unit_plan_to_wire` output."""
    protocol = wire["protocol"]
    schedule = wire.get("schedule")
    return UnitPlan(
        unit_key=str(wire["unit"]),
        trial_lo=int(wire["trials"][0]),
        trial_hi=int(wire["trials"][1]),
        workload=str(wire["workload"]),
        size=int(wire["size"]),
        graph_seed=int(wire["graph_seed"]),
        protocol=(
            str(protocol["builder"]),
            tuple((str(k), _freeze(v)) for k, v in protocol["params"]),
        ),
        run_seeds=tuple(int(seed) for seed in wire["run_seeds"]),
        engine=str(wire["engine"]),
        step_budget_multiplier=float(wire["step_budget_multiplier"]),
        schedule=(
            None
            if schedule is None
            else (
                str(schedule["kind"]),
                tuple((str(k), _freeze(v)) for k, v in schedule["params"]),
            )
        ),
        schedule_seed=int(wire.get("schedule_seed", 0)),
    )


def unit_payload(plan: UnitPlan, results: Sequence[Any], state_space: Optional[int]) -> Dict[str, Any]:
    """Serialise one executed unit's results into its JSON-native payload.

    The single serialisation point shared by the in-process runner, the
    multiprocessing pool and the remote service workers — the payload is
    exactly what the result store persists and what travels back over the
    service wire, so every placement produces identical bytes.
    """
    return {
        "version": RESULT_SCHEMA_VERSION,
        "unit": plan.unit_key,
        "trials": [plan.trial_lo, plan.trial_hi],
        "records": [trial_record_from_result(result) for result in results],
        "state_space": state_space,
    }


@dataclass(frozen=True)
class PreparedCell:
    """What the pending units of one (protocol, size) cell share.

    Built once per cell by :func:`prepare_cell`: the graph, the topology
    schedule and the step budget depend on the cell alone, and
    ``protocols`` maps each prepared trial index to its protocol.
    """

    graph: Graph
    schedule: Optional[TopologySchedule]
    max_steps: int
    protocols: Dict[int, PopulationProtocol]


def prepare_cell(plans: Sequence[UnitPlan]) -> PreparedCell:
    """Prepare the units ``plans`` of one cell, once for all of them.

    The spec, graph and schedule are built once, and every trial's
    protocol in one :func:`~repro.experiments.harness.build_trial_protocols`
    call (the fast protocol's ``B(G)`` calibration becomes one stack for
    the cell instead of one per unit).  Entry ``t`` is the protocol a
    one-unit preparation builds for trial ``t``, so a unit's result does
    not depend on which units it was prepared with.
    """
    first = plans[0]
    graph = first.build_graph()
    schedule = None
    if first.schedule is not None:
        kind, params = first.schedule
        schedule = ScheduleConfig(kind=kind, params=tuple(params)).build(
            graph, first.schedule_seed
        )
    trials = [trial for plan in plans for trial in range(plan.trial_lo, plan.trial_hi)]
    run_seeds = [seed for plan in plans for seed in plan.run_seeds]
    protocols = build_trial_protocols(first.build_spec(), graph, run_seeds)
    return PreparedCell(
        graph=graph,
        schedule=schedule,
        max_steps=default_step_budget(graph, multiplier=first.step_budget_multiplier),
        protocols=dict(zip(trials, protocols)),
    )


def execute_unit_plan(plan: UnitPlan, cell: Optional[PreparedCell] = None) -> Dict[str, Any]:
    """Run one unit plan and return its JSON-native payload.

    ``cell`` is the unit's cell as :func:`prepare_cell` built it for a
    group of pending units that includes this one; without it (pool and
    service workers) the unit is prepared alone.  The bytes are the same.
    """
    if cell is None:
        cell = prepare_cell([plan])
    results, state_space = run_protocol_trials(
        [cell.protocols[trial] for trial in range(plan.trial_lo, plan.trial_hi)],
        cell.graph,
        plan.run_seeds,
        max_steps=cell.max_steps,
        engine=plan.engine,
        schedule=cell.schedule,
    )
    return unit_payload(plan, results, state_space)


def _worker_execute(plan: UnitPlan) -> Tuple[str, Dict[str, Any]]:
    """Pool entry point: execute one shipped unit plan."""
    return plan.unit_key, execute_unit_plan(plan)


def _pool_context() -> multiprocessing.context.BaseContext:
    # Prefer fork only on Linux, where it is the platform default and safe:
    # children inherit the warmed compilation cache copy-on-write.  macOS
    # lists fork as available but forking a process with initialized
    # BLAS/Objective-C runtimes is unsafe there (hence its spawn default);
    # respect the platform default everywhere else.
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _warm_compilation_cache(plans: Sequence[UnitPlan]) -> None:
    """Compile each pending protocol's tables once before forking workers."""
    from ..engine.compiler import compilation_worthwhile, get_compiled

    seen: set = set()
    for plan in plans:
        cell = (plan.protocol, plan.size, plan.graph_seed)
        if cell in seen:
            continue
        seen.add(cell)
        graph = plan.build_graph()
        protocol = plan.build_spec().factory(graph, plan.run_seeds[0])
        if compilation_worthwhile(protocol):
            get_compiled(protocol)


@dataclass
class ScenarioResult:
    """Aggregated outcome of one orchestrated scenario run.

    ``cache_hits`` / ``executed_units`` describe how the run was served;
    they are provenance, not part of the canonical result.
    """

    scenario: Scenario
    sweeps: List[SweepResult]
    total_units: int
    cache_hits: int
    executed_units: int
    jobs: int
    wall_time_seconds: float

    def sweep_for(self, protocol_name: str) -> SweepResult:
        """The sweep of one protocol by its spec name."""
        for sweep in self.sweeps:
            if sweep.protocol_name == protocol_name:
                return sweep
        known = ", ".join(sweep.protocol_name for sweep in self.sweeps)
        raise KeyError(f"no sweep for {protocol_name!r}; have: {known}")

    def to_canonical_dict(self) -> Dict[str, Any]:
        """Deterministic, execution-plan-independent view of the results.

        Contains only measured values and the scenario identity — no wall
        times, worker counts or cache statistics — so any two runs of the
        same scenario (serial, parallel, cached) produce equal dicts.
        """
        sweeps = []
        for sweep in self.sweeps:
            try:
                fit = sweep.fit()
                fit_dict: Optional[Dict[str, float]] = {
                    "exponent": fit.exponent,
                    "log_exponent": fit.log_exponent,
                    "constant": fit.constant,
                    "r_squared": fit.r_squared,
                }
            except DegenerateSweepError:
                fit_dict = None
            sweeps.append(
                {
                    "protocol": sweep.protocol_name,
                    "workload": sweep.workload_name,
                    "sizes": list(sweep.sizes),
                    "per_size": [_measurement_dict(m) for m in sweep.measurements],
                    "fit": fit_dict,
                }
            )
        return {
            "scenario": self.scenario.config_dict(),
            "content_hash": self.scenario.content_hash(),
            "sweeps": sweeps,
        }

    def canonical_json(self) -> str:
        """Canonical JSON of :meth:`to_canonical_dict` (byte-comparable)."""
        return json.dumps(self.to_canonical_dict(), sort_keys=True, separators=(",", ":"))


def _measurement_dict(measurement: Measurement) -> Dict[str, Any]:
    stats = measurement.stabilization_steps
    return {
        "graph": measurement.graph_name,
        "n": measurement.n_nodes,
        "m": measurement.n_edges,
        "mean_steps": stats.mean,
        "std_steps": stats.std,
        "q90_steps": stats.q90,
        "certified_mean_steps": measurement.certified_steps.mean,
        "success_rate": measurement.success_rate,
        "max_states_observed": measurement.max_states_observed,
        "state_space_size": measurement.state_space_size,
        "n_trials": stats.n_samples,
    }


def run_scenario(
    scenario: Scenario,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    store: Optional[ResultStore] = None,
) -> ScenarioResult:
    """Execute ``scenario``, reusing stored shards and sharding the rest.

    Parameters
    ----------
    scenario:
        The declarative sweep to run.
    jobs:
        Worker processes.  ``1`` runs every unit in-process, in serial
        order; any value produces bit-identical aggregates.
    cache:
        When true (default), finished units are read from / written to the
        result store, so re-runs are instant and interrupted sweeps
        resume.  ``False`` neither reads nor writes ``.repro_cache/``.
    cache_dir / store:
        Override the cache root, or inject a prepared
        :class:`~repro.orchestration.store.ResultStore` (``store`` wins).
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    scenario.validate()
    start_time = time.perf_counter()
    active_store: Optional[ResultStore] = None
    if cache:
        active_store = store if store is not None else ResultStore(cache_dir)

    units = build_work_units(scenario)
    payloads: Dict[str, Dict[str, Any]] = {}
    pending: List[WorkUnit] = []
    for unit in units:
        stored = (
            active_store.load_unit(scenario, unit.key, unit.n_trials)
            if active_store is not None
            else None
        )
        if stored is not None:
            payloads[unit.key] = stored
        else:
            pending.append(unit)
    cache_hits = len(payloads)

    if pending:
        plans = build_unit_plans(scenario, pending)
        worker_count = min(jobs, len(pending))

        def finished(unit_key: str, payload: Dict[str, Any]) -> None:
            # Persist each unit the moment it completes, so an interrupted
            # sweep keeps every finished shard and the next run resumes.
            if active_store is not None:
                active_store.save_unit(scenario, unit_key, payload)
            payloads[unit_key] = payload

        if worker_count > 1:
            _warm_compilation_cache(plans)
            with _pool_context().Pool(processes=worker_count) as pool:
                # imap_unordered: units persist the moment any worker
                # finishes them (ordered imap would buffer completions
                # behind a straggler, losing them to an interrupt).
                # Aggregation sorts by trial bounds, so order is free.
                for unit_key, payload in pool.imap_unordered(
                    _worker_execute, plans, chunksize=1
                ):
                    finished(unit_key, payload)
        else:
            # Pending units of one cell are prepared together; each still
            # runs, and is stored, as a unit of its own.
            cells: Dict[Tuple[int, int], List[UnitPlan]] = {}
            for unit, plan in zip(pending, plans):
                cells.setdefault((unit.spec_index, unit.size_index), []).append(plan)
            for cell_plans in cells.values():
                cell = prepare_cell(cell_plans)
                for plan in cell_plans:
                    finished(plan.unit_key, execute_unit_plan(plan, cell))

    sweeps = aggregate_unit_payloads(scenario, units, payloads)
    return ScenarioResult(
        scenario=scenario,
        sweeps=sweeps,
        total_units=len(units),
        cache_hits=cache_hits,
        executed_units=len(pending),
        jobs=jobs,
        wall_time_seconds=time.perf_counter() - start_time,
    )


def aggregate_unit_payloads(
    scenario: Scenario, units: Sequence[WorkUnit], payloads: Dict[str, Dict[str, Any]]
) -> List[SweepResult]:
    """Fold unit payloads into per-protocol sweeps, in global trial order.

    Shared by the local runner and the service client
    (:class:`repro.service.client.ServiceClient`), so a scenario streamed
    back from a job server aggregates through exactly the code path a
    local run uses — the byte-identity invariant rests on this.
    """
    specs = scenario.protocol_specs()
    graphs = [scenario_graph(scenario, index) for index in range(len(scenario.sizes))]
    by_cell: Dict[Tuple[int, int], List[WorkUnit]] = {}
    for unit in units:
        by_cell.setdefault((unit.spec_index, unit.size_index), []).append(unit)

    sweeps: List[SweepResult] = []
    for spec_index, spec in enumerate(specs):
        measurements: List[Measurement] = []
        for size_index, graph in enumerate(graphs):
            cell_units = sorted(
                by_cell[(spec_index, size_index)], key=lambda unit: unit.trial_lo
            )
            records: List[dict] = []
            state_space: Optional[int] = None
            for unit in cell_units:
                payload = payloads[unit.key]
                records.extend(payload["records"])
                if state_space is None:
                    state_space = payload.get("state_space")
            measurements.append(
                measurement_from_records(spec.name, graph, records, state_space)
            )
        sweeps.append(
            SweepResult(
                protocol_name=spec.name,
                workload_name=scenario.workload,
                sizes=list(scenario.sizes),
                measurements=measurements,
            )
        )
    return sweeps
