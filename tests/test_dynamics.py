"""Tests for the dynamic-topology subsystem (schedules, scheduler, threading).

The two load-bearing invariants:

1. **Static equivalence** — a single-epoch schedule reproduces the
   equivalent fixed-graph run bit for bit, at every layer (scheduler
   stream, simulator engines, analytics stacks, orchestrator).
2. **Execution-plan invariance** — dynamic runs are bit-identical across
   executors, replica-batch widths, native/NumPy analytics paths
   and orchestrator worker counts.  Dynamic protocol plans run on the
   v6 epoch stack's epoch switches; a table-driven differential pins
   them to the reference interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.native as native
import repro.runtime.execute as execute_module
from repro.analytics.epidemics import run_epidemic_batch, run_influence_batch
from repro.core.scheduler import RandomScheduler
from repro.core.seeds import derive_seed
from repro.core.simulator import Simulator, run_leader_election
from repro.dynamics import (
    DynamicScheduler,
    EdgeChurnSchedule,
    EpochSchedule,
    NodeChurnSchedule,
    ScheduleError,
    StaticSchedule,
    TopologySchedule,
)
from repro.engine.native import get_run_epoch_kernel, reset_kernel_cache
from repro.graphs import Graph, clique, cycle, star, torus
from repro.orchestration import ScheduleConfig, get_scenario, run_scenario
from repro.propagation.broadcast import broadcast_time_estimate, full_information_time
from repro.protocols import FastLeaderElection, IdentifierLeaderElection, StarLeaderElection
from repro.protocols.tokens import TokenLeaderElection
from repro.runtime import compile_plan, execute_plan

requires_kernel = pytest.mark.skipif(
    get_run_epoch_kernel() is None, reason="kernel v6 unavailable"
)


def result_tuple(result):
    """The deterministic fields of a SimulationResult."""
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestSchedules:
    def test_static_schedule_is_one_infinite_epoch(self):
        graph = clique(8)
        schedule = StaticSchedule(graph)
        assert schedule.epoch_at(0) == (0, 0, None)
        assert schedule.epoch_at(10**9) == (0, 0, None)
        assert schedule.graph_at(12345) is graph
        assert schedule.union_graph() is graph
        assert list(schedule.segments(5, 100)) == [(0, 100)]

    def test_epoch_schedule_boundaries_and_repeat(self):
        graphs = [clique(6), cycle(6), star(6)]
        schedule = EpochSchedule.from_graphs(graphs, epoch_length=10, repeat=True)
        assert schedule.epoch_at(0) == (0, 0, 10)
        assert schedule.epoch_at(9) == (0, 0, 10)
        assert schedule.epoch_at(10) == (1, 10, 20)
        assert schedule.epoch_at(29) == (2, 20, 30)
        assert schedule.graph_at(30) is graphs[0]  # wrapped around
        assert schedule.graph_at(45) is graphs[1]
        assert list(schedule.segments(8, 15)) == [(0, 2), (1, 10), (2, 3)]

    def test_epoch_schedule_final_phase_holds_forever(self):
        schedule = EpochSchedule([(cycle(6), 10), (clique(6), 10)], repeat=False)
        assert schedule.epoch_at(10**7)[0] == 1
        assert schedule.epoch_length(1) is None

    def test_epoch_schedule_union_graph(self):
        schedule = EpochSchedule.from_graphs([cycle(6), star(6)], epoch_length=5)
        union = schedule.union_graph()
        expected = set(cycle(6).edges()) | set(star(6).edges())
        assert set(union.edges()) == expected

    def test_epoch_schedule_rejects_mismatched_sizes(self):
        with pytest.raises(ScheduleError):
            EpochSchedule.from_graphs([clique(6), clique(8)], epoch_length=5)

    def test_epoch_schedule_rejects_bad_lengths(self):
        with pytest.raises(ScheduleError):
            EpochSchedule([(clique(6), 0), (cycle(6), 5)], repeat=False)
        with pytest.raises(ScheduleError):
            EpochSchedule.from_graphs([clique(6)], epoch_length=0)
        with pytest.raises(ScheduleError):
            EpochSchedule([], repeat=False)

    def test_edge_churn_is_deterministic_and_nonempty(self):
        base = clique(10)
        first = EdgeChurnSchedule(base, 0.4, epoch_length=64, seed=9)
        second = EdgeChurnSchedule(base, 0.4, epoch_length=64, seed=9)
        for index in range(6):
            a, b = first.epoch_graph(index), second.epoch_graph(index)
            assert set(a.edges()) == set(b.edges())
            assert a.n_edges > 0
            assert set(a.edges()) <= set(base.edges())
        assert first.union_graph() is base
        # Different epochs churn differently (overwhelmingly likely).
        assert any(
            set(first.epoch_graph(k).edges()) != set(first.epoch_graph(0).edges())
            for k in range(1, 6)
        )

    def test_edge_churn_require_connected(self):
        schedule = EdgeChurnSchedule(
            clique(8), 0.5, epoch_length=64, seed=3, require_connected=True
        )
        for index in range(8):
            assert schedule.epoch_graph(index).is_connected()

    def test_edge_churn_parameter_validation(self):
        with pytest.raises(ScheduleError):
            EdgeChurnSchedule(clique(8), 0.0, epoch_length=64)
        with pytest.raises(ScheduleError):
            EdgeChurnSchedule(clique(8), 0.5, epoch_length=0)

    def test_node_churn_prefix_semantics(self):
        full = clique(12)
        schedule = NodeChurnSchedule(full, [6, 9, 12], epoch_length=10, repeat=False)
        for index, count in enumerate([6, 9, 12]):
            graph = schedule.epoch_graph(index)
            assert graph.n_nodes == 12  # embedded in the universe
            assert all(u < count and v < count for u, v in graph.edges())
            assert graph.n_edges == count * (count - 1) // 2
        # Final epoch holds forever at full size.
        assert schedule.epoch_at(10**6)[0] == 2
        assert set(schedule.union_graph().edges()) == set(full.edges())

    def test_node_churn_validation(self):
        with pytest.raises(ScheduleError):
            NodeChurnSchedule(clique(8), [1], epoch_length=10)
        with pytest.raises(ScheduleError):
            NodeChurnSchedule(clique(8), [9], epoch_length=10)
        with pytest.raises(ScheduleError):
            NodeChurnSchedule(clique(8), [], epoch_length=10)


# ----------------------------------------------------------------------
# DynamicScheduler
# ----------------------------------------------------------------------
class TestDynamicScheduler:
    def test_single_epoch_stream_matches_random_scheduler(self):
        graph = clique(16)
        static = RandomScheduler(graph, rng=123)
        dynamic = DynamicScheduler(StaticSchedule(graph), rng=123)
        for size in (7, 4096, 1, 9000, 64):
            su, sv = static.next_arrays(size)
            du, dv = dynamic.next_arrays(size)
            assert (su == du).all() and (sv == dv).all()
        assert static.next_batch(20) == dynamic.next_batch(20)
        assert static.next_interaction() == dynamic.next_interaction()
        assert dynamic.steps_emitted == static.steps_emitted

    def test_draws_respect_epoch_boundaries(self):
        # Disjoint edge sets per phase make misattribution detectable.
        phase_a = cycle(10)
        phase_b = star(10)
        schedule = EpochSchedule.from_graphs([phase_a, phase_b], epoch_length=13, repeat=True)
        scheduler = DynamicScheduler(schedule, rng=5)
        edges = {0: set(phase_a.edges()), 1: set(phase_b.edges())}
        for step in range(200):
            u, v = scheduler.next_interaction()
            phase = (step // 13) % 2
            key = (u, v) if u < v else (v, u)
            assert key in edges[phase], f"step {step}: {key} not in phase {phase}"

    def test_batch_spanning_many_epochs(self):
        schedule = EpochSchedule.from_graphs([cycle(10), star(10)], epoch_length=5, repeat=True)
        scheduler = DynamicScheduler(schedule, rng=7)
        iu, iv = scheduler.next_arrays(1000)
        cycle_edges = set(cycle(10).edges())
        star_edges = set(star(10).edges())
        for step, (u, v) in enumerate(zip(iu.tolist(), iv.tolist())):
            expected = cycle_edges if (step // 5) % 2 == 0 else star_edges
            key = (u, v) if u < v else (v, u)
            assert key in expected


# ----------------------------------------------------------------------
# Simulator threading
# ----------------------------------------------------------------------
class TestSimulatorSchedules:
    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_single_epoch_schedule_reproduces_static_run(self, engine):
        graph = clique(16)
        baseline = run_leader_election(TokenLeaderElection(), graph, rng=3, engine=engine)
        scheduled = run_leader_election(
            TokenLeaderElection(), graph, rng=3, engine=engine, schedule=StaticSchedule(graph)
        )
        assert result_tuple(baseline) == result_tuple(scheduled)

    def test_dynamic_run_identical_across_engines(self, engine_variants):
        graph = clique(16)
        schedule = EpochSchedule.from_graphs(
            [clique(16), cycle(16), star(16)], epoch_length=256, repeat=True
        )
        outcomes = []
        for engine, seed_of in engine_variants:
            result = run_leader_election(
                TokenLeaderElection(),
                graph,
                rng=seed_of(11),
                engine=engine,
                schedule=schedule,
            )
            outcomes.append(result_tuple(result))
        assert len(set(outcomes)) == 1

    def test_dynamic_run_differs_from_static(self):
        graph = clique(16)
        schedule = EpochSchedule.from_graphs([cycle(16), clique(16)], epoch_length=64, repeat=True)
        static = run_leader_election(TokenLeaderElection(), graph, rng=3, engine="auto")
        dynamic = run_leader_election(
            TokenLeaderElection(), graph, rng=3, engine="auto", schedule=schedule
        )
        assert result_tuple(static) != result_tuple(dynamic)

    def test_node_churn_grow_elects_single_leader(self):
        graph = clique(12)
        schedule = NodeChurnSchedule(graph, [6, 9, 12], epoch_length=128, repeat=False)
        result = run_leader_election(
            TokenLeaderElection(), graph, rng=2, engine="auto", schedule=schedule
        )
        assert result.stabilized and result.leaders == 1

    def test_schedule_and_scheduler_are_mutually_exclusive(self):
        graph = clique(8)
        simulator = Simulator(graph, TokenLeaderElection())
        with pytest.raises(ValueError, match="not both"):
            simulator.run(
                max_steps=10,
                scheduler=RandomScheduler(graph, rng=0),
                schedule=StaticSchedule(graph),
            )

    def test_schedule_universe_must_match_graph(self):
        simulator = Simulator(clique(8), TokenLeaderElection())
        with pytest.raises(ValueError, match="universe"):
            simulator.run(max_steps=10, schedule=StaticSchedule(clique(10)))


# ----------------------------------------------------------------------
# Dynamic plans on the v6 stack
# ----------------------------------------------------------------------
#: Topology setups ``(n, schedule factory)``.  Every epoch length is a
#: prime, so none is a multiple of the certificate cadence
#: (``default_check_interval``: 9, 16, 19 and 22 for these cliques).
_V6_SCHEDULES = {
    "epochs-repeat": (12, lambda n: EpochSchedule.from_graphs(
        [clique(n), cycle(n), star(n)], epoch_length=37, repeat=True
    )),
    "epochs-once": (9, lambda n: EpochSchedule(
        [(cycle(n), 43), (star(n), 29), (clique(n), None)], repeat=False
    )),
    "edge-churn": (14, lambda n: EdgeChurnSchedule(clique(n), 0.4, epoch_length=53, seed=n)),
    "node-churn": (13, lambda n: NodeChurnSchedule(
        clique(n), [n // 2, n - 2, n], epoch_length=41, repeat=True
    )),
}

class _TableIdentifier(IdentifierLeaderElection):
    """The identifier protocol without its kernel rule: at
    ``identifier_bits <= 8`` its declared state space fits the table
    bound, so ``engine="auto"`` serves it on transition tables."""

    def kernel_rule(self):
        return None


#: Protocol factories, each run under ``engine="auto"``: the identifier
#: protocol runs once on the kernel's arithmetic rule and once on
#: transition tables (no kernel rule: table misses inside epochs).
_V6_PROTOCOLS = {
    "token": lambda g: TokenLeaderElection(),
    "star": lambda g: StarLeaderElection(),
    "fast": lambda g: FastLeaderElection.practical_for_graph(g, 2.0 * g.n_nodes),
    "identifier-rule": lambda g: IdentifierLeaderElection(g.n_nodes),
    "identifier-tables": lambda g: _TableIdentifier(g.n_nodes, identifier_bits=5),
}

#: ``(width, budget)`` runs per case; the budget is 0, inside the second
#: epoch, exactly at its end, or enough to finish.
_V6_RUNS = ((1, "full"), (4, "full"), (3, "mid"), (4, "end"), (3, "zero"))


def _v6_budget(schedule, kind):
    first_end = schedule.epoch_at(0)[2]
    second_end = schedule.epoch_at(first_end)[2]
    return {
        "zero": 0,
        "mid": (first_end + second_end) // 2,
        "end": second_end,
        "full": 30_000,
    }[kind]


@pytest.mark.parametrize("protocol_kind", sorted(_V6_PROTOCOLS))
@pytest.mark.parametrize("schedule_kind", sorted(_V6_SCHEDULES))
def test_dynamic_plans_on_v6_match_reference(schedule_kind, protocol_kind, monkeypatch):
    """Every field of a dynamic v6 plan equals the reference interpreter.

    The spy proves each plan ran as one stack of its full width (without
    the kernel, on the per-replica engine instead: no stack at all).
    """
    n, build_schedule = _V6_SCHEDULES[schedule_kind]
    build_protocol = _V6_PROTOCOLS[protocol_kind]
    schedule = build_schedule(n)
    graph = clique(n)
    widths = []
    real = execute_module._execute_stack_v6

    def spy(plan):
        widths.append(plan.n_replicas)
        return real(plan)

    monkeypatch.setattr(execute_module, "_execute_stack_v6", spy)
    for width, budget_kind in _V6_RUNS:
        budget = _v6_budget(schedule, budget_kind)
        seeds = [derive_seed(20261017, schedule_kind, protocol_kind, r) for r in range(width)]
        where = f"{schedule_kind}/{protocol_kind} width {width}, budget {budget}"

        def run(chosen):
            protocols = [build_protocol(graph)] * width
            plan = compile_plan(
                protocols, graph, seeds, max_steps=budget, engine=chosen,
                schedule=schedule,
            )
            return [result_tuple(r) for r in execute_plan(plan)]

        reference = run("reference")
        widths.clear()
        assert run("auto") == reference, where
        assert widths == ([width] if get_run_epoch_kernel() is not None else []), where


class _SecondEpochEdgeless(TopologySchedule):
    """A user schedule whose second epoch graph has no edges."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph.n_nodes)
        self._graph = graph
        self._empty = Graph(graph.n_nodes, [], check_connected=False)

    def epoch_graph(self, index):
        return self._graph if index == 0 else self._empty

    def epoch_length(self, index):
        return 50 if index == 0 else None

    def union_graph(self):
        return self._graph


@requires_kernel
def test_edgeless_epoch_raises_before_the_kernel_draws(monkeypatch):
    """Like ``InteractionSource``, the stack refuses an edgeless epoch.

    The kernel is never called with ``m = 0``: its edge draw bound is
    the unsigned ``m - 1``.
    """
    graph = cycle(8)
    schedule = _SecondEpochEdgeless(graph)
    edge_counts = []
    kernel = get_run_epoch_kernel()

    def counting_kernel(*args):
        edge_counts.append(args[7])  # m
        return kernel(*args)

    monkeypatch.setattr(native, "get_run_epoch_kernel", lambda: counting_kernel)
    for engine in ("reference", "auto"):
        plan = compile_plan(
            [TokenLeaderElection()], graph, [3], max_steps=10_000,
            engine=engine, schedule=schedule,
        )
        with pytest.raises(ValueError):
            execute_plan(plan)
    assert edge_counts and all(m == graph.n_edges for m in edge_counts)


# ----------------------------------------------------------------------
# Analytics threading
# ----------------------------------------------------------------------
@pytest.fixture
def boundary_schedule():
    """Tiny epochs force many lockstep-block clips at boundaries."""
    return EpochSchedule.from_graphs([clique(24), cycle(24)], epoch_length=32, repeat=True)


class TestAnalyticsSchedules:
    SOURCES = [i % 24 for i in range(10)]
    SEEDS = list(range(500, 510))

    def test_single_epoch_epidemics_match_static(self):
        graph = clique(24)
        static = run_epidemic_batch(graph, self.SOURCES, self.SEEDS, 100_000)
        single = run_epidemic_batch(
            graph, self.SOURCES, self.SEEDS, 100_000, schedule=StaticSchedule(graph)
        )
        assert (static == single).all()

    def test_dynamic_epidemics_width_invariant(self, boundary_schedule):
        graph = clique(24)
        reference = run_epidemic_batch(
            graph, self.SOURCES, self.SEEDS, 400_000, schedule=boundary_schedule
        )
        assert (reference >= 0).all()
        for width in (1, 3, 7):
            result = run_epidemic_batch(
                graph,
                self.SOURCES,
                self.SEEDS,
                400_000,
                schedule=boundary_schedule,
                replica_batch=width,
            )
            assert (result == reference).all(), f"width {width} diverged"

    def test_dynamic_epidemics_native_vs_numpy(self, boundary_schedule, monkeypatch):
        graph = clique(24)
        with_kernel = run_epidemic_batch(
            graph, self.SOURCES, self.SEEDS, 400_000, schedule=boundary_schedule
        )
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        reset_kernel_cache()
        try:
            fallback = run_epidemic_batch(
                graph, self.SOURCES, self.SEEDS, 400_000, schedule=boundary_schedule
            )
            scalar = run_epidemic_batch(
                graph,
                self.SOURCES,
                self.SEEDS,
                400_000,
                schedule=boundary_schedule,
                replica_batch=2,
            )
        finally:
            monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
            reset_kernel_cache()
        assert (fallback == with_kernel).all()
        assert (scalar == with_kernel).all()

    def test_dynamic_influence_width_and_path_invariant(self, boundary_schedule, monkeypatch):
        graph = clique(24)
        reference = run_influence_batch(
            graph, self.SEEDS[:5], 600_000, schedule=boundary_schedule
        )
        assert (reference >= 0).all()
        narrow = run_influence_batch(
            graph, self.SEEDS[:5], 600_000, schedule=boundary_schedule, replica_batch=2
        )
        assert (narrow == reference).all()
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        reset_kernel_cache()
        try:
            fallback = run_influence_batch(
                graph, self.SEEDS[:5], 600_000, schedule=boundary_schedule
            )
            # Tiny dynamic stacks must not take the static-only scalar
            # shortcut: widths below the scalar threshold stay identical.
            tiny = run_influence_batch(
                graph, self.SEEDS[:2], 600_000, schedule=boundary_schedule
            )
        finally:
            monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
            reset_kernel_cache()
        assert (fallback == reference).all()
        assert (tiny == reference[:2]).all()

    def test_single_epoch_influence_matches_static(self):
        graph = clique(24)
        static = run_influence_batch(graph, self.SEEDS[:4], 300_000)
        single = run_influence_batch(
            graph, self.SEEDS[:4], 300_000, schedule=StaticSchedule(graph)
        )
        assert (static == single).all()

    def test_broadcast_estimate_single_epoch_matches_static(self):
        graph = clique(20)
        static = broadcast_time_estimate(graph, repetitions=3, rng=7)
        single = broadcast_time_estimate(
            graph, repetitions=3, rng=7, schedule=StaticSchedule(graph)
        )
        assert static.value == single.value
        assert static.per_source == single.per_source

    def test_broadcast_estimate_dynamic_reproducible(self, boundary_schedule):
        graph = clique(24)
        first = broadcast_time_estimate(
            graph, repetitions=3, rng=7, schedule=boundary_schedule, max_steps=400_000
        )
        second = broadcast_time_estimate(
            graph, repetitions=3, rng=7, schedule=boundary_schedule, max_steps=400_000
        )
        assert first.value == second.value
        assert first.per_source == second.per_source

    def test_full_information_time_single_epoch_matches_static(self):
        graph = clique(16)
        static = full_information_time(graph, repetitions=3, rng=11)
        single = full_information_time(
            graph, repetitions=3, rng=11, schedule=StaticSchedule(graph)
        )
        assert static.mean == single.mean

    def test_schedule_universe_mismatch_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            run_epidemic_batch(
                clique(10), [0], [1], 1000, schedule=StaticSchedule(clique(12))
            )
        with pytest.raises(ValueError, match="universe"):
            run_influence_batch(clique(10), [1], 1000, schedule=StaticSchedule(clique(12)))


# ----------------------------------------------------------------------
# Orchestration threading
# ----------------------------------------------------------------------
class TestOrchestrationSchedules:
    def test_dynamic_scenarios_registered_and_valid(self):
        for name in (
            "dynamic-epoch-mix",
            "dynamic-edge-churn",
            "dynamic-torus-flicker",
            "dynamic-grow",
        ):
            scenario = get_scenario(name)
            assert scenario.schedule is not None
            scenario.validate()

    def test_static_scenario_config_has_no_schedule_key(self):
        # Hash stability: static scenarios serialise exactly as before
        # schedules existed, so their cache directories are unchanged.
        assert "schedule" not in get_scenario("table1-clique").config_dict()

    def test_schedule_config_round_trip_and_hash(self):
        scenario = get_scenario("dynamic-epoch-mix")
        rebuilt = type(scenario).from_config(scenario.config_dict())
        assert rebuilt.content_hash() == scenario.content_hash()
        changed = scenario.with_overrides(
            schedule=ScheduleConfig(
                "epochs", (("workloads", ("clique", "cycle", "star")), ("epoch_length", 999))
            )
        )
        assert changed.content_hash() != scenario.content_hash()

    def test_schedule_config_rejects_unknown_kind_and_params(self):
        from repro.orchestration import ScenarioError

        with pytest.raises(ScenarioError, match="unknown schedule kind"):
            ScheduleConfig("bogus")
        with pytest.raises(ScenarioError, match="no parameter"):
            ScheduleConfig("edge-churn", (("bogus_param", 1),))

    def test_schedule_config_canonicalises_defaults(self):
        explicit = ScheduleConfig(
            "edge-churn",
            (("keep_probability", 0.7), ("epoch_length", 1024), ("require_connected", False)),
        )
        assert explicit == ScheduleConfig("edge-churn")

    @pytest.mark.parametrize("name", ["dynamic-epoch-mix", "dynamic-grow"])
    def test_dynamic_scenario_parallel_equals_serial(self, name):
        scenario = get_scenario(name).with_overrides(sizes=(12,), repetitions=2)
        serial = run_scenario(scenario, jobs=1, cache=False)
        parallel = run_scenario(scenario, jobs=2, cache=False)
        assert serial.canonical_json() == parallel.canonical_json()

    def test_fast_protocol_on_schedule_calibrates_on_workload_graph(self):
        # Supported but deliberate: graph-calibrated factories (the fast
        # protocol's B(G) estimate) parameterise on the workload graph,
        # not the time-varying topology (see Scenario.schedule docs).
        from repro.orchestration import ProtocolConfig, Scenario

        scenario = Scenario(
            name="fast-dynamic-probe",
            workload="clique",
            sizes=(10,),
            protocols=(ProtocolConfig("fast"),),
            repetitions=2,
            schedule=ScheduleConfig(
                "epochs", (("workloads", ("clique", "cycle")), ("epoch_length", 256))
            ),
        )
        serial = run_scenario(scenario, jobs=1, cache=False)
        parallel = run_scenario(scenario, jobs=2, cache=False)
        assert serial.canonical_json() == parallel.canonical_json()
        measurement = serial.sweeps[0].measurements[0]
        assert measurement.stabilization_steps.mean > 0

    def test_dynamic_scenario_cache_round_trip(self, tmp_path):
        scenario = get_scenario("dynamic-edge-churn").with_overrides(
            sizes=(10,), repetitions=2
        )
        first = run_scenario(scenario, jobs=1, cache=True, cache_dir=tmp_path)
        assert first.executed_units == first.total_units
        second = run_scenario(scenario, jobs=1, cache=True, cache_dir=tmp_path)
        assert second.cache_hits == second.total_units
        assert first.canonical_json() == second.canonical_json()
