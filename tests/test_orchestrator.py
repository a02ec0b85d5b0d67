"""Tests for the sharded scenario runner (repro.orchestration.runner).

Covers the acceptance criteria of the orchestration layer:

* parallel (``jobs=N``) aggregates are bit-identical to the serial path,
* the serial path is bit-identical to direct per-cell harness measurements,
* a repeated sweep of a completed scenario is served entirely from the
  result store — zero work units executed, no simulator steps,
* interrupted sweeps resume (only missing shards recompute).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.orchestration.runner as runner_module
from repro.core.seeds import graph_seed, measure_seed, trial_seed
from repro.experiments.harness import (
    default_step_budget,
    measure_protocol_on_graph,
    star_protocol_spec,
    token_protocol_spec,
)
from repro.experiments.workloads import get_workload
from repro.orchestration import (
    ProtocolConfig,
    ResultStore,
    Scenario,
    ScenarioError,
    ScheduleConfig,
    build_unit_plans,
    build_work_units,
    execute_unit_plan,
    run_scenario,
    unit_plan_from_wire,
    unit_plan_to_wire,
)


def token_clique_scenario(**overrides):
    fields = dict(
        name="orch-test",
        workload="clique",
        sizes=(8, 12),
        protocols=(ProtocolConfig("token"),),
        repetitions=3,
        seed=11,
    )
    fields.update(overrides)
    return Scenario(**fields)


def assert_same_measurements(result_a, result_b):
    for sweep_a, sweep_b in zip(result_a.sweeps, result_b.sweeps):
        assert sweep_a.protocol_name == sweep_b.protocol_name
        for m_a, m_b in zip(sweep_a.measurements, sweep_b.measurements):
            assert m_a.stabilization_steps == m_b.stabilization_steps
            assert m_a.certified_steps == m_b.certified_steps
            assert m_a.success_rate == m_b.success_rate
            assert m_a.max_states_observed == m_b.max_states_observed


class TestWorkUnits:
    def test_decomposition_covers_all_trials_once(self):
        scenario = token_clique_scenario(repetitions=5, trials_per_shard=2)
        units = build_work_units(scenario)
        for spec_index in range(len(scenario.protocols)):
            for size_index in range(len(scenario.sizes)):
                cell = [
                    u for u in units
                    if u.spec_index == spec_index and u.size_index == size_index
                ]
                trials = sorted(t for u in cell for t in range(u.trial_lo, u.trial_hi))
                assert trials == list(range(scenario.repetitions))

    def test_unit_keys_unique(self):
        units = build_work_units(token_clique_scenario(repetitions=7, trials_per_shard=3))
        keys = [unit.key for unit in units]
        assert len(set(keys)) == len(keys)


    @pytest.mark.parametrize("trials_per_shard", [1, 2])
    def test_unit_plan_seeds_follow_the_cell(self, trials_per_shard):
        """Cell seeds derived once per size give each unit the seeds of
        its own cell and trials."""
        scenario = token_clique_scenario(
            protocols=(ProtocolConfig("token"), ProtocolConfig("star")),
            trials_per_shard=trials_per_shard,
            schedule=ScheduleConfig("edge-churn"),
        )
        units = build_work_units(scenario)
        for unit, plan in zip(units, build_unit_plans(scenario, units)):
            base = measure_seed(scenario.seed, unit.size_index)
            assert plan.graph_seed == graph_seed(scenario.seed, unit.size_index)
            assert plan.schedule_seed == scenario.schedule_seed(unit.size_index)
            assert plan.run_seeds == tuple(
                trial_seed(base, trial) for trial in range(unit.trial_lo, unit.trial_hi)
            )


#: Each builder's non-default parameters (the defaults are the other case).
_BUILDER_PARAMS = {
    "token": (),
    "identifier": (("identifier_bits", 12),),
    "fast": (("broadcast_repetitions", 2), ("tau", 0.75)),
    "star": (),
}


class TestUnitPlanSpecs:
    """Builder defaults are read once per builder; validation still runs."""

    @pytest.mark.parametrize("builder", sorted(_BUILDER_PARAMS))
    @pytest.mark.parametrize("explicit", [False, True])
    def test_unit_plan_spec_equals_config_spec(self, builder, explicit):
        params = _BUILDER_PARAMS[builder] if explicit else ()
        config = ProtocolConfig(builder, params)
        scenario = token_clique_scenario(protocols=(config,), repetitions=1)
        (plan,) = build_unit_plans(scenario, build_work_units(scenario)[:1])
        for spec in (plan.build_spec(), unit_plan_from_wire(unit_plan_to_wire(plan)).build_spec()):
            expected = ProtocolConfig(builder, params).build_spec()
            assert (spec.name, spec.spec_config, spec.paper_bound) == (
                expected.name,
                expected.spec_config,
                expected.paper_bound,
            )

    @pytest.mark.parametrize(
        "protocol",
        [
            {"builder": "token", "params": [["tau", 0.5]]},
            {"builder": "fast", "params": [["tau", 0.5], ["bogus", 1]]},
            {"builder": "warp", "params": []},
        ],
    )
    def test_wire_plan_with_unknown_protocol_raises(self, protocol):
        scenario = token_clique_scenario(repetitions=1)
        (plan,) = build_unit_plans(scenario, build_work_units(scenario)[:1])
        wire = unit_plan_to_wire(plan)
        wire["protocol"] = protocol
        received = unit_plan_from_wire(wire)
        with pytest.raises(ScenarioError):
            received.build_spec()
        with pytest.raises(ScenarioError):
            execute_unit_plan(received)


class TestBitIdentity:
    def test_serial_matches_direct_harness_sweep(self):
        """Each orchestrated cell is the direct measurement on that cell's
        graph, measurement seed and step budget."""
        scenario = token_clique_scenario()
        (sweep,) = run_scenario(scenario, jobs=1, cache=False).sweeps
        assert len(sweep.measurements) == len(scenario.sizes)
        for index, (size, measured) in enumerate(zip(scenario.sizes, sweep.measurements)):
            graph = get_workload("clique").build(size, seed=graph_seed(scenario.seed, index))
            expected = measure_protocol_on_graph(
                token_protocol_spec(),
                graph,
                repetitions=scenario.repetitions,
                seed=measure_seed(scenario.seed, index),
                max_steps=default_step_budget(graph, multiplier=scenario.step_budget_multiplier),
            )
            assert measured.stabilization_steps == expected.stabilization_steps
            assert measured.certified_steps == expected.certified_steps
            assert measured.success_rate == expected.success_rate

    def test_parallel_bit_identical_to_serial(self):
        scenario = token_clique_scenario()
        serial = run_scenario(scenario, jobs=1, cache=False)
        parallel = run_scenario(scenario, jobs=2, cache=False)
        assert parallel.canonical_json() == serial.canonical_json()

    def test_shard_size_does_not_change_results(self):
        fine = run_scenario(token_clique_scenario(trials_per_shard=1), jobs=2, cache=False)
        coarse = run_scenario(token_clique_scenario(trials_per_shard=3), jobs=1, cache=False)
        assert_same_measurements(fine, coarse)

    def test_cached_rerun_bit_identical(self, tmp_path):
        scenario = token_clique_scenario()
        first = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        second = run_scenario(scenario, jobs=2, cache_dir=tmp_path)
        assert second.canonical_json() == first.canonical_json()


class TestCacheBehaviour:
    def test_completed_scenario_served_entirely_from_cache(self, tmp_path, monkeypatch):
        """Re-running a finished sweep executes zero work units / simulator steps."""
        scenario = token_clique_scenario()
        first = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        assert first.cache_hits == 0
        assert first.executed_units == first.total_units

        def bomb(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("cache hit must not execute any simulation")

        monkeypatch.setattr(runner_module, "execute_unit_plan", bomb)
        second = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        assert second.cache_hits == second.total_units
        assert second.executed_units == 0
        assert second.canonical_json() == first.canonical_json()

    def test_config_change_misses(self, tmp_path):
        scenario = token_clique_scenario()
        run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        changed = scenario.with_overrides(seed=scenario.seed + 1)
        rerun = run_scenario(changed, jobs=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.executed_units == rerun.total_units

    def test_no_cache_never_touches_store(self, tmp_path):
        scenario = token_clique_scenario()
        run_scenario(scenario, jobs=1, cache=False, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_resume_after_interrupt_recomputes_only_missing_shards(self, tmp_path, monkeypatch):
        """Kill a sweep partway; the next run reuses every finished shard."""
        scenario = token_clique_scenario()
        real_execute = runner_module.execute_unit_plan
        calls = {"count": 0}

        def dies_after_three(*args, **kwargs):
            if calls["count"] >= 3:
                raise KeyboardInterrupt("simulated interrupt mid-sweep")
            calls["count"] += 1
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(runner_module, "execute_unit_plan", dies_after_three)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        monkeypatch.setattr(runner_module, "execute_unit_plan", real_execute)

        resumed = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        assert resumed.cache_hits == 3
        assert resumed.executed_units == resumed.total_units - 3
        fresh = run_scenario(scenario, jobs=1, cache=False)
        assert resumed.canonical_json() == fresh.canonical_json()

    def test_corrupted_shard_recomputed(self, tmp_path):
        scenario = token_clique_scenario()
        first = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        store = ResultStore(tmp_path)
        victim = store.unit_path(scenario, build_work_units(scenario)[0].key)
        victim.write_text("garbage", encoding="utf-8")
        rerun = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        assert rerun.cache_hits == rerun.total_units - 1
        assert rerun.executed_units == 1
        assert rerun.canonical_json() == first.canonical_json()


def mixed_scenario(**overrides):
    """Token, identifier and fast on random 3-regular graphs.

    At seed 3 the fast protocol's per-trial ``B(G)`` calibration gives
    the trials of one cell different clock parameters.
    """
    fields = dict(
        name="orch-cells",
        workload="random-regular",
        sizes=(8, 12),
        protocols=(
            ProtocolConfig("token"),
            ProtocolConfig("identifier"),
            ProtocolConfig("fast"),
        ),
        repetitions=4,
        seed=3,
    )
    fields.update(overrides)
    return Scenario(**fields)


def measured(result):
    """The measured values of a run, without the scenario's identity."""
    return [sweep["per_size"] for sweep in result.to_canonical_dict()["sweeps"]]


def refuse_builder(monkeypatch, builder):
    """Make every spec of ``builder`` raise when it builds a protocol."""
    real = ProtocolConfig.build_spec

    def build_spec(config):
        spec = real(config)
        if config.builder != builder:
            return spec

        def refuse(*args):
            raise AssertionError(f"a {builder} cell was prepared")

        return dataclasses.replace(spec, factory=refuse, batch_factory=refuse)

    monkeypatch.setattr(ProtocolConfig, "build_spec", build_spec)


class TestCellPreparation:
    """In-process runs prepare each cell once; the bytes never change."""

    def test_cells_carry_per_trial_protocols(self):
        scenario = mixed_scenario()
        units = build_work_units(scenario)
        plans = build_unit_plans(scenario, units)
        fast = [plan for unit, plan in zip(units, plans) if unit.spec_index == 2]
        cells = [runner_module.prepare_cell(fast[lo : lo + 4]) for lo in (0, 4)]
        keys = [{p.compile_key() for p in cell.protocols.values()} for cell in cells]
        assert max(len(cell_keys) for cell_keys in keys) > 1

    def test_every_placement_and_shard_size_is_byte_identical(self):
        scenario = mixed_scenario()
        serial = run_scenario(scenario, jobs=1, cache=False)
        units = build_work_units(scenario)
        one_by_one = {
            plan.unit_key: execute_unit_plan(plan) for plan in build_unit_plans(scenario, units)
        }
        alone = dataclasses.replace(
            serial, sweeps=runner_module.aggregate_unit_payloads(scenario, units, one_by_one)
        )
        assert alone.canonical_json() == serial.canonical_json()
        assert run_scenario(scenario, jobs=2, cache=False).canonical_json() == (
            serial.canonical_json()
        )
        for trials_per_shard in (1, 2, 3):
            sharded = run_scenario(
                scenario.with_overrides(trials_per_shard=trials_per_shard), jobs=1, cache=False
            )
            assert measured(sharded) == measured(serial)

    def test_one_calibration_stack_per_pending_fast_cell(self, monkeypatch):
        import repro.analytics.estimators as estimators

        calls = []
        real = estimators.batched_broadcast_estimates

        def spy(graph, bases, *args, **kwargs):
            calls.append(len(bases))
            return real(graph, bases, *args, **kwargs)

        monkeypatch.setattr(estimators, "batched_broadcast_estimates", spy)
        scenario = mixed_scenario()
        run_scenario(scenario, jobs=1, cache=False)
        assert calls == [scenario.repetitions] * len(scenario.sizes)

    def test_cells_served_from_the_store_prepare_nothing(self, tmp_path, monkeypatch):
        scenario = mixed_scenario()
        first = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        store = ResultStore(tmp_path)
        for unit in build_work_units(scenario):
            if unit.spec_index == 0:
                store.unit_path(scenario, unit.key).unlink()
        refuse_builder(monkeypatch, "fast")
        refuse_builder(monkeypatch, "identifier")
        rerun = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        assert rerun.executed_units == scenario.repetitions * len(scenario.sizes)
        assert rerun.canonical_json() == first.canonical_json()

    def test_a_partly_stored_cell_prepares_only_its_missing_trials(self, tmp_path, monkeypatch):
        scenario = mixed_scenario()
        first = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        store = ResultStore(tmp_path)
        missing = [
            unit for unit in build_work_units(scenario)
            if unit.spec_index == 2 and unit.size_index == 1 and unit.trial_lo in (1, 3)
        ]
        for unit in missing:
            store.unit_path(scenario, unit.key).unlink()
        prepared = []
        real = runner_module.build_trial_protocols

        def spy(spec, graph, run_seeds):
            prepared.append((spec.name, list(run_seeds)))
            return real(spec, graph, run_seeds)

        monkeypatch.setattr(runner_module, "build_trial_protocols", spy)
        rerun = run_scenario(scenario, jobs=1, cache_dir=tmp_path)
        (plan_one, plan_three) = build_unit_plans(scenario, missing)
        assert prepared == [
            ("fast-space-efficient", list(plan_one.run_seeds + plan_three.run_seeds))
        ]
        assert rerun.canonical_json() == first.canonical_json()


class TestScenarioResult:
    def test_sweep_for(self):
        result = run_scenario(
            token_clique_scenario(protocols=(ProtocolConfig("token"),)),
            jobs=1,
            cache=False,
        )
        assert result.sweep_for("token-6state").protocol_name == "token-6state"
        with pytest.raises(KeyError):
            result.sweep_for("bogus")

    def test_single_size_scenario_has_no_fit_but_runs(self):
        scenario = Scenario(
            name="single",
            workload="star",
            sizes=(8,),
            protocols=(ProtocolConfig("star"),),
            repetitions=2,
        )
        result = run_scenario(scenario, jobs=1, cache=False)
        assert result.to_canonical_dict()["sweeps"][0]["fit"] is None

    def test_canonical_dict_excludes_provenance(self):
        result = run_scenario(token_clique_scenario(), jobs=1, cache=False)
        canonical = result.to_canonical_dict()
        assert "wall_time_seconds" not in canonical
        assert "cache_hits" not in str(canonical.keys())


class TestTable1Integration:
    def test_run_table1_family_through_orchestrator_with_jobs(self, tmp_path):
        from repro.experiments import run_table1_family

        serial = run_table1_family(
            "clique", sizes=[8, 12], specs=[token_protocol_spec()], repetitions=2, seed=3
        )
        parallel = run_table1_family(
            "clique",
            sizes=[8, 12],
            specs=[token_protocol_spec()],
            repetitions=2,
            seed=3,
            jobs=2,
            cache=True,
            cache_dir=str(tmp_path),
        )
        assert parallel.rows[0].mean_steps == serial.rows[0].mean_steps
        assert parallel.rows[0].fitted_exponent == serial.rows[0].fitted_exponent

    def test_raw_factory_specs_are_refused_by_name(self):
        from repro.experiments import ProtocolSpec, run_table1_family
        from repro.protocols.star import StarLeaderElection

        raw = ProtocolSpec(name="raw-star", factory=lambda graph, seed: StarLeaderElection())
        for jobs in (1, 2):
            with pytest.raises(ScenarioError, match="'raw-star' was built from a raw factory"):
                run_table1_family("star", sizes=[6, 10], specs=[raw], repetitions=1, jobs=jobs)
