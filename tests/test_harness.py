"""Tests for the experiment harness (protocol specs, sweeps, fits)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    DegenerateSweepError,
    compare_protocols_on_graph,
    default_protocol_specs,
    default_step_budget,
    fast_protocol_spec,
    identifier_protocol_spec,
    measure_protocol_on_graph,
    run_table1_family,
    star_protocol_spec,
    token_protocol_spec,
)
from repro.graphs import clique, star


class TestProtocolSpecs:
    def test_default_specs_cover_the_three_table1_protocols(self):
        names = {spec.name for spec in default_protocol_specs()}
        assert names == {"token-6state", "identifier-broadcast", "fast-space-efficient"}

    def test_token_spec_builds_protocol(self):
        spec = token_protocol_spec()
        protocol = spec.factory(clique(10), 0)
        assert protocol.state_space_size() == 6
        assert "H(G)" in spec.paper_bound

    def test_identifier_spec_adapts_to_graph(self):
        spec = identifier_protocol_spec()
        regular = spec.factory(clique(16), 0)
        irregular = spec.factory(star(16), 0)
        assert regular.identifier_bits < irregular.identifier_bits

    def test_fast_spec_uses_broadcast_estimate(self):
        spec = fast_protocol_spec()
        protocol = spec.factory(clique(16), 0)
        assert protocol.parameters.phase_length >= 2

    def test_star_spec(self):
        spec = star_protocol_spec()
        protocol = spec.factory(star(10), 0)
        assert protocol.state_space_size() == 3


class TestMeasurements:
    def test_measurement_aggregates_repetitions(self):
        measurement = measure_protocol_on_graph(
            token_protocol_spec(), clique(12), repetitions=3, seed=1
        )
        assert measurement.stabilization_steps.n_samples == 3
        assert measurement.success_rate == 1.0
        assert measurement.n_nodes == 12
        assert measurement.max_states_observed <= 6
        assert measurement.state_space_size == 6

    def test_measurement_as_dict(self):
        measurement = measure_protocol_on_graph(
            token_protocol_spec(), clique(10), repetitions=2, seed=2
        )
        row = measurement.as_dict()
        for key in ("protocol", "graph", "n", "m", "mean_steps", "success_rate"):
            assert key in row

    def test_keep_results(self):
        measurement = measure_protocol_on_graph(
            token_protocol_spec(), clique(10), repetitions=2, seed=3, keep_results=True
        )
        assert len(measurement.results) == 2

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            measure_protocol_on_graph(token_protocol_spec(), clique(10), repetitions=0)

    def test_budget_exhaustion_lowers_success_rate(self):
        measurement = measure_protocol_on_graph(
            token_protocol_spec(), clique(20), repetitions=2, seed=4, max_steps=5
        )
        assert measurement.success_rate == 0.0

    def test_compare_protocols(self):
        results = compare_protocols_on_graph(
            [token_protocol_spec(), star_protocol_spec()], star(10), repetitions=2, seed=5
        )
        assert set(results) == {"token-6state", "star-trivial"}


class TestSweeps:
    def test_sweep_and_fit(self):
        (row,) = run_table1_family(
            "clique", sizes=[10, 16, 24], specs=[token_protocol_spec()], repetitions=2, seed=0
        ).rows
        assert len(row.mean_steps) == 3
        assert row.sizes == [10, 16, 24]
        # Θ(n^2) on cliques: the fitted exponent should be clearly
        # super-linear even at these tiny sizes.
        assert row.fitted_exponent > 1.2
        assert all(steps > 0 for steps in row.mean_steps)

    def test_step_budget_monotone_in_n(self):
        assert default_step_budget(clique(40)) > default_step_budget(clique(10))

    def test_trial_seeds_shard_invariant(self):
        """Measurements depend only on (seed, trial index), not batch shape."""
        from repro.experiments import run_measurement_trials

        graph = clique(10)
        spec = token_protocol_spec()
        full, _ = run_measurement_trials(spec, graph, range(4), seed=9)
        first, _ = run_measurement_trials(spec, graph, range(0, 2), seed=9)
        second, _ = run_measurement_trials(spec, graph, range(2, 4), seed=9)
        sharded = first + second
        for a, b in zip(full, sharded):
            assert a.stabilization_step == b.stabilization_step
            assert a.certified_step == b.certified_step
            assert a.leaders == b.leaders


class TestDegenerateFits:
    def _sweep_with(self, sizes_and_means):
        from repro.analysis.estimators import summarize_samples
        from repro.experiments.harness import Measurement, SweepResult

        measurements = []
        for n, mean in sizes_and_means:
            stats = summarize_samples([mean])
            measurements.append(
                Measurement(
                    protocol_name="token-6state",
                    graph_name=f"g-{n}",
                    n_nodes=n,
                    n_edges=n,
                    stabilization_steps=stats,
                    certified_steps=stats,
                    success_rate=1.0,
                    max_states_observed=6,
                    state_space_size=6,
                )
            )
        return SweepResult(
            protocol_name="token-6state",
            workload_name="test",
            sizes=[n for n, _ in sizes_and_means],
            measurements=measurements,
        )

    def test_single_distinct_size_raises_clear_error(self):
        # Workload rounding can collapse nominally different sizes
        # (hypercubes snap to powers of two).
        sweep = self._sweep_with([(16, 100.0), (16, 110.0)])
        with pytest.raises(DegenerateSweepError, match="two distinct graph sizes"):
            sweep.fit()

    def test_zero_mean_raises_clear_error(self):
        sweep = self._sweep_with([(8, 0.0), (16, 120.0)])
        with pytest.raises(DegenerateSweepError, match="positive finite mean"):
            sweep.fit()

    def test_degenerate_error_is_a_value_error(self):
        sweep = self._sweep_with([(16, 100.0), (16, 110.0)])
        with pytest.raises(ValueError):
            sweep.fit()

    def test_healthy_grid_still_fits(self):
        sweep = self._sweep_with([(8, 64.0), (16, 256.0), (32, 1024.0)])
        assert abs(sweep.fit().exponent - 2.0) < 1e-9


class TestWallTimePropagation:
    """Per-trial wall times survive the harness layer (result schema v3)."""

    def test_trial_record_carries_wall_time(self):
        from repro.core.simulator import run_leader_election
        from repro.experiments.harness import TRIAL_RECORD_FIELDS, trial_record_from_result

        result = run_leader_election(
            token_protocol_spec().factory(clique(10), 0), clique(10), rng=3, engine="auto"
        )
        record = trial_record_from_result(result)
        assert "wall_time_seconds" in TRIAL_RECORD_FIELDS
        assert record["wall_time_seconds"] == pytest.approx(result.wall_time_seconds)
        assert record["wall_time_seconds"] > 0.0

    def test_measurement_aggregates_wall_time(self):
        measurement = measure_protocol_on_graph(
            token_protocol_spec(), clique(14), repetitions=3, seed=9
        )
        assert measurement.wall_time_seconds > 0.0
        assert measurement.as_dict()["wall_time_seconds"] == pytest.approx(
            measurement.wall_time_seconds
        )

    def test_records_without_wall_time_still_aggregate(self):
        # v2-era records (no wall_time_seconds) must keep aggregating; the
        # store never serves them (schema hash), but in-process callers may.
        from repro.experiments.harness import measurement_from_records

        records = [
            {
                "stabilization_step": 5,
                "certified_step": 6,
                "steps_executed": 6,
                "stabilized": True,
                "leaders": 1,
                "distinct_states": 4,
            }
        ]
        measurement = measurement_from_records("token-6state", clique(8), records, 6)
        assert measurement.wall_time_seconds == 0.0
