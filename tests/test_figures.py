"""Tests for the scaling-series generators and CSV/JSON export."""

from __future__ import annotations

import json

import pytest

from repro.core.seeds import graph_seed, measure_seed
from repro.experiments import (
    broadcast_scaling_series,
    default_step_budget,
    fit_series_exponents,
    get_workload,
    hitting_time_scaling_series,
    identifier_protocol_spec,
    measure_protocol_on_graph,
    read_csv,
    stabilization_scaling_series,
    token_protocol_spec,
    star_protocol_spec,
    write_csv,
    write_json,
)


class TestStabilizationSeries:
    def test_rows_per_protocol_and_size(self):
        rows = stabilization_scaling_series(
            "clique",
            sizes=[10, 16],
            specs=[token_protocol_spec()],
            repetitions=2,
            seed=0,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["family"] == "clique"
            assert row["protocol"] == "token-6state"
            assert row["mean_steps"] > 0
            assert row["success_rate"] == 1.0

    def test_rows_are_the_per_cell_measurements_size_by_size(self):
        """Row ``(size i, spec j)`` is spec ``j`` measured on size ``i``'s
        graph with that size's measurement seed and step budget, and the
        rows run size by size, each size's rows in spec order."""
        specs = [token_protocol_spec(), identifier_protocol_spec()]
        sizes, repetitions, seed, multiplier = [8, 12], 2, 1, 100.0
        rows = stabilization_scaling_series(
            "cycle", sizes, specs=specs, repetitions=repetitions, seed=seed
        )
        expected = []
        for index, size in enumerate(sizes):
            graph = get_workload("cycle").build(size, seed=graph_seed(seed, index))
            for spec in specs:
                measurement = measure_protocol_on_graph(
                    spec,
                    graph,
                    repetitions=repetitions,
                    seed=measure_seed(seed, index),
                    max_steps=default_step_budget(graph, multiplier=multiplier),
                )
                expected.append(
                    {
                        "family": "cycle",
                        "protocol": spec.name,
                        "n": graph.n_nodes,
                        "m": graph.n_edges,
                        "mean_steps": measurement.stabilization_steps.mean,
                        "q90_steps": measurement.stabilization_steps.q90,
                        "success_rate": measurement.success_rate,
                        "states_observed": measurement.max_states_observed,
                    }
                )
        assert rows == expected

    def test_star_series_with_trivial_protocol(self):
        rows = stabilization_scaling_series(
            "star", sizes=[10, 20], specs=[star_protocol_spec()], repetitions=2, seed=1
        )
        assert all(row["mean_steps"] <= 10 for row in rows)


class TestBroadcastAndHittingSeries:
    def test_broadcast_series(self):
        rows = broadcast_scaling_series(["clique", "cycle"], sizes=[12, 20], repetitions=2, seed=2)
        assert len(rows) == 4
        cycle_rows = [r for r in rows if r["family"] == "cycle"]
        assert cycle_rows[1]["broadcast_time"] > cycle_rows[0]["broadcast_time"]

    def test_hitting_series(self):
        rows = hitting_time_scaling_series(["clique", "cycle"], sizes=[10, 20])
        clique_rows = {r["n"]: r["hitting_time"] for r in rows if r["family"] == "clique"}
        assert clique_rows[10] == pytest.approx(9.0)
        assert clique_rows[20] == pytest.approx(19.0)


class TestFits:
    def test_fit_series_exponents_groups_by_family(self):
        rows = hitting_time_scaling_series(["clique", "cycle"], sizes=[10, 20, 40])
        fits = fit_series_exponents(rows, value_key="hitting_time", group_keys=["family"])
        by_family = {fit["family"]: fit for fit in fits}
        # H(clique_n) = n - 1 (exponent ~1), H(cycle_n) = Θ(n^2).
        assert by_family["clique"]["exponent"] == pytest.approx(1.0, abs=0.1)
        assert by_family["cycle"]["exponent"] == pytest.approx(2.0, abs=0.15)

    def test_fit_skips_singleton_groups(self):
        rows = [{"family": "x", "n": 10, "v": 5.0}]
        assert fit_series_exponents(rows, value_key="v", group_keys=["family"]) == []


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        rows = [{"family": "clique", "n": 10, "value": 3.5}, {"family": "cycle", "n": 12, "value": 7.0}]
        path = write_csv(rows, tmp_path / "series.csv")
        assert path.exists()
        loaded = read_csv(path)
        assert len(loaded) == 2
        assert loaded[0]["family"] == "clique"
        assert float(loaded[1]["value"]) == 7.0

    def test_csv_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = write_csv(rows, tmp_path / "union.csv")
        loaded = read_csv(path)
        assert set(loaded[0].keys()) == {"a", "b"}

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")

    def test_json_export(self, tmp_path):
        rows = [{"n": 10, "value": 1.5}]
        path = write_json(rows, tmp_path / "out" / "series.json")
        assert path.exists()
        assert json.loads(path.read_text())[0]["n"] == 10
