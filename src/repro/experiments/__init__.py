"""Experiment harness: workloads, sweeps and Table 1 drivers."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "figures": (
            "broadcast_scaling_series",
            "fit_series_exponents",
            "hitting_time_scaling_series",
            "read_csv",
            "stabilization_scaling_series",
            "write_csv",
            "write_json",
        ),
        "harness": (
            "DegenerateSweepError",
            "Measurement",
            "ProtocolSpec",
            "SweepResult",
            "compare_protocols_on_graph",
            "default_protocol_specs",
            "default_step_budget",
            "fast_protocol_spec",
            "identifier_protocol_spec",
            "measure_protocol_on_graph",
            "measurement_from_records",
            "run_measurement_trials",
            "star_protocol_spec",
            "token_protocol_spec",
            "trial_record_from_result",
        ),
        "reporting": (
            "format_number",
            "render_comparison",
            "render_markdown_table",
            "render_table",
        ),
        "table1": (
            "Table1Row",
            "Table1RowGroup",
            "expected_exponents",
            "graph_parameters_for",
            "run_star_row",
            "run_table1_family",
        ),
        "workloads": (
            "Workload",
            "available_workloads",
            "get_workload",
            "renitent_star_construction",
        ),
    },
)
