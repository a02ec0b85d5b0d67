"""Scaling-series ("figure") generators and CSV export.

The paper contains no data plots, but its Table 1 is naturally visualised
as a family of scaling curves: stabilization steps vs population size per
(protocol, graph family), broadcast time vs size per family, and space
usage vs size per protocol.  This module produces those series as plain
lists of dictionaries — ready to be dumped to CSV (:func:`write_csv`) or
rendered with any plotting tool — and is what the `repro-popsim`-driven
reproducibility workflow uses to archive raw numbers behind EXPERIMENTS.md.

The stabilization series is a size sweep and runs through
:func:`repro.orchestration.run_scenario`, as the Table 1 row groups do; the
broadcast and hitting-time series measure one graph per size directly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..analysis.scaling import fit_power_law
from ..core.seeds import graph_seed, measure_seed
from ..propagation.broadcast import broadcast_time_estimate
from ..walks.classic import worst_case_hitting_time
from .harness import ProtocolSpec, default_protocol_specs
from .workloads import get_workload

PathLike = Union[str, Path]


def stabilization_scaling_series(
    family: str,
    sizes: Sequence[int],
    specs: Optional[Sequence[ProtocolSpec]] = None,
    repetitions: int = 3,
    seed: int = 0,
    step_budget_multiplier: float = 100.0,
    engine: str = "auto",
) -> List[Dict[str, object]]:
    """Stabilization steps vs population size for every protocol.

    Returns one row per (protocol, size) with mean/q90 steps, success rate
    and observed state counts — the raw data behind a Table 1 row group —
    size by size, each size's rows in ``specs`` order.  The sweep is one
    uncached scenario, ``series-<family>``, run through
    :func:`repro.orchestration.run_scenario`.
    """
    from ..orchestration import Scenario, run_scenario

    scenario = Scenario.from_specs(
        name=f"series-{family}",
        workload=family,
        sizes=sizes,
        specs=default_protocol_specs() if specs is None else specs,
        repetitions=repetitions,
        seed=seed,
        step_budget_multiplier=step_budget_multiplier,
        engine=engine,
    )
    sweeps = run_scenario(scenario, cache=False).sweeps
    rows: List[Dict[str, object]] = []
    for size_index in range(len(scenario.sizes)):
        for sweep in sweeps:
            measurement = sweep.measurements[size_index]
            rows.append(
                {
                    "family": family,
                    "protocol": sweep.protocol_name,
                    "n": measurement.n_nodes,
                    "m": measurement.n_edges,
                    "mean_steps": measurement.stabilization_steps.mean,
                    "q90_steps": measurement.stabilization_steps.q90,
                    "success_rate": measurement.success_rate,
                    "states_observed": measurement.max_states_observed,
                }
            )
    return rows


def broadcast_scaling_series(
    families: Sequence[str],
    sizes: Sequence[int],
    repetitions: int = 4,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Measured ``B(G)`` vs population size for the given workload families."""
    rows: List[Dict[str, object]] = []
    for family in families:
        workload = get_workload(family)
        for index, size in enumerate(sizes):
            graph = workload.build(size, seed=graph_seed(seed, index))
            estimate = broadcast_time_estimate(
                graph, repetitions=repetitions, max_sources=6, rng=measure_seed(seed, index)
            )
            rows.append(
                {
                    "family": family,
                    "n": graph.n_nodes,
                    "m": graph.n_edges,
                    "broadcast_time": estimate.value,
                }
            )
    return rows


def hitting_time_scaling_series(
    families: Sequence[str],
    sizes: Sequence[int],
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Exact worst-case hitting time ``H(G)`` vs size per family."""
    rows: List[Dict[str, object]] = []
    for family in families:
        workload = get_workload(family)
        for index, size in enumerate(sizes):
            graph = workload.build(size, seed=graph_seed(seed, index))
            rows.append(
                {
                    "family": family,
                    "n": graph.n_nodes,
                    "hitting_time": worst_case_hitting_time(graph),
                }
            )
    return rows


def fit_series_exponents(
    rows: Sequence[Dict[str, object]],
    value_key: str,
    group_keys: Sequence[str] = ("family", "protocol"),
) -> List[Dict[str, object]]:
    """Fit a power law in ``n`` to each group of a scaling series.

    Groups rows by ``group_keys``, fits ``value_key ~ C·n^a`` and returns
    one summary row per group with the fitted exponent and R².
    """
    groups: Dict[tuple, List[Dict[str, object]]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in group_keys if k in row)
        groups.setdefault(key, []).append(row)
    summaries: List[Dict[str, object]] = []
    for key, members in groups.items():
        sizes = [float(member["n"]) for member in members]
        values = [float(member[value_key]) for member in members]
        if len(sizes) < 2:
            continue
        fit = fit_power_law(sizes, values)
        summary: Dict[str, object] = {
            k: v for k, v in zip([g for g in group_keys if g in members[0]], key)
        }
        summary.update(
            {
                "points": len(members),
                "exponent": fit.exponent,
                "constant": fit.constant,
                "r_squared": fit.r_squared,
            }
        )
        summaries.append(summary)
    return summaries


def write_csv(rows: Sequence[Dict[str, object]], path: PathLike) -> Path:
    """Write a scaling series to CSV (columns = union of row keys)."""
    rows = list(rows)
    if not rows:
        raise ValueError("cannot write an empty series")
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with destination.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return destination


def write_json(rows: Sequence[Dict[str, object]], path: PathLike) -> Path:
    """Write a scaling series to JSON (list of row objects)."""
    rows = list(rows)
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(rows, indent=2, default=float))
    return destination


def read_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read a series back from CSV (values come back as strings)."""
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))
