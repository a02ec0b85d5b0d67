"""Drivers that regenerate the rows of the paper's Table 1.

Table 1 summarises, per graph family, the expected stabilization time and
state complexity of (a) the identifier protocol (Theorem 21), (b) the fast
space-efficient protocol (Theorem 24), and (c) the 6-state token protocol
(Theorem 16), plus the trivial protocol on stars and the ``Ω(B(G))`` lower
bound on renitent graphs.  Each driver here produces the measured analogue
of one row group: for every protocol a sweep over population sizes, the
fitted growth exponent, and the analytic quantity the paper parameterises
the bound with (``B(G)``, ``H(G)``, conductance) so the two can be printed
side by side.

The sweeps run through :func:`repro.orchestration.run_scenario`, the
package's one size-sweep entry point: a row group is one scenario, and
this module only turns its sweeps into rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.scaling import PowerLawFit
from ..graphs.graph import Graph
from ..graphs.properties import conductance, edge_expansion_estimate
from ..propagation.broadcast import broadcast_time_estimate
from ..walks.classic import worst_case_hitting_time
from .harness import (
    DegenerateSweepError,
    ProtocolSpec,
    SweepResult,
    default_protocol_specs,
    star_protocol_spec,
)
from .reporting import render_table


@dataclass
class Table1Row:
    """One measured row of Table 1: a protocol on a graph family."""

    family: str
    protocol: str
    paper_bound: str
    sizes: List[int]
    mean_steps: List[float]
    fitted_exponent: float
    fit_r_squared: float
    states_observed: int
    success_rate: float

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "protocol": self.protocol,
            "paper_bound": self.paper_bound,
            "sizes": "/".join(str(s) for s in self.sizes),
            "mean_steps": "/".join(f"{v:.0f}" for v in self.mean_steps),
            "exponent": round(self.fitted_exponent, 2),
            "r2": round(self.fit_r_squared, 3),
            "states": self.states_observed,
            "success": self.success_rate,
        }


@dataclass
class Table1RowGroup:
    """All protocols measured on one graph family, plus graph parameters."""

    family: str
    rows: List[Table1Row]
    graph_parameters: Dict[str, float]

    def render(self) -> str:
        """Fixed-width text rendering of this row group."""
        params = ", ".join(
            f"{key}={value:.3g}" for key, value in sorted(self.graph_parameters.items())
        )
        title = f"Table 1 — {self.family} ({params})"
        return render_table([row.as_dict() for row in self.rows], title=title)


def graph_parameters_for(graph: Graph, estimate_broadcast: bool = True, seed: int = 0) -> Dict[str, float]:
    """The analytic quantities Table 1 parameterises its bounds with."""
    params: Dict[str, float] = {
        "n": float(graph.n_nodes),
        "m": float(graph.n_edges),
        "D": float(graph.diameter()),
    }
    expansion = edge_expansion_estimate(graph)
    params["beta"] = expansion.value
    params["phi"] = conductance(graph, expansion.value)
    if graph.n_nodes <= 200:
        params["H(G)"] = worst_case_hitting_time(graph)
    if estimate_broadcast:
        params["B(G)"] = broadcast_time_estimate(
            graph, repetitions=4, max_sources=6, rng=seed
        ).value
    return params


def run_table1_family(
    family: str,
    sizes: Sequence[int],
    specs: Optional[Sequence[ProtocolSpec]] = None,
    repetitions: int = 3,
    seed: int = 0,
    step_budget_multiplier: float = 60.0,
    engine: str = "auto",
    jobs: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> Table1RowGroup:
    """Measure all protocols on one Table 1 graph family.

    Parameters
    ----------
    family:
        Workload name (see :mod:`repro.experiments.workloads`).
    sizes:
        Population sizes to sweep (at least two for the scaling fit).
    specs:
        Protocol specifications; defaults to the three Table 1 protocols.
    repetitions:
        Monte-Carlo repetitions per (protocol, size).
    seed:
        Base seed for reproducibility.
    step_budget_multiplier:
        Scales the per-run step budget (see ``default_step_budget``).
    engine:
        Execution engine for the simulations (see
        :class:`~repro.core.simulator.Simulator`).  The default ``"auto"``
        uses the compiled engine where possible; measured values are
        identical to the reference interpreter for any given seed.
    jobs / cache / cache_dir:
        Forwarded to :func:`repro.orchestration.run_scenario`: worker
        processes to shard the trials over, and whether to reuse / persist
        finished shards in the result store.  Any combination produces the
        same measured values as the serial, uncached path.  Caching is off
        by default here because benchmarks call this driver to *measure*
        wall-clock.

    The sweep runs as one scenario, ``table1-<family>``, through
    :func:`repro.orchestration.run_scenario`, so every spec must be
    declarative (every bundled spec is): a spec built from a raw factory
    is refused with a :class:`~repro.orchestration.scenario.ScenarioError`
    naming it.
    """
    if len(sizes) < 2:
        raise ValueError("need at least two sizes for a scaling fit")
    from ..orchestration import Scenario, run_scenario
    from ..orchestration.runner import scenario_graph

    if specs is None:
        specs = default_protocol_specs()
    scenario = Scenario.from_specs(
        name=f"table1-{family}",
        workload=family,
        sizes=sizes,
        specs=specs,
        repetitions=repetitions,
        seed=seed,
        step_budget_multiplier=step_budget_multiplier,
        engine=engine,
    )
    sweeps = run_scenario(scenario, jobs=jobs, cache=cache, cache_dir=cache_dir).sweeps
    rows = [
        _row_from_sweep(family, spec, sweep) for spec, sweep in zip(specs, sweeps)
    ]
    return Table1RowGroup(
        family=family,
        rows=rows,
        graph_parameters=graph_parameters_for(
            scenario_graph(scenario, len(sizes) - 1), seed=seed
        ),
    )


def _row_from_sweep(family: str, spec: ProtocolSpec, sweep: SweepResult) -> Table1Row:
    try:
        fit: Optional[PowerLawFit] = sweep.fit(log_exponent=0.0)
    except DegenerateSweepError:
        # Workload rounding can collapse nominally distinct sizes (tori
        # snap to square side lengths, hypercubes to powers of two); the
        # row is still reported, just without a growth exponent.
        fit = None
    return Table1Row(
        family=family,
        protocol=spec.name,
        paper_bound=spec.paper_bound,
        sizes=[m.n_nodes for m in sweep.measurements],
        mean_steps=sweep.mean_steps(),
        fitted_exponent=fit.exponent if fit is not None else float("nan"),
        fit_r_squared=fit.r_squared if fit is not None else float("nan"),
        states_observed=max(m.max_states_observed for m in sweep.measurements),
        success_rate=min(m.success_rate for m in sweep.measurements),
    )


def run_star_row(
    sizes: Sequence[int],
    repetitions: int = 5,
    seed: int = 0,
    engine: str = "auto",
) -> Table1RowGroup:
    """The "Stars: O(1) time, O(1) states" row, using the trivial protocol."""
    return run_table1_family(
        "star",
        sizes,
        specs=[star_protocol_spec()],
        repetitions=repetitions,
        seed=seed,
        engine=engine,
    )


def expected_exponents() -> Dict[str, Dict[str, float]]:
    """The growth exponents (in ``n``, ignoring polylog factors) Table 1 predicts.

    Used by benchmarks and EXPERIMENTS.md as the "paper" column: e.g. on
    cliques the identifier protocol is ``Θ(n log n)`` → exponent 1, and the
    token protocol is ``Θ(n^2)`` → exponent 2.
    """
    return {
        "clique": {
            "identifier-broadcast": 1.0,
            "fast-space-efficient": 1.0,
            "token-6state": 2.0,
        },
        "dense-gnp": {
            "identifier-broadcast": 1.0,
            "fast-space-efficient": 1.0,
            "token-6state": 2.0,
        },
        "cycle": {
            # B(G) ∈ Θ(n^2) and H(G) ∈ Θ(n^2) on cycles.
            "identifier-broadcast": 2.0,
            "fast-space-efficient": 2.0,
            "token-6state": 3.0,
        },
        "star": {
            "star-trivial": 0.0,
        },
        "random-regular": {
            # Constant conductance: B(G) ∈ Θ(n log n), H(G) ∈ Θ(n).
            "identifier-broadcast": 1.0,
            "fast-space-efficient": 1.0,
            "token-6state": 2.0,
        },
        "torus": {
            # B(G) ∈ Θ(n^{3/2}), H(G) ∈ Θ(n log n) on 2-D tori.
            "identifier-broadcast": 1.5,
            "fast-space-efficient": 1.5,
            "token-6state": 2.0,
        },
        "renitent-star": {
            # The Lemma 38 construction with ℓ ∈ Θ(n), m ∈ Θ(n): B ∈ Θ(n^2).
            "identifier-broadcast": 2.0,
            "fast-space-efficient": 2.0,
            "token-6state": 2.0,
        },
    }
