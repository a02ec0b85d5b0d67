"""The benchmark's workloads: registered scenarios, re-sized, seeded.

Every workload is a list of registered scenarios with size overrides;
the benchmark seed reaches the program only as
``Scenario.with_overrides(seed=...)``.  ``scale="tiny"`` shrinks each
workload to a seconds-long smoke run of the same code paths.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

WORKLOAD_NAMES = ("table1-sweep", "torus-token", "torus-million")

#: How each workload is driven: warm and in-process, or one cold child
#: process per run.
KIND = {
    "table1-sweep": "inprocess",
    "torus-token": "inprocess",
    "torus-million": "cold",
}

#: Workloads whose every trial must stabilize with exactly one leader.
MUST_STABILIZE = ("table1-sweep", "torus-token")

DEFAULT_SEED = 0

#: Scenarios the torus-token workload is split into.
TORUS_PARTS = 12

TABLE1 = (
    "table1-clique",
    "table1-cycle",
    "table1-dense-random",
    "table1-regular",
    "table1-renitent",
    "table1-stars",
    "table1-torus",
)


def scenarios(name: str, seed: int, scale: str = "full") -> List[Any]:
    """The workload's scenarios for one seed."""
    from repro.orchestration import get_scenario

    tiny = scale == "tiny"
    if name == "table1-sweep":
        chosen = []
        for registered in TABLE1:
            base = get_scenario(registered)
            if tiny:
                chosen.append(base.with_overrides(sizes=base.sizes[:2], repetitions=1, seed=seed))
                continue
            # Repetitions x6, except the renitent row (x2), whose 4-copies
            # graphs would otherwise take most of the run.
            factor = 2 if registered == "table1-renitent" else 6
            chosen.append(base.with_overrides(repetitions=base.repetitions * factor, seed=seed))
        return chosen
    if name == "torus-token":
        # Many trials of mid-sized tori, so that the total work of a run
        # varies little from seed to seed (a trial's stabilization time
        # spreads by ~45%), split into short scenarios, each with a seed of
        # its own, so that the timing can take a median per scenario.
        sizes, repetitions, parts = ((16, 36), 2, 2) if tiny else ((100, 144), 8, TORUS_PARTS)
        base = get_scenario("torus-large")
        return [
            base.with_overrides(sizes=sizes, repetitions=repetitions, seed=seed * parts + part)
            for part in range(parts)
        ]
    if name == "torus-million":
        base = get_scenario("torus-million")
        return [base.with_overrides(sizes=(4096,) if tiny else base.sizes, seed=seed)]
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")


def prepare(scenario_list: Sequence[Any]) -> None:
    """Make a fresh process ready to run: graphs built, tables compiled.

    Mirrors what the orchestrator warms before it forks workers, through
    public calls only: every (protocol, size) cell's graph is built into
    the process memo and its protocol's transition tables are compiled.
    """
    from repro.engine import ProtocolCompilationError, compilation_worthwhile, get_compiled
    from repro.orchestration import build_unit_plans, build_work_units

    for scenario in scenario_list:
        seen = set()
        for plan in build_unit_plans(scenario, build_work_units(scenario)):
            cell = (plan.protocol, plan.size, plan.graph_seed)
            if cell in seen:
                continue
            seen.add(cell)
            graph = plan.build_graph()
            protocol = plan.build_spec().factory(graph, plan.run_seeds[0])
            if compilation_worthwhile(protocol):
                try:
                    get_compiled(protocol)
                except ProtocolCompilationError:
                    pass


def run(scenario_list: Sequence[Any], **kwargs: Any) -> List[Any]:
    """Run every scenario through the public entry point, in order."""
    import repro.orchestration as orchestration

    return [orchestration.run_scenario(scenario, jobs=1, **kwargs) for scenario in scenario_list]


def canonical(results: Sequence[Any]) -> str:
    return "\n".join(result.canonical_json() for result in results)


def digest(results: Sequence[Any]) -> str:
    return hashlib.sha256(canonical(results).encode("utf-8")).hexdigest()


def step_count(results: Sequence[Any]) -> int:
    """Simulated interactions: sum of certified mean steps x trials."""
    total = 0.0
    for result in results:
        for sweep in result.to_canonical_dict()["sweeps"]:
            for cell in sweep["per_size"]:
                total += cell["certified_mean_steps"] * cell["n_trials"]
    return int(round(total))


def unit_count(results: Sequence[Any]) -> int:
    return sum(result.total_units for result in results)


def all_stabilized(results: Sequence[Any]) -> bool:
    """Every trial stabilized with exactly one leader."""
    return all(
        cell["success_rate"] == 1.0
        for result in results
        for sweep in result.to_canonical_dict()["sweeps"]
        for cell in sweep["per_size"]
    )


def summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Digest, work counts and the stabilization check of one result set."""
    return {
        "digest": digest(results),
        "steps": step_count(results),
        "units": unit_count(results),
        "stabilized": all_stabilized(results),
    }
