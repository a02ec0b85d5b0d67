"""Child processes of the benchmark (one role per invocation).

``run.py`` starts every measurement in a fresh interpreter so that set-up
time and peak memory belong to one process:

* ``prepare`` builds the native kernel and captures the environment;
* ``setup`` makes a process ready to run a workload and exits;
* ``measure`` sets up, warms up and times a warm in-process workload;
* ``cold`` times one cold run of a workload (``torus-million``).

Each role writes its findings as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Rounds over a warm workload's scenarios in one untraced run, at least.
MIN_ROUNDS = 3
#: Runs of a reference loop before and after a multi-second action.
PACE_REPEAT = 3


def clock() -> float:
    """A clock shared by all processes of the machine (set-up timing)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_to_one_cpu() -> None:
    """Keep this process, and the reference loop timed around its work, on
    one CPU: the host slows each CPU on its own (their slow spells do not
    line up), so the loop only tracks the CPU it runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write(path: str, record: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def timed_rounds(
    actions: List[Callable[[], Any]], seconds: float, min_rounds: int
) -> Tuple[List[List[float]], List[Any]]:
    """Run the actions in turn for ``seconds`` (at least ``min_rounds``
    rounds); returns each action's corrected walls (see ``pace``) and all
    outputs.

    Short actions keep the host's speed nearly constant while each runs,
    so the loop timed around it corrects for that speed.
    """
    walls: List[List[float]] = [[] for _ in actions]
    outputs: List[Any] = []
    before = pace.INTERPRETER.time()
    begin = time.perf_counter()
    while True:
        for action, action_walls in zip(actions, walls):
            wall, before, output = pace.timed(action, before)
            action_walls.append(wall)
            outputs.append(output)
            if len(walls[-1]) >= min_rounds and time.perf_counter() - begin >= seconds:
                return walls, outputs


def alternate(action: Callable[[], Any], seconds: float, min_pairs: int):
    """Untraced and traced repetitions, taking turns for ``seconds``.

    Taking turns exposes both sides to the same machine conditions, so
    their ratio measures the tracing overhead and not a drift of the host.
    """
    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[float] = []
    outputs: List[Any] = []
    begin = time.perf_counter()
    while len(traced) < min_pairs or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        outputs.append(action())
        plain.append(time.perf_counter() - start)
        handle = tracing.install(tracer)
        try:
            start = time.perf_counter()
            outputs.append(action())
            traced.append(time.perf_counter() - start)
        finally:
            handle.uninstall()
    return tracer, plain, traced, outputs


def trace_report(
    spans: List[tracing.Span],
    walls: List[float],
    path: str,
    untraced_walls: Optional[List[float]] = None,
    root: str = "orchestration.run_scenario",
) -> Dict[str, float]:
    """Write the spans out; per-layer metrics per measured run."""
    tracing.dump(spans, path)
    layers = tracing.layer_metrics(spans, len(walls))
    roots = [span for span in spans if span.name == root]
    layers["trace.unattributed_frac"] = tracing.unattributed(spans, roots, sum(walls))
    if untraced_walls:
        layers["trace.overhead_frac"] = (
            statistics.median(walls) / statistics.median(untraced_walls) - 1.0
        )
    return layers


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------
def get_ready(args: argparse.Namespace, build: bool) -> Tuple[List[Any], float]:
    """Import, load the kernel and, with ``build``, build graphs and tables.

    Returns the workload's scenarios and the set-up time: from the parent's
    spawn of this process until now, corrected by the loop timed right
    after it (see ``pace``).
    """
    from repro.engine.native import get_run_epoch_kernel

    get_run_epoch_kernel()
    scenario_list = workloads.scenarios(args.workload, args.seed, args.scale)
    if build:
        workloads.prepare(scenario_list)
    setup = clock() - args.spawned_at
    loop = pace.INTERPRETER.time(PACE_REPEAT)
    return scenario_list, pace.INTERPRETER.correct(setup, loop, loop)


def role_prepare(args: argparse.Namespace) -> Dict[str, Any]:
    """Build the native kernel (first use compiles it) and describe the host."""
    import numpy

    import repro
    from repro.engine.native import get_run_epoch_kernel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "kernel_v6": get_run_epoch_kernel() is not None,
        "repro_env": {key: value for key, value in os.environ.items() if key.startswith("REPRO_")},
    }


def role_setup(args: argparse.Namespace) -> Dict[str, Any]:
    return {"setup_s": get_ready(args, build=True)[1]}


def role_measure(args: argparse.Namespace) -> Dict[str, Any]:
    pin_to_one_cpu()
    scenario_list, setup = get_ready(args, build=True)
    record: Dict[str, Any] = {"setup_s": setup}

    # Warm-up: one full run (the fast protocol compiles one table set per
    # trial on first use).
    warm = workloads.run(scenario_list, cache=False)
    reference = workloads.canonical(warm)
    record.update(workloads.summary(warm))

    if args.trace:
        def one_run() -> bool:
            return workloads.canonical(workloads.run(scenario_list, cache=False)) == reference

        tracer, untraced_walls, walls, outputs = alternate(one_run, args.seconds, 2)
        record["layers"] = trace_report(tracer.records(), walls, args.trace_out, untraced_walls)
        record["reps"] = len(walls)
    else:
        def runner(scenario: Any, expected: str) -> Callable[[], bool]:
            return lambda: workloads.canonical(workloads.run([scenario], cache=False)) == expected

        per_scenario, outputs = timed_rounds(
            [runner(s, r.canonical_json()) for s, r in zip(scenario_list, warm)],
            args.seconds, MIN_ROUNDS,
        )
        walls = [sum(round_walls) for round_walls in zip(*per_scenario)]
        record["wall"] = sum(statistics.median(w) for w in per_scenario)

    record["walls"] = walls
    record["deterministic"] = all(outputs)
    record["peak_rss_mb"] = peak_rss_mb()
    return record


def role_cold(args: argparse.Namespace) -> Dict[str, Any]:
    pin_to_one_cpu()
    # The graph build is part of the measured cold run, not of set-up.
    scenario_list, setup = get_ready(args, build=False)
    record: Dict[str, Any] = {"setup_s": setup}

    tracer = tracing.Tracer()
    handle = tracing.install(tracer) if args.trace else None
    # The cold run is mostly array work (graph build, partitioning).
    before = pace.MEMORY.time(PACE_REPEAT)
    start = time.perf_counter()
    try:
        results = workloads.run(scenario_list, cache=False)
    finally:
        wall = time.perf_counter() - start
        if handle is not None:
            handle.uninstall()
    # Before the second loop, whose pages would count on top of the run's.
    record["peak_rss_mb"] = peak_rss_mb()
    record.update(workloads.summary(results))
    record["walls"] = [pace.MEMORY.correct(wall, before, pace.MEMORY.time(PACE_REPEAT))]
    if args.trace:
        record["layers"] = trace_report(tracer.records(), [wall], args.trace_out)
        record["reps"] = 1
    return record


ROLES = {
    "prepare": role_prepare,
    "setup": role_setup,
    "measure": role_measure,
    "cold": role_cold,
}


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", default="table1-sweep")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, default=0.0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse(argv)
    write(args.out, ROLES[args.role](args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
