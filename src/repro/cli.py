"""Command-line interface for the reproduction (``repro-popsim``).

Sub-commands:

* ``workloads``       — list the available graph-family workloads.
* ``scenarios``       — list the registered sweep scenarios.
* ``engines``         — show the execution engines and whether the v6
  kernel is built.
* ``elect``           — run one leader-election protocol on one workload
  and print the simulation result.
* ``compare``         — run all three Table 1 protocols on one workload.
* ``table1``          — regenerate a Table 1 row group (sweep over sizes).
* ``sweep``           — run a registered scenario through the parallel
  orchestrator (``--jobs N`` worker processes, persistent result cache
  under ``.repro_cache/``).
* ``serve``           — start the long-lived job server (asyncio socket
  front-end; validates submissions, serves cache hits, dispatches unit
  plans to local and remote workers).
* ``worker``          — connect a remote shard worker to a job server
  (``--connect host:port``) and execute shipped unit plans.
* ``submit``          — submit a registered scenario to a job server,
  stream per-unit progress, print the same tables as ``sweep``.
* ``chaos``           — run a scenario through the full service stack
  under a seeded fault schedule (worker crashes, garbled frames, store
  corruption) and verify the result is byte-identical to a fault-free
  in-process run.
* ``broadcast``       — estimate ``B(G)`` and print the Theorem 6 bounds.
* ``graph-info``      — structural properties of a workload graph.

``elect``, ``compare``, ``table1``, ``sweep`` and ``submit`` accept
``--engine`` with one of :data:`repro.runtime.plan.ENGINES`:
``reference`` runs through the pure-Python interpreter, and ``auto``
(the default) through the compiled engine (:mod:`repro.engine`: the v6
kernel's transition tables or the identifier protocol's arithmetic
rule), falling back to the interpreter when a protocol cannot be
compiled.  Results are identical across engines for a given seed.

Examples::

    repro-popsim elect --workload clique --size 100 --protocol token
    repro-popsim table1 --family cycle --sizes 24 36 48 --repetitions 2
    repro-popsim elect --workload clique --size 100 --engine reference
    repro-popsim broadcast --workload torus --size 64
    repro-popsim sweep --scenario table1-clique --jobs 4
    repro-popsim sweep --scenario clique-n100 --jobs 2 --no-cache
    repro-popsim serve --port 7070 --local-workers 2
    repro-popsim worker --connect 127.0.0.1:7070 --reconnect-retries 10
    repro-popsim submit --connect 127.0.0.1:7070 --scenario table1-clique
    repro-popsim chaos --scenario table1-stars --sizes 6 8 --repetitions 6
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .experiments.harness import (
    DegenerateSweepError,
    compare_protocols_on_graph,
    default_protocol_specs,
    default_step_budget,
    fast_protocol_spec,
    identifier_protocol_spec,
    measure_protocol_on_graph,
    star_protocol_spec,
    token_protocol_spec,
)
from .experiments.workloads import available_workloads, get_workload
from .orchestration import available_scenarios, get_scenario, run_scenario
from .runtime.plan import ENGINES

_PROTOCOL_CHOICES = {
    "token": token_protocol_spec,
    "identifier": identifier_protocol_spec,
    "fast": fast_protocol_spec,
    "star": star_protocol_spec,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``repro-popsim``."""
    parser = argparse.ArgumentParser(
        prog="repro-popsim",
        description="Leader election in population protocols on graphs (PODC 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list available graph workloads")

    subparsers.add_parser("scenarios", help="list registered sweep scenarios")

    subparsers.add_parser("engines", help="show execution engines and the v6 kernel")

    elect = subparsers.add_parser("elect", help="run a single leader election")
    _add_graph_arguments(elect)
    elect.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOL_CHOICES),
        default="token",
        help="which protocol to run",
    )
    elect.add_argument("--repetitions", type=int, default=3)
    _add_engine_argument(elect)

    compare = subparsers.add_parser("compare", help="compare the Table 1 protocols")
    _add_graph_arguments(compare)
    compare.add_argument("--repetitions", type=int, default=3)
    _add_engine_argument(compare)

    table1 = subparsers.add_parser("table1", help="regenerate a Table 1 row group")
    table1.add_argument("--family", required=True, help="workload name")
    table1.add_argument("--sizes", type=int, nargs="+", required=True)
    table1.add_argument("--repetitions", type=int, default=2)
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_engine_argument(table1)

    sweep = subparsers.add_parser(
        "sweep", help="run a registered scenario (parallel, cached)"
    )
    sweep.add_argument("--scenario", required=True, help="scenario name (see `scenarios`)")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent result store",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="result-store root (default: .repro_cache/ in the working directory)",
    )
    sweep.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="override the size grid"
    )
    sweep.add_argument(
        "--repetitions", type=int, default=None, help="override the trial count"
    )
    sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    sweep.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="override the execution engine",
    )

    serve = subparsers.add_parser(
        "serve", help="start the long-lived simulation job server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (for scripts)",
    )
    serve.add_argument(
        "--local-workers",
        type=int,
        default=0,
        help="in-process workers executing units on the server machine",
    )
    serve.add_argument(
        "--unit-timeout",
        type=float,
        default=600.0,
        help="seconds a dispatched unit may take before it is re-queued",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="dispatch attempts per unit before its job fails",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent result store",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="result-store root (default: .repro_cache/ in the working directory)",
    )
    serve.add_argument(
        "--liveness-timeout",
        type=float,
        default=None,
        help=(
            "seconds a mid-unit worker may stay silent (no heartbeat) before "
            "being written off; 0 disables the check (default: 10)"
        ),
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive dispatch failures that quarantine a worker",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds a quarantined worker waits before its probe dispatch",
    )
    serve.add_argument(
        "--degrade-local",
        action="store_true",
        help=(
            "execute queued units in-process whenever no worker is available "
            "(graceful degradation instead of a hanging job)"
        ),
    )

    worker = subparsers.add_parser(
        "worker", help="connect a remote shard worker to a job server"
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="job server endpoint"
    )
    worker.add_argument(
        "--max-units",
        type=int,
        default=None,
        help="exit after executing this many units (default: run until drained)",
    )
    worker.add_argument(
        "--reconnect-retries",
        type=int,
        default=0,
        help=(
            "reconnect this many times (seeded exponential backoff) after a "
            "lost connection before giving up (default: 0, fail fast)"
        ),
    )
    worker.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between mid-unit heartbeat frames (default: 2)",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a registered scenario to a job server"
    )
    submit.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="job server endpoint"
    )
    submit.add_argument("--scenario", required=True, help="scenario name (see `scenarios`)")
    submit.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="override the size grid"
    )
    submit.add_argument(
        "--repetitions", type=int, default=None, help="override the trial count"
    )
    submit.add_argument("--seed", type=int, default=None, help="override the base seed")
    submit.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="override the execution engine",
    )
    submit.add_argument(
        "--no-cache",
        action="store_true",
        help="ask the server to bypass its result store for this job",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="overall submission deadline in seconds",
    )
    submit.add_argument(
        "--events",
        action="store_true",
        help="print every per-unit progress event as it streams in",
    )
    submit.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        help=(
            "retry an unreachable server this many times with seeded backoff "
            "(useful when racing the server's startup)"
        ),
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="soak a scenario through the service stack under injected faults",
    )
    chaos.add_argument(
        "--scenario", default="table1-stars", help="scenario name (see `scenarios`)"
    )
    chaos.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="override the size grid"
    )
    chaos.add_argument(
        "--repetitions", type=int, default=None, help="override the trial count"
    )
    chaos.add_argument("--seed", type=int, default=None, help="override the base seed")
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the fault schedule (same seed + spec = same faults)",
    )
    chaos.add_argument(
        "--fault",
        action="append",
        metavar="KIND=RATE",
        default=None,
        help=(
            "override one fault kind's per-opportunity rate "
            "(repeatable; e.g. --fault worker-crash=0.3)"
        ),
    )
    chaos.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="scale every default fault rate by this factor",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=180.0,
        help="overall deadline in seconds per chaos submission",
    )

    broadcast = subparsers.add_parser("broadcast", help="estimate B(G) and print bounds")
    _add_graph_arguments(broadcast)
    broadcast.add_argument("--repetitions", type=int, default=6)

    info = subparsers.add_parser("graph-info", help="structural properties of a workload graph")
    _add_graph_arguments(info)
    return parser


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, help="workload name (see `workloads`)")
    parser.add_argument("--size", type=int, required=True, help="target population size")
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="execution engine (results are seed-identical across engines)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "engines":
        return _cmd_engines()
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "elect":
        return _cmd_elect(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "broadcast":
        return _cmd_broadcast(args)
    if args.command == "graph-info":
        return _cmd_graph_info(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _build_graph(args: argparse.Namespace):
    workload = get_workload(args.workload)
    return workload.build(args.size, seed=args.seed)


def _cmd_workloads() -> int:
    from .experiments.reporting import render_table

    rows = []
    for name in available_workloads():
        workload = get_workload(name)
        rows.append({"name": name, "description": workload.description, "regular": workload.regular})
    print(render_table(rows, title="Available workloads"))
    return 0


def _cmd_scenarios() -> int:
    from .experiments.reporting import render_table

    rows = []
    for name in available_scenarios():
        scenario = get_scenario(name)
        rows.append(
            {
                "name": name,
                "workload": scenario.workload,
                "sizes": "/".join(str(s) for s in scenario.sizes),
                "trials": scenario.repetitions,
                "protocols": ",".join(p.builder for p in scenario.protocols),
                "description": scenario.description,
            }
        )
    print(render_table(rows, title="Registered scenarios"))
    return 0


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """The ``--sizes/--repetitions/--seed/--engine`` overrides."""
    overrides = {}
    if getattr(args, "sizes", None) is not None:
        overrides["sizes"] = tuple(args.sizes)
    if getattr(args, "repetitions", None) is not None:
        overrides["repetitions"] = args.repetitions
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    return overrides


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    overrides = _scenario_overrides(args)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    result = run_scenario(
        scenario,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    _print_scenario_result(scenario, result)
    served = (
        f"{result.cache_hits}/{result.total_units} units from cache, "
        f"{result.executed_units} executed with jobs={result.jobs}"
        if not args.no_cache
        else f"{result.executed_units} units executed with jobs={result.jobs} (cache off)"
    )
    print(f"{served}; wall time {result.wall_time_seconds:.2f}s")
    return 0


def _print_scenario_result(scenario, result) -> None:
    """Render the per-protocol sweep tables (shared by sweep and submit)."""
    from .experiments.reporting import render_table

    for sweep in result.sweeps:
        rows = []
        for size, measurement in zip(sweep.sizes, sweep.measurements):
            rows.append(
                {
                    "size": size,
                    "graph": measurement.graph_name,
                    "n": measurement.n_nodes,
                    "mean_steps": measurement.stabilization_steps.mean,
                    "q90_steps": measurement.stabilization_steps.q90,
                    "success": measurement.success_rate,
                    "states": measurement.max_states_observed,
                }
            )
        try:
            fit = sweep.fit()
            fit_note = f"fitted exponent {fit.exponent:.2f} (R²={fit.r_squared:.3f})"
        except DegenerateSweepError as error:
            fit_note = f"no scaling fit: {error}"
        print(render_table(rows, title=f"{scenario.name} — {sweep.protocol_name}"))
        print(f"  {fit_note}")
        print()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service.server import JobServer

    from .service.protocol import DEFAULT_LIVENESS_TIMEOUT

    liveness = args.liveness_timeout
    if liveness is None:
        liveness = DEFAULT_LIVENESS_TIMEOUT
    elif liveness <= 0:
        liveness = None  # 0 disables the liveness check entirely

    async def _serve() -> int:
        server = JobServer(
            host=args.host,
            port=args.port,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            local_workers=args.local_workers,
            unit_timeout=args.unit_timeout,
            max_attempts=args.max_attempts,
            liveness_timeout=liveness,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            degrade_to_local=args.degrade_local,
        )
        host, port = await server.start()
        print(
            f"repro-popsim job server listening on {host}:{port} "
            f"(local workers: {args.local_workers}, "
            f"cache: {'off' if args.no_cache else 'on'})",
            flush=True,
        )
        if args.port_file:
            import os
            import tempfile
            from pathlib import Path

            # Atomic so a script polling the file can never read a
            # half-written port number.
            target = Path(args.port_file)
            descriptor, temp_name = tempfile.mkstemp(
                prefix=".port.", dir=str(target.parent or Path("."))
            )
            with os.fdopen(descriptor, "w", encoding="ascii") as handle:
                handle.write(f"{port}\n")
            os.replace(temp_name, target)
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signal_number,
                    lambda: loop.create_task(server.drain(timeout=args.unit_timeout)),
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
                pass
        await server.wait_closed()
        print("job server drained and stopped", flush=True)
        return 0

    return asyncio.run(_serve())


def _cmd_worker(args: argparse.Namespace) -> int:
    from .service.protocol import ServiceError, parse_endpoint
    from .service.worker import run_worker

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    worker_kwargs = {
        "max_units": args.max_units,
        "reconnect_retries": args.reconnect_retries,
    }
    if args.heartbeat_interval is not None:
        worker_kwargs["heartbeat_interval"] = (
            args.heartbeat_interval if args.heartbeat_interval > 0 else None
        )
    try:
        executed = run_worker(host, port, **worker_kwargs)
    except (ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"worker finished after {executed} unit(s)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient
    from .service.protocol import ServiceError, parse_endpoint

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    overrides = _scenario_overrides(args)
    if "sizes" in overrides:
        overrides["sizes"] = list(overrides["sizes"])  # JSON-native

    def _print_event(event: dict) -> None:
        if not args.events:
            return
        note = f" (attempt {event.get('attempts')})" if event.get("attempts") else ""
        print(f"[{event.get('state')}] {event.get('unit')}{note}", flush=True)

    client = ServiceClient(
        host, port, timeout=args.timeout, connect_retries=args.connect_retries
    )
    try:
        result = client.submit(
            name=args.scenario,
            overrides=overrides,
            cache=not args.no_cache,
            on_event=_print_event,
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_scenario_result(result.scenario, result)
    print(
        f"{result.cache_hits}/{result.total_units} units from server cache, "
        f"{result.executed_units} executed by {result.jobs} worker(s); "
        f"wall time {result.wall_time_seconds:.2f}s"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_table
    from .resilience import FaultSpec, default_fault_spec, run_chaos_soak

    scenario = get_scenario(args.scenario)
    overrides = _scenario_overrides(args)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    base = default_fault_spec()
    rates = {kind: rate for kind, rate in base.rates}
    if args.intensity != 1.0:
        if args.intensity < 0:
            print("error: --intensity must be non-negative", file=sys.stderr)
            return 2
        rates = {kind: min(1.0, rate * args.intensity) for kind, rate in rates.items()}
    for item in args.fault or []:
        kind, separator, value = item.partition("=")
        if not separator:
            print(f"error: --fault expects KIND=RATE, got {item!r}", file=sys.stderr)
            return 2
        try:
            rates[kind.strip()] = float(value)
        except ValueError:
            print(f"error: fault rate {value!r} is not a number", file=sys.stderr)
            return 2
    try:
        spec = FaultSpec.from_rates(
            rates,
            stall_seconds=base.stall_seconds,
            slow_seconds=base.slow_seconds,
            delay_seconds=base.delay_seconds,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = run_chaos_soak(
            scenario, args.chaos_seed, spec, client_timeout=args.timeout
        )
    except Exception as error:  # noqa: BLE001 — soak failures are the verdict
        print(f"error: chaos soak failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    rows = [
        {"fault": kind, "fired": count}
        for kind, count in sorted(report.counts_by_kind.items())
    ]
    if rows:
        print(
            render_table(
                rows,
                title=f"Chaos soak — {scenario.name} (chaos seed {report.chaos_seed})",
            )
        )
    print(
        f"{report.injected} fault(s) injected across 2 submissions of "
        f"{report.units} unit(s)"
    )
    if report.byte_identical:
        print("PASS: both chaos results byte-identical to the fault-free run")
        return 0
    print("FAIL: chaos result diverged from the fault-free run", file=sys.stderr)
    return 1


def _cmd_engines() -> int:
    from .engine.native import get_run_epoch_kernel
    from .experiments.reporting import render_table

    kernel = "built" if get_run_epoch_kernel() is not None else "not built"
    rows = [
        {
            "engine": "reference",
            "description": "pure-Python interpreter (semantic reference)",
        },
        {
            "engine": "auto",
            "description": "compiled (the v6 epoch kernel, else per replica) where "
            f"possible, reference otherwise (default); v6 kernel: {kernel}",
        },
    ]
    print(render_table(rows, title="Execution engines"))
    return 0


def _cmd_elect(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_table

    graph = _build_graph(args)
    spec = _PROTOCOL_CHOICES[args.protocol]()
    measurement = measure_protocol_on_graph(
        spec,
        graph,
        repetitions=args.repetitions,
        seed=args.seed,
        max_steps=default_step_budget(graph),
        engine=args.engine,
    )
    print(render_table([measurement.as_dict()], title=f"{spec.name} on {graph.name}"))
    return 0 if measurement.success_rate == 1.0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_comparison

    graph = _build_graph(args)
    measurements = compare_protocols_on_graph(
        default_protocol_specs(),
        graph,
        repetitions=args.repetitions,
        seed=args.seed,
        max_steps=default_step_budget(graph),
        engine=args.engine,
    )
    print(render_comparison(f"Protocol comparison on {graph.name}", measurements))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments.table1 import run_table1_family

    group = run_table1_family(
        args.family,
        args.sizes,
        repetitions=args.repetitions,
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
    )
    print(group.render())
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_table
    from .propagation.bounds import broadcast_bounds
    from .propagation.broadcast import broadcast_time_estimate

    graph = _build_graph(args)
    estimate = broadcast_time_estimate(graph, repetitions=args.repetitions, rng=args.seed)
    bounds = broadcast_bounds(graph)
    rows = [
        {
            "graph": graph.name,
            "measured B(G)": estimate.value,
            "lower bound (Lem 12)": bounds.lower,
            "upper (diameter form)": bounds.upper_diameter_form,
            "upper (expansion form)": bounds.upper_expansion_form,
        }
    ]
    print(render_table(rows, title="Broadcast time"))
    return 0


def _cmd_graph_info(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_table
    from .experiments.table1 import graph_parameters_for
    from .graphs.properties import summarize

    graph = _build_graph(args)
    rows = [summarize(graph)]
    print(render_table(rows, title="Graph properties"))
    extra = graph_parameters_for(graph, estimate_broadcast=False)
    print()
    print(render_table([extra], title="Table 1 parameters"))
    return 0


if __name__ == "__main__":  # pragma: no cover - direct execution helper
    sys.exit(main())
