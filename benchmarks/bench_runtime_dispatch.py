"""Experiment RUNTIME: batched measurement dispatch vs trial-serial.

The execution-plan runtime routes every plan it can through the kernel
v6 epoch stack: one ``repro_run_epoch`` C call advances every active
replica, with its seeded stream drawn in-kernel, to its next
certificate check, and the kernel-maintained leader count gates the
Python certificate.  A batched harness measurement puts all trials of a
(protocol, graph) cell in one such plan.  This benchmark gates it
against **trial-serial** dispatch — one ``run_leader_election`` per
trial, each a width-1 plan that also runs on the v6 stack — on the
Table-1 clique-100 workload, so the ratio isolates what batching the
trials of a cell adds over the best single-trial path:

* ``test_batched_measurement_speedup`` (token protocol, 64 trials) must
  show **≥ 1.2×** with the v6 kernel.  Without it both sides execute
  trial by trial on the per-replica engine; the gate then only requires
  no regression (≥ 0.7×).
* ``test_fast_protocol_measurement`` adds the fast protocol, whose
  measurement additionally batches all trials' ``B(G)`` epidemics into
  one replica stack (v6 floor 1.4×, no-kernel floor 0.6×).

The native floors sit below every ratio recorded on a 2-vCPU host
(token 1.29–1.85×, fast 1.63–1.97×, twelve runs of min-of-12 rounds;
``docs/BENCHMARKS.md``).  The token floor was 2× until a width-1 plan's
fixed cost fell: that made the trial-serial side, not the batched one,
faster.

Every test first asserts the batched path's results are **bit-identical**
to the trial-serial ones (wall time aside) — the speedup must never come
at the cost of the seeded-stream contract.
"""

from __future__ import annotations

import time

import pytest

from repro.core.seeds import trial_seed
from repro.core.simulator import run_leader_election
from repro.engine.native import get_run_epoch_kernel
from repro.experiments import render_table
from repro.experiments.harness import (
    default_step_budget,
    fast_protocol_spec,
    run_measurement_trials,
    token_protocol_spec,
    trial_record_from_result,
)
from repro.graphs import clique

from _helpers import run_once

N = 100
BASE_SEED = 0
#: Interleaved timing rounds per side; each side reports its minimum.
ROUNDS = 12


def _strip_wall(record):
    record = dict(record)
    record.pop("wall_time_seconds", None)
    return record


def _measure_dispatch(spec, repetitions):
    """(batched seconds, serial seconds, batched results, serial results)."""
    graph = clique(N)
    budget = default_step_budget(graph)
    seeds = [trial_seed(BASE_SEED, index) for index in range(repetitions)]

    # Untimed warm-up of both paths: kernel + table compilation land
    # outside the measurement.
    run_measurement_trials(spec, graph, range(2), seed=BASE_SEED, max_steps=budget)
    run_leader_election(
        spec.factory(graph, seeds[0]), graph, rng=seeds[0], max_steps=budget, engine="auto"
    )

    # Interleaved min-of-ROUNDS: transient machine load (a noisy CI
    # neighbour, a GC pause) hits both paths alike instead of biasing
    # whichever side happened to run during it.
    batched_seconds = float("inf")
    serial_seconds = float("inf")
    batched = None
    serial = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        batched, _ = run_measurement_trials(
            spec, graph, range(repetitions), seed=BASE_SEED, max_steps=budget
        )
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        serial = [
            run_leader_election(
                spec.factory(graph, seed), graph, rng=seed, max_steps=budget, engine="auto"
            )
            for seed in seeds
        ]
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    # The gate is meaningless unless the two dispatch plans agree bit for
    # bit on every measured value.
    for index, (a, b) in enumerate(zip(batched, serial)):
        assert _strip_wall(trial_record_from_result(a)) == _strip_wall(
            trial_record_from_result(b)
        ), f"trial {index} diverged between batched and trial-serial dispatch"
    return batched_seconds, serial_seconds, batched, serial


def _report_row(report, title, repetitions, batched_s, serial_s, results, native):
    speedup = serial_s / batched_s
    report(
        render_table(
            [
                {
                    "graph": f"clique n={N}",
                    "trials": repetitions,
                    "mean steps": round(
                        sum(r.steps_executed for r in results) / len(results), 1
                    ),
                    "trial-serial s": round(serial_s, 3),
                    "batched s": round(batched_s, 3),
                    "speedup": round(speedup, 2),
                    "path": "v6 epoch stack" if native else "per-replica fallback",
                }
            ],
            title=title,
        )
    )
    return speedup


@pytest.mark.benchmark(group="runtime-dispatch")
def test_batched_measurement_speedup(benchmark, report):
    """Batched harness measurements must beat trial-serial ≥1.2× (native)."""
    native = get_run_epoch_kernel() is not None
    batched_s, serial_s, results, _ = run_once(
        benchmark, _measure_dispatch, token_protocol_spec(), 64
    )
    speedup = _report_row(
        report,
        "RUNTIME: batched vs trial-serial measurement dispatch (token, clique n=100)",
        64,
        batched_s,
        serial_s,
        results,
        native,
    )
    floor = 1.2 if native else 0.7
    assert speedup >= floor, f"speedup {speedup:.2f}x below the {floor}x gate"


@pytest.mark.benchmark(group="runtime-dispatch")
def test_fast_protocol_measurement(benchmark, report):
    """Fast protocol: plan batches the trials AND their B(G) epidemics."""
    native = get_run_epoch_kernel() is not None
    batched_s, serial_s, results, _ = run_once(
        benchmark, _measure_dispatch, fast_protocol_spec(), 24
    )
    speedup = _report_row(
        report,
        "RUNTIME: batched vs trial-serial measurement dispatch (fast, clique n=100)",
        24,
        batched_s,
        serial_s,
        results,
        native,
    )
    floor = 1.4 if native else 0.6
    assert speedup >= floor, f"speedup {speedup:.2f}x below the {floor}x gate"
