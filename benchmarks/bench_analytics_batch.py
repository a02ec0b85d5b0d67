"""Experiment ANALYTICS-batch: replica-batched vs trajectory-serial Monte-Carlo.

The fast protocol's harness cost is dominated by the ``B(G)`` analytics
floor: ``repetitions × sources`` full epidemic simulations per trial.
This benchmark measures the replica-batched engine (:mod:`repro.analytics`)
against the best existing trajectory-serial path — one epidemic at a
time, as one width-1 call of the public
:func:`~repro.analytics.epidemics.run_epidemic_batch` per trajectory, on
the batched run's own seeds — so the serial and batched estimates are
equal, with or without the native kernel.

Gate: clique ``n = 100`` ``B(G)`` estimate, **≥ 3×** speedup with the
native kernel (``repro_broadcast_epoch``).  Without the kernel the result
must still be correct, only slower: the no-compiler legs assert equal
estimates and report their speedup without a floor.  Bit-identity across
replica-batch widths and execution paths is pinned by
``tests/test_analytics_batch.py``.

Batched hitting/meeting-time timings are reported alongside (no gate).
"""

from __future__ import annotations

import time

import pytest

from repro.analytics.epidemics import BUDGET_EXHAUSTED, run_epidemic_batch
from repro.analytics.estimators import broadcast_trajectory_seed, select_sources
from repro.engine.native import get_broadcast_epoch_kernel, reset_kernel_cache
from repro.experiments import render_table
from repro.graphs import clique
from repro.propagation import broadcast_time_estimate
from repro.propagation.broadcast import default_broadcast_budget
from repro.walks import simulate_population_hitting_times

from _helpers import run_once

N = 100
REPETITIONS = 8
MAX_SOURCES = 24
BASE_SEED = 42


def _serial_single_source(graph, source, seed, max_steps):
    """One trajectory-serial epidemic: completion step, or ``None``.

    One width-1 call of the public batched entry point on the
    trajectory's own seed: on the kernel a private RNG row, without it a
    NumPy stream, and either way every per-call overhead is paid per
    trajectory.
    """
    (steps,) = run_epidemic_batch(graph, [source], [seed], max_steps)
    return None if steps == BUDGET_EXHAUSTED else int(steps)


def _trajectory_serial_estimate(graph):
    """B(G) with PR 1's structure: one epidemic per (source, repetition)."""
    budget = default_broadcast_budget(graph)
    sources = select_sources(graph, MAX_SOURCES, BASE_SEED)
    per_source = {}
    for source in sources:
        samples = [
            _serial_single_source(
                graph, source, broadcast_trajectory_seed(BASE_SEED, source, rep), budget
            )
            for rep in range(REPETITIONS)
        ]
        per_source[source] = sum(samples) / len(samples)
    return max(per_source.values()), per_source


def _measure(graph):
    start = time.perf_counter()
    serial_value, serial_per_source = _trajectory_serial_estimate(graph)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = broadcast_time_estimate(
        graph, repetitions=REPETITIONS, max_sources=MAX_SOURCES, rng=BASE_SEED
    )
    batched_seconds = time.perf_counter() - start
    # Width-1 calls on the batched run's seeds: the same epidemics.
    assert batched.per_source == serial_per_source
    assert batched.value == serial_value
    return serial_seconds, batched_seconds, batched.value


@pytest.mark.benchmark(group="analytics-batch")
def test_replica_batched_broadcast_speedup(benchmark, report):
    """Native kernel: batched B(G) on K_100 must beat trajectory-serial ≥3×."""
    graph = clique(N)
    native = get_broadcast_epoch_kernel() is not None
    serial_s, batched_s, value = run_once(benchmark, _measure, graph)
    speedup = serial_s / batched_s
    trajectories = REPETITIONS * MAX_SOURCES
    report(
        render_table(
            [
                {
                    "graph": graph.name,
                    "trajectories": trajectories,
                    "B(G)": round(value, 1),
                    "serial s": round(serial_s, 3),
                    "batched s": round(batched_s, 3),
                    "speedup": round(speedup, 1),
                    "path": "C kernel" if native else "NumPy fallback",
                }
            ],
            title="ANALYTICS: replica-batched vs trajectory-serial B(G), clique n=100",
        )
    )
    # The native floor dropped from 5.0 when the runtime refactor made the
    # trajectory-serial baseline itself faster (the general scheduler now
    # buffers raw directed pair indices and refills in-place); the batched
    # path's absolute time is unchanged.  Without the kernel the ratio is
    # reported only: that leg owes a correct result, not a speedup.
    if native:
        assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x gate"


@pytest.mark.benchmark(group="analytics-batch")
def test_numpy_fallback_speedup(benchmark, report, monkeypatch):
    """No-compiler path: equal estimates; the speedup is reported, not gated."""
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    try:
        graph = clique(N)
        serial_s, batched_s, value = run_once(benchmark, _measure, graph)
    finally:
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        reset_kernel_cache()
    speedup = serial_s / batched_s
    report(
        render_table(
            [
                {
                    "graph": graph.name,
                    "B(G)": round(value, 1),
                    "serial s": round(serial_s, 3),
                    "batched s": round(batched_s, 3),
                    "speedup": round(speedup, 1),
                    "path": "NumPy fallback (REPRO_DISABLE_NATIVE=1)",
                }
            ],
            title="ANALYTICS: no-compiler NumPy fallback vs trajectory-serial",
        )
    )


@pytest.mark.benchmark(group="analytics-batch")
def test_batched_hitting_times_report(benchmark, report):
    """Replica-batched walk estimator timing (reported, no gate)."""
    graph = clique(48)
    pairs = [(v, (v + 1) % graph.n_nodes) for v in range(graph.n_nodes)] * 4

    def measure():
        start = time.perf_counter()
        samples = simulate_population_hitting_times(graph, pairs, rng=7)
        seconds = time.perf_counter() - start
        return seconds, float(samples.mean()), int((samples >= 0).sum())

    seconds, mean, finished = run_once(benchmark, measure)
    report(
        render_table(
            [
                {
                    "graph": graph.name,
                    "trajectories": len(pairs),
                    "finished": finished,
                    "mean H_P": round(mean, 1),
                    "seconds": round(seconds, 3),
                }
            ],
            title="ANALYTICS: replica-batched population hitting times",
        )
    )
    assert finished == len(pairs)
