"""Experiment SHARDING: the million-node RSS ceiling and the pool-vs-v6 record.

**Capacity** — the registered ``torus-million`` scenario's workload (a
1000×1000 torus, n = 10^6, m = 2·10^6, token protocol, ~150k steps) runs
the way the scenario runs it, unsharded, and must never be offered the
``(n, n)`` all-pairs distance matrix, which the graph layer refuses at
this size:

* ``test_million_node_torus_under_rss_ceiling`` executes it in a **child
  process** and asserts the child's peak RSS stays under the ceiling.
  A subprocess is mandatory: ``ru_maxrss`` is a process-lifetime
  high-water mark, so measuring in the pytest process would report the
  residue of whatever ran before.  The ceiling defaults to 2048 MB
  (``REPRO_BENCH_RSS_MB`` to tune).  With node ids in four bytes and
  table codes in two, the graph build sets the peak: its transient
  union-find scratch lifts the high-water mark to 67 MB, while the run
  adds its ``uint16`` state codes (2 MB) to the 63 MB that stay resident
  after the build (2-vCPU host).

**Throughput record** — the shard-worker pool against the best existing
path, width-1 v6 (a one-replica plan on the kernel-v6 epoch stack):

* ``test_shard_worker_pool_speedup`` runs 4 shard workers
  (``execute_sharded``, the pool's only entry) and width-1 v6
  (``execute_plan``) on a ring of four bridged cliques — the pool's own
  best case: the partition aligns with the cliques, so only the bridge
  draws (~0.002 %) cross shards and the workers run essentially
  handshake-free.  It asserts both results are byte-identical and that
  every pool run started a 4-worker pool, and records both paths'
  steps/sec in ``benchmark.extra_info``; it asserts no speedup floor (on
  a 2-vCPU host the pool measured ≤ 0.16× of v6).  It runs only where 4
  cores exist.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.engine.native import get_run_shard_kernel
from repro.experiments import render_table
from repro.protocols import TokenLeaderElection
from repro.runtime import compile_plan, execute_plan
from repro.sharding import ShardWorkerPool, execute_sharded, sharded_eligible

from _helpers import run_once

RSS_CEILING_MB = float(os.environ.get("REPRO_BENCH_RSS_MB", "2048"))

_CHILD_SCRIPT = r"""
import json
import resource
import sys
import time

from repro.experiments.harness import default_step_budget, token_protocol_spec
from repro.experiments.workloads import get_workload
from repro.graphs.graph import DENSE_DISTANCE_MATRIX_LIMIT
from repro.runtime import compile_plan, execute_plan

SIZE = 1_000_000
MULTIPLIER = 1e-8  # the torus-million scenario's step budget

build_start = time.perf_counter()
graph = get_workload("torus").build(SIZE, seed=0)
assert graph.n_nodes == SIZE
assert graph.n_nodes > DENSE_DISTANCE_MATRIX_LIMIT  # the guard is live here
build_seconds = time.perf_counter() - build_start

spec = token_protocol_spec()
protocol = spec.factory(graph, 0)
budget = default_step_budget(graph, multiplier=MULTIPLIER)
plan = compile_plan([protocol], graph, [20260808], max_steps=budget)

run_start = time.perf_counter()
(result,) = execute_plan(plan)
run_seconds = time.perf_counter() - run_start

peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump(
    {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "steps": result.steps_executed,
        "stabilized": result.stabilized,
        "leaders": result.leaders,
        "peak_rss_mb": peak_kb / 1024.0,
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
    },
    sys.stdout,
)
"""


def _run_child() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout)


@pytest.mark.benchmark(group="sharding")
def test_million_node_torus_under_rss_ceiling():
    report = _run_child()

    rows = [
        {
            "nodes": report["n_nodes"],
            "edges": report["n_edges"],
            "steps": report["steps"],
            "peak RSS (MB)": f"{report['peak_rss_mb']:.0f}",
            "ceiling (MB)": f"{RSS_CEILING_MB:.0f}",
            "build (s)": f"{report['build_seconds']:.1f}",
            "run (s)": f"{report['run_seconds']:.1f}",
        }
    ]
    print()
    print(render_table(rows, title="Million-node torus"))

    assert report["n_nodes"] == 1_000_000
    assert report["steps"] > 0
    # A ~150k-step prefix cannot elect a leader on a 10^6-node torus;
    # what matters is that the run *executed* inside the memory budget.
    assert not report["stabilized"]
    assert report["peak_rss_mb"] < RSS_CEILING_MB, (
        f"peak RSS {report['peak_rss_mb']:.0f} MB exceeded the "
        f"{RSS_CEILING_MB:.0f} MB ceiling (REPRO_BENCH_RSS_MB to adjust)"
    )


# ----------------------------------------------------------------------
# Throughput record: the worker pool against width-1 v6
# ----------------------------------------------------------------------
THROUGHPUT_STEPS = 2_000_000
THROUGHPUT_SEED = 20260808
POOL_CLIQUES = 4  # ring of 4 bridged cliques, one per shard/worker
POOL_CLIQUE_SIZE = 300
POOL_WORKERS = 4
POOL_ROUNDS = 3  # timed rounds per path, after one untimed warm-up


def _ring_of_cliques(k, c):
    """``k`` cliques of ``c`` nodes, consecutive cliques bridged — the
    clustered topology whose aligned range partition leaves only the
    bridge draws (~2k/(k·c²) of the pair space) crossing shards."""
    from repro.graphs import Graph

    edges = []
    for i in range(k):
        base = i * c
        edges.extend(
            (base + u, base + v) for u in range(c) for v in range(u + 1, c)
        )
    edges.extend((i * c, ((i + 1) % k) * c) for i in range(k))
    return Graph(k * c, edges, name=f"ring-of-cliques-{k}x{c}")


def _result_tuple(result):
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


def _throughput_plan(graph):
    return compile_plan(
        [TokenLeaderElection()], graph, [THROUGHPUT_SEED], max_steps=THROUGHPUT_STEPS
    )


def _measure_pool_and_v6(graph, rounds=POOL_ROUNDS):
    """(pool seconds, v6 seconds, pool result, v6 result).

    Interleaved min-of-N rounds: transient machine load hits both paths
    alike instead of biasing whichever side ran during it.  Both sides
    run the same plan; the pool side hands it to ``execute_sharded``
    with ``POOL_CLIQUES`` shards and ``POOL_WORKERS`` workers.  Each pool
    run builds its partition and forks its workers, as a scenario unit
    would.
    """
    assert sharded_eligible(_throughput_plan(graph), POOL_CLIQUES, POOL_WORKERS)

    def run_pool():
        (result,) = execute_sharded(_throughput_plan(graph), POOL_CLIQUES, POOL_WORKERS)
        return result

    def run_v6():
        (result,) = execute_plan(_throughput_plan(graph))
        return result

    # Untimed warm-up: table/kernel compilation lands outside the
    # measurement.
    run_pool()
    run_v6()

    pool_seconds = float("inf")
    v6_seconds = float("inf")
    pool = v6 = None
    for _ in range(rounds):
        start = time.perf_counter()
        pool = run_pool()
        pool_seconds = min(pool_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        v6 = run_v6()
        v6_seconds = min(v6_seconds, time.perf_counter() - start)

    # The record is meaningless unless both paths agree bit for bit.
    assert _result_tuple(pool) == _result_tuple(v6), (
        "shard-worker pool diverged from width-1 v6 — determinism contract broken"
    )
    return pool_seconds, v6_seconds, pool, v6


@pytest.mark.benchmark(group="sharding")
@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 cores")
def test_shard_worker_pool_speedup(benchmark, monkeypatch):
    """4 shard workers against width-1 v6 on the pool's best case.

    Records both paths' steps/sec; asserts byte-identity, not a floor.
    A pool that fell back to ``execute_plan`` would time v6 against
    itself, so the test also counts the worker pools the runs started.
    """
    if get_run_shard_kernel() is None:
        pytest.skip("native kernel unavailable")
    pools = []
    real_init = ShardWorkerPool.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        pools.append(self.n_workers)

    monkeypatch.setattr(ShardWorkerPool, "__init__", counting_init)
    graph = _ring_of_cliques(POOL_CLIQUES, POOL_CLIQUE_SIZE)
    pool_s, v6_s, result, _ = run_once(benchmark, _measure_pool_and_v6, graph)
    steps = result.steps_executed
    benchmark.extra_info.update(
        {
            "steps": steps,
            "pool_steps_per_s": steps / pool_s,
            "v6_steps_per_s": steps / v6_s,
            "pool_over_v6": v6_s / pool_s,
        }
    )
    print()
    print(
        render_table(
            [
                {
                    "graph": graph.name,
                    "shards": POOL_CLIQUES,
                    "workers": POOL_WORKERS,
                    "steps": steps,
                    "v6 s": f"{v6_s:.3f}",
                    "pool s": f"{pool_s:.3f}",
                    "v6 steps/s": f"{steps / v6_s:,.0f}",
                    "pool steps/s": f"{steps / pool_s:,.0f}",
                    "pool / v6": f"{v6_s / pool_s:.2f}",
                }
            ],
            title="SHARDING: 4-worker pool vs width-1 v6",
        )
    )
    # The warm-up and every timed round each started one 4-worker pool.
    assert pools == [POOL_WORKERS] * (POOL_ROUNDS + 1)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
