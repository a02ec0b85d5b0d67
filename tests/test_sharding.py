"""Differential, routing and structural tests for the sharded graph engine.

The determinism contract of :mod:`repro.sharding` is gated here: a
plan run on the shard-worker pool (``execute_sharded(plan, shards,
workers)``, the pool's only entry) is byte-identical to ``execute_plan``
on the same plan — for any seed, shard count, worker count and node
assignment — because partitioning decides *where* a pair is applied,
never *which* pair is drawn.  Every plan the pool cannot serve (one
shard, a topology schedule, lazily filled tables, a kernel rule, a
killed worker) runs on ``execute_plan`` instead, with the same results.

The structural half pins the partitioner itself: a seeded golden
fixture freezes the hash assignment and the partition fingerprint, so
any drift in the SplitMix64 constants or the rounding rules fails
loudly instead of silently re-routing pairs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.runtime.execute as execute_module
from repro.core.scheduler import RandomScheduler
from repro.dynamics import EpochSchedule
from repro.engine.native import get_run_shard_kernel
from repro.graphs import GraphError, clique, cycle, star, torus
from repro.protocols import StarLeaderElection, TokenLeaderElection
from repro.protocols.identifier import IdentifierLeaderElection
from repro.runtime import compile_plan, execute_plan
from repro.runtime.pairs import directed_tables
from repro.sharding import (
    ExchangeQueue,
    PartitionedGraph,
    ShardedInteractionSource,
    ShardWorkerPool,
    execute_sharded,
    sharded_eligible,
)
from repro.sharding.partition import node_assignment
from repro.sharding.source import ExchangeError

#: Tests that assert which executor ran (byte-identity tests pass either
#: way: without the kernel every plan runs unsharded).
requires_kernel = pytest.mark.skipif(
    get_run_shard_kernel() is None, reason="native kernel unavailable"
)

SEED = 20260808  # PR-9 case stream


def result_tuple(result):
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


_GRAPHS = {
    "clique12": lambda: clique(12),
    "cycle9": lambda: cycle(9),
    "star10": lambda: star(10),
    "torus3x4": lambda: torus(3, 4),
}

_PROTOCOLS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


class _TableIdentifier(IdentifierLeaderElection):
    """The identifier protocol without its kernel rule: at
    ``identifier_bits <= 7`` it enumerates its states, so
    ``engine="auto"`` serves it on transition tables, which fill lazily
    (``k = 5``: 378 states, more than the 64 filled when built)."""

    def kernel_rule(self):
        return None


#: Every protocol a plan here can run: the executor matrix's, and the
#: identifier protocol on lazily filled tables.
_FACTORIES = {
    **_PROTOCOLS,
    "identifier-tables": lambda graph: _TableIdentifier(graph.n_nodes, identifier_bits=5),
}


def _plan(graph, protocol_kind, seeds):
    factory = _FACTORIES[protocol_kind]
    protocols = [factory(graph) for _ in seeds]
    return compile_plan(protocols, graph, list(seeds), max_steps=5000)


def _run(plan, shards=None, workers=None):
    """``plan``'s results: on the pool when given its counts, else on
    ``execute_plan``."""
    results = execute_plan(plan) if shards is None else execute_sharded(plan, shards, workers)
    return [result_tuple(r) for r in results]


#: Token inputs for star(8) with a single candidate: stable from step 0.
_ONE_CANDIDATE = [1] + [0] * 7


def _spy_on_v6(monkeypatch):
    """Record the width of every plan that enters the v6 epoch stack."""
    widths = []
    real = execute_module._execute_stack_v6

    def spy(plan):
        widths.append(plan.n_replicas)
        return real(plan)

    monkeypatch.setattr(execute_module, "_execute_stack_v6", spy)
    return widths


class TestExecutorEquivalence:
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    @pytest.mark.parametrize("protocol_kind", sorted(_PROTOCOLS))
    def test_one_shard_matches_batched_path(self, graph_kind, protocol_kind):
        """One shard leaves nothing to split: the plan runs unsharded."""
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + index for index in range(3)]
        batched = _run(_plan(graph, protocol_kind, seeds))
        sharded_plan = _plan(graph, protocol_kind, seeds)
        assert not sharded_eligible(sharded_plan, 1, 2)
        assert _run(sharded_plan, 1, 2) == batched

    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    def test_k_shards_match_one_shard(self, k, graph_kind):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + 100 + index for index in range(3)]
        one = _run(_plan(graph, "token", seeds))
        many = _run(_plan(graph, "token", seeds), k, 2)
        assert many == one

    def test_hash_partition_matches_range_partition(self):
        """The executor result is invariant to the assignment policy."""
        graph = torus(3, 4)
        seeds = [SEED + 200 + index for index in range(2)]
        plan = _plan(graph, "token", seeds)
        by_range = _run(plan, 3, 2)
        hashed = PartitionedGraph(graph, 3, mode="hash", seed=7)
        by_hash = [result_tuple(r) for r in execute_sharded(plan, 3, 2, partition=hashed)]
        assert by_hash == by_range == _run(_plan(graph, "token", seeds))

    def test_single_replica_plan(self):
        graph = clique(10)
        seeds = [SEED + 300]
        plain = _run(_plan(graph, "token", seeds))
        sharded = _run(_plan(graph, "token", seeds), 3, 2)
        assert sharded == plain

    def test_initially_stable_and_zero_budget(self):
        graph = star(8)
        seeds = [SEED + 400, SEED + 401]
        # One initial candidate: the token protocol's initial
        # configuration is already stable.  Also pin max_steps=0.
        tokens = [TokenLeaderElection() for _ in seeds]
        base = compile_plan(tokens, graph, seeds, max_steps=5000, inputs=_ONE_CANDIDATE)
        stable = _run(base, 2, 2)
        assert stable == _run(base)
        assert all(result[0] and result[3] == 0 for result in stable)
        base0 = compile_plan(tokens, graph, seeds, max_steps=0)
        assert _run(base0, 2, 2) == _run(base0)


class TestFallbackChain:
    def test_dynamic_schedule_is_ineligible_and_identical(self):
        """A time-varying topology drops the plan to the standard chain."""
        graph = cycle(12)
        schedule = EpochSchedule([(graph, 64), (star(12), 64)], repeat=True)
        seeds = [SEED + 500, SEED + 501]
        tokens = [TokenLeaderElection() for _ in seeds]
        plan = compile_plan(tokens, graph, seeds, max_steps=3000, schedule=schedule)
        assert not sharded_eligible(plan, 4, 2)
        assert _run(plan, 4, 2) == _run(plan)

    def test_reference_engine_is_ineligible(self):
        graph = cycle(8)
        seeds = [SEED + 700, SEED + 701]
        tokens = [TokenLeaderElection() for _ in seeds]
        plan = compile_plan(tokens, graph, seeds, max_steps=2000, engine="reference")
        assert not sharded_eligible(plan, 2, 2)
        execute_sharded(plan, 2, 2)  # must run through the reference path, not raise


_UNSERVED_CASES = {
    # Table entries must never be filled across processes.
    "lazy-tables": "identifier-tables",
    # The workers apply table entries; the kernel's identifier rule has none.
    "kernel-rule": "identifier",
}


@requires_kernel
@pytest.mark.parametrize("case", sorted(_UNSERVED_CASES))
def test_unserved_shard_plans_run_unsharded_on_v6(case, monkeypatch):
    """A plan the pool cannot serve runs on the v6 stack and is never
    partitioned."""
    protocol_kind = _UNSERVED_CASES[case]
    graph = torus(3, 4)
    seeds = [SEED + 750 + index for index in range(3)]
    plain = _run(_plan(graph, protocol_kind, seeds))

    partitions = []
    real_init = PartitionedGraph.__init__

    def spy_init(self, *args, **kwargs):
        partitions.append(args)
        real_init(self, *args, **kwargs)

    v6_widths = _spy_on_v6(monkeypatch)
    monkeypatch.setattr(PartitionedGraph, "__init__", spy_init)
    plan = _plan(graph, protocol_kind, seeds)
    if case == "lazy-tables":
        assert not plan.compiled.tables_complete
    if case == "kernel-rule":
        assert plan.compiled is plan.protocols[0].kernel_rule()
    assert _run(plan, 4, 2) == plain
    assert v6_widths == [len(seeds)]
    assert partitions == []
    if case == "lazy-tables":
        assert not plan.compiled.tables_complete


class TestPartitionStructure:
    def test_golden_hash_fixture(self):
        """Seeded hash assignment + fingerprint, frozen at PR 9.

        If this fails, the partitioner's output changed — which silently
        re-routes every boundary pair.  Do not update the constants
        without bumping the fingerprint header version.
        """
        assignment = node_assignment(24, 4, mode="hash", seed=2022)
        assert assignment.tolist() == [
            2, 3, 3, 2, 2, 0, 0, 2, 0, 3, 3, 3,
            0, 0, 3, 2, 3, 3, 3, 1, 0, 3, 1, 2,
        ]
        partition = PartitionedGraph(cycle(24), 4, mode="hash", seed=2022)
        assert partition.fingerprint == (
            "cd2282a03afe75ca00ef52e3d630de2a019ae9481151e0b72c1bac81a3b8a919"
        )
        assert partition.shard_sizes.tolist() == [6, 2, 6, 10]
        assert partition.boundary_pair_count() == 30

    def test_range_assignment_is_contiguous_and_balanced(self):
        assignment = node_assignment(10, 3, mode="range")
        assert assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
        counts = np.bincount(assignment, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_fingerprint_distinguishes_layouts(self):
        graph = cycle(24)
        fingerprints = {
            PartitionedGraph(graph, 4, mode="range").fingerprint,
            PartitionedGraph(graph, 3, mode="range").fingerprint,
            PartitionedGraph(graph, 4, mode="hash", seed=1).fingerprint,
            PartitionedGraph(graph, 4, mode="hash", seed=2).fingerprint,
        }
        assert len(fingerprints) == 4

    def test_validation_errors(self):
        with pytest.raises(GraphError, match="partition mode"):
            node_assignment(10, 2, mode="bogus")
        with pytest.raises(GraphError, match="shards"):
            node_assignment(10, 0)
        with pytest.raises(GraphError, match="shards"):
            node_assignment(10, 11)
        with pytest.raises(GraphError, match="edgeless"):
            PartitionedGraph(clique(1), 1)


class TestExchangeQueue:
    def test_fifo_and_stats(self):
        queue = ExchangeQueue(3)
        queue.post(0, 2, (1, 4))
        queue.post(0, 2, (2, 5))
        assert queue.in_flight == 2
        assert queue.deliver(0, 2) == (1, 4)
        assert queue.deliver(0, 2) == (2, 5)
        assert queue.in_flight == 0
        assert queue.posted[0, 2] == 2
        assert queue.delivered[0, 2] == 2
        queue.assert_quiescent()

    def test_empty_delivery_raises(self):
        queue = ExchangeQueue(2)
        with pytest.raises(ExchangeError, match="empty channel"):
            queue.deliver(0, 1)

    def test_quiescence_violation_names_the_channel(self):
        queue = ExchangeQueue(2)
        queue.post(1, 0, (0, 0))
        with pytest.raises(ExchangeError, match="not quiescent"):
            queue.assert_quiescent()

    def test_boundary_traffic_is_accounted(self):
        """A sharded run's exchange volume equals its boundary-pair draws."""
        graph = cycle(16)
        partition = PartitionedGraph(graph, 4, mode="range")
        routed = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED), partition
        )
        block = routed.next_spans(512)
        assert block.n_boundary > 0  # a 4-cut cycle always has boundary edges
        queue = ExchangeQueue(4)
        for src, dst in zip(block.init_shard.tolist(), block.resp_shard.tolist()):
            if src != dst:
                queue.post(src, dst, (0, 0))
                queue.deliver(src, dst)
        assert int(queue.posted.sum()) == block.n_boundary
        queue.assert_quiescent()


class TestRoutedSource:
    def test_routed_stream_is_the_global_stream(self):
        """Routing must not perturb the seeded draw sequence, however the
        stream is chunked."""
        graph = torus(3, 4)
        plain = RandomScheduler(graph, rng=SEED).next_pair_indices(256)
        du, dv = directed_tables(graph)
        routed = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED),
            PartitionedGraph(graph, 3, mode="hash", seed=3),
        )
        blocks = [routed.next_spans(size) for size in (100, 156)]
        assert (np.concatenate([b.gu for b in blocks]) == du[plain]).all()
        assert (np.concatenate([b.gv for b in blocks]) == dv[plain]).all()


class TestScenarioDial:
    def test_torus_million_registered(self):
        from repro.orchestration import get_scenario

        scenario = get_scenario("torus-million")
        scenario.validate()
        assert scenario.sizes == (1_000_000,)


class TestSpanSchedule:
    """The span schedule: global-endpoint draws in original draw order,
    annotated so that only the boundary events are order-critical."""

    def _twin_sources(self, graph, shards, seed_offset=0):
        """A plain seeded stream and its span-scheduled twin."""
        partition = PartitionedGraph(graph, shards, mode="hash", seed=3)
        twin = RandomScheduler(graph, rng=SEED + seed_offset)
        spans = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED + seed_offset), partition
        )
        return twin, spans, partition

    def test_span_schedule_matches_the_routed_twin(self):
        """The span block equals its twin's draws routed by hand through
        ``directed_tables`` and the node assignment."""
        graph = torus(3, 4)
        twin, spans, partition = self._twin_sources(graph, 3)
        indices = twin.next_pair_indices(512)
        du, dv = directed_tables(graph)
        si = partition.assignment[du[indices]]
        sj = partition.assignment[dv[indices]]
        block = spans.next_spans(512)

        assert block.size == 512 and block.gu.size == 512
        assert (block.gu == du[indices]).all()
        assert (block.gv == dv[indices]).all()
        assert (block.init_shard == si).all()
        assert (block.resp_shard == sj).all()
        assert block.boundary_pos.tolist() == np.flatnonzero(si != sj).tolist()

    def test_spans_between_boundaries_are_shard_local(self):
        graph = cycle(24)
        _, spans, _ = self._twin_sources(graph, 4, seed_offset=1)
        block = spans.next_spans(768)
        local = np.ones(768, dtype=bool)
        local[block.boundary_pos] = False
        # Every non-boundary draw has both endpoints on one shard: the
        # stretch between two boundary positions commutes per shard, so
        # it may run on any worker.
        assert (block.init_shard[local] == block.resp_shard[local]).all()
        assert block.n_boundary == int((block.init_shard != block.resp_shard).sum())

    def test_single_shard_yields_no_boundaries(self):
        graph = clique(10)
        partition = PartitionedGraph(graph, 1)
        source = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED), partition
        )
        block = source.next_spans(128)
        assert block.n_boundary == 0
        assert (block.init_shard == 0).all()


class TestShardWorkerPool:
    """Byte-identity of the fork-based worker pool for every worker
    count, against the same plan without shards."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    @pytest.mark.parametrize("protocol_kind", sorted(_PROTOCOLS))
    def test_worker_counts_are_byte_identical(self, k, graph_kind, protocol_kind):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + 900 + index for index in range(2)]
        unsharded = _run(_plan(graph, protocol_kind, seeds))
        for workers in (2, 4):
            pooled = _run(_plan(graph, protocol_kind, seeds), k, workers)
            assert pooled == unsharded, (k, graph_kind, protocol_kind, workers)

    def test_pool_requires_complete_tables(self):
        """Lazily filled tables run unsharded (the worker pool must never
        fill table entries concurrently) — before their first run, with
        no entry filled, and after it."""
        from repro.engine.compiler import CompiledProtocol

        graph = cycle(9)
        seeds = [SEED + 950]
        plan = _plan(graph, "identifier-tables", seeds)
        fresh = dataclasses.replace(plan, compiled=CompiledProtocol(plan.protocols[0]))
        assert fresh.compiled.filled_pairs == 0 and not fresh.compiled.tables_complete
        assert not sharded_eligible(fresh, 3, 2)
        execute_plan(plan)  # fills entries lazily, leaving the tables open
        assert not plan.compiled.tables_complete
        assert not sharded_eligible(plan, 3, 2)

    @requires_kernel
    def test_pool_used_when_eligible(self, monkeypatch):
        graph = torus(3, 4)
        seeds = [SEED + 960]
        plan = _plan(graph, "token", seeds)
        assert plan.compiled.tables_complete and sharded_eligible(plan, 3, 2)
        pools = []
        real_init = ShardWorkerPool.__init__

        def spy_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            pools.append(self.n_workers)

        monkeypatch.setattr(ShardWorkerPool, "__init__", spy_init)
        assert _run(plan, 3, 2) == _run(plan)
        assert pools == [2]


class TestWorkerPoolFailure:
    """Failure paths: a broken or unavailable pool hands its replicas to
    the unsharded chain byte-identically."""

    @requires_kernel
    def test_worker_killed_mid_super_step_demotes_identically(self, monkeypatch):
        graph = torus(3, 4)
        seeds = [SEED + 1100 + index for index in range(3)]
        base = _run(_plan(graph, "token", seeds))
        # Every worker os._exit(1)s at the start of its third super-step:
        # the parent sees the dead pipe mid-chunk, closes the pool and
        # reruns the replica (and all later ones) unsharded.
        monkeypatch.setenv("REPRO_SHARD_WORKER_KILL_AFTER_CHUNKS", "2")
        widths = _spy_on_v6(monkeypatch)
        killed = _run(_plan(graph, "token", seeds), 4, 2)
        assert killed == base
        assert len(widths) == 1 and 1 <= widths[0] <= len(seeds)

    @requires_kernel
    def test_worker_killed_immediately_demotes_identically(self, monkeypatch):
        graph = cycle(16)
        seeds = [SEED + 1200]
        base = _run(_plan(graph, "token", seeds))
        monkeypatch.setenv("REPRO_SHARD_WORKER_KILL_AFTER_CHUNKS", "0")
        widths = _spy_on_v6(monkeypatch)
        killed = _run(_plan(graph, "token", seeds), 4, 4)
        assert killed == base
        assert widths == [1]


@requires_kernel
class TestPerReplicaTiming:
    """wall_time_seconds is measured per replica, never smeared."""

    def _tick(self, monkeypatch):
        import itertools

        import repro.sharding.executor as executor_module

        counter = itertools.count()
        monkeypatch.setattr(
            executor_module.time, "perf_counter", lambda: float(next(counter))
        )

    def test_each_replica_times_itself(self, monkeypatch):
        graph = torus(3, 4)
        seeds = [SEED + 1300 + index for index in range(3)]
        plan = _plan(graph, "token", seeds)
        self._tick(monkeypatch)
        results = execute_sharded(plan, 3, 2)
        # The fake clock advances 1.0 per call; each replica makes
        # exactly one start/end pair, so a smeared wall (total / 3)
        # would read ~1.67 while per-replica timing reads exactly 1.0.
        assert [r.wall_time_seconds for r in results] == [1.0, 1.0, 1.0]

    def test_initially_stable_replicas_time_individually(self, monkeypatch):
        graph = star(8)
        seeds = [SEED + 1400, SEED + 1401]
        protocols = [TokenLeaderElection() for _ in seeds]
        plan = compile_plan(protocols, graph, seeds, max_steps=5000, inputs=_ONE_CANDIDATE)
        self._tick(monkeypatch)
        results = execute_sharded(plan, 2, 2)
        assert [r.steps_executed for r in results] == [0, 0]
        assert [r.wall_time_seconds for r in results] == [1.0, 1.0]


class TestShardWorkersDial:
    def test_negative_shard_workers_rejected(self):
        """The pool's counts are its entry's own arguments: a count below
        1 raises, naming the argument, before any plan is probed."""
        plan = compile_plan([TokenLeaderElection()], cycle(8), [SEED], max_steps=100)
        for shards, workers, name in ((4, -2, "workers"), (4, 0, "workers"), (0, 2, "shards")):
            for entry in (sharded_eligible, execute_sharded):
                with pytest.raises(ValueError, match=name):
                    entry(plan, shards, workers)
