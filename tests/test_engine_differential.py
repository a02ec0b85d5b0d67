"""Randomized differential tests: executors, replica widths.

Property-style coverage beyond the hand-picked equivalence cases in
``test_engine_equivalence.py``: ~50 generated ``(graph, protocol, seed)``
triples assert that

* the reference interpreter and every compiled executor (the v6 stack
  where available, the per-replica engine) produce bit-identical
  simulation results on the same scheduler stream, and
* the replica-batched analytics engine produces bit-identical epidemic
  samples for every replica-batch width, on static and dynamic
  topologies alike.

Cases are generated from a fixed master seed via the package's own
SplitMix64 derivation, so the matrix is reproducible; every assertion
message carries the triple's description so a failure can be replayed
in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analytics.epidemics as epidemics_module
import repro.engine.native as native
from repro.analytics.epidemics import run_epidemic_batch, run_influence_batch
from repro.core.seeds import derive_seed
from repro.core.simulator import run_leader_election
from repro.dynamics import EpochSchedule
from repro.engine.native import MAX_KERNEL_THREADS, get_run_epoch_kernel, kernel_thread_count
from repro.engine.replicas import run_replicas
from repro.graphs import clique, cycle, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.protocols.identifier import IdentifierLeaderElection
from repro.protocols.star import StarLeaderElection
from repro.protocols.tokens import TokenLeaderElection

MASTER_SEED = 20260728

_GRAPH_BUILDERS = {
    "clique": lambda n, seed: clique(n),
    "cycle": lambda n, seed: cycle(n),
    "star": lambda n, seed: star(n),
    "torus": lambda n, seed: torus(max(int(round(n ** 0.5)), 3), max(int(round(n ** 0.5)), 3)),
    "gnp": lambda n, seed: erdos_renyi(n, p=0.4, rng=seed),
}

_PROTOCOL_BUILDERS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


def _simulator_cases():
    """~39 (graph, protocol, seed) triples for the engine matrix."""
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "star", "torus", "gnp"):
        for protocol_kind in ("token", "star", "identifier"):
            if protocol_kind == "identifier" and graph_kind in ("star", "gnp"):
                continue  # identifier is parameterised for regular families here
            for size in (8, 13, 19):
                seed = derive_seed(MASTER_SEED, "diff-sim", index)
                cases.append((graph_kind, size, protocol_kind, seed))
                index += 1
    return cases


def _analytics_cases():
    """~14 (graph, dynamic?, seed) triples for the replica-width matrix."""
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "torus", "gnp"):
        for dynamic in (False, True):
            seed = derive_seed(MASTER_SEED, "diff-ana", index)
            cases.append((graph_kind, 17, dynamic, seed))
            index += 1
    for graph_kind in ("clique", "star"):
        for dynamic in (False, True):
            seed = derive_seed(MASTER_SEED, "diff-ana", index)
            cases.append((graph_kind, 24, dynamic, seed))
            index += 1
    return cases


def _sim_id(case):
    return f"{case[0]}-n{case[1]}-{case[2]}-s{case[3] % 100000}"


def _ana_id(case):
    return f"{case[0]}-n{case[1]}-{'dyn' if case[2] else 'static'}-s{case[3] % 100000}"


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


@pytest.mark.parametrize("case", _simulator_cases(), ids=_sim_id)
def test_engines_bit_identical(case, engine_variants):
    graph_kind, size, protocol_kind, seed = case
    graph = _GRAPH_BUILDERS[graph_kind](size, derive_seed(seed, "graph"))
    max_steps = 6000
    outcomes = {}
    for engine, seed_of in engine_variants:
        protocol = _PROTOCOL_BUILDERS[protocol_kind](graph)
        result = run_leader_election(
            protocol,
            graph,
            rng=seed_of(seed),
            max_steps=max_steps,
            engine=engine,
        )
        outcomes[(engine, seed_of.__name__)] = _result_tuple(result)
    reference = outcomes[("reference", "int_seed")]
    for variant, outcome in outcomes.items():
        assert outcome == reference, (
            f"engine divergence on (graph={graph_kind}, n={size}, "
            f"protocol={protocol_kind}, seed={seed}): {variant} != reference\n"
            f"{variant}: {outcome[:6]}\nreference: {reference[:6]}"
        )


@pytest.mark.parametrize("case", _analytics_cases(), ids=_ana_id)
def test_replica_widths_bit_identical(case):
    graph_kind, size, dynamic, seed = case
    graph = _GRAPH_BUILDERS[graph_kind](size, derive_seed(seed, "graph"))
    n = graph.n_nodes
    schedule = None
    if dynamic:
        schedule = EpochSchedule.from_graphs(
            [graph, cycle(n)], epoch_length=48, repeat=True
        )
    rng = np.random.default_rng(seed)
    count = 11
    sources = [int(s) for s in rng.integers(0, n, size=count)]
    seeds = [derive_seed(seed, "traj", t) for t in range(count)]
    budget = 500_000
    reference = run_epidemic_batch(graph, sources, seeds, budget, schedule=schedule)
    assert (reference >= 0).all(), (
        f"budget exhausted on (graph={graph_kind}, n={size}, dynamic={dynamic}, seed={seed})"
    )
    for width in (1, 2, 5, count):
        result = run_epidemic_batch(
            graph, sources, seeds, budget, replica_batch=width, schedule=schedule
        )
        assert (result == reference).all(), (
            f"replica-width divergence on (graph={graph_kind}, n={size}, "
            f"dynamic={dynamic}, seed={seed}, width={width}): "
            f"{result.tolist()} != {reference.tolist()}"
        )


# ----------------------------------------------------------------------
# Thread-count invariance (kernel v6's replica-axis threading)
# ----------------------------------------------------------------------
def _fast_protocol(graph):
    from repro.propagation.broadcast import broadcast_time_estimate
    from repro.protocols.fast import FastLeaderElection

    broadcast = broadcast_time_estimate(graph, repetitions=2, rng=0).value
    return FastLeaderElection.practical_for_graph(graph, max(broadcast, 1.0))


_THREAD_PROTOCOLS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
    "fast": _fast_protocol,
}


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("protocol_kind", sorted(_THREAD_PROTOCOLS))
def test_thread_counts_bit_identical(protocol_kind, monkeypatch):
    """1, 2 and 8 kernel threads produce identical stack results.

    Threading only partitions independent replica rows, so every field of
    every result — not just aggregates — must be invariant.
    """
    graph = clique(18) if protocol_kind != "identifier" else cycle(14)
    seed = derive_seed(MASTER_SEED, "threads", protocol_kind)
    seeds = [derive_seed(seed, "replica", r) for r in range(9)]
    max_steps = 60_000
    outcomes = {}
    for threads in (1, 2, 8):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", str(threads))
        protocol = _THREAD_PROTOCOLS[protocol_kind](graph)
        results = run_replicas(protocol, graph, seeds, max_steps=max_steps)
        outcomes[threads] = [_result_tuple(result) for result in results]
    assert outcomes[2] == outcomes[1], f"{protocol_kind}: 2 threads != 1 thread"
    assert outcomes[8] == outcomes[1], f"{protocol_kind}: 8 threads != 1 thread"


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
def test_thread_env_invariance_dynamic_schedule(monkeypatch):
    """REPRO_KERNEL_THREADS never changes measured values, dynamic included.

    The dynamic schedule rides the v6 stack's epoch switches and the
    analytics batch rides the epoch kernels; both must ignore the thread
    count in everything but wall time.
    """
    graph = clique(16)
    n = graph.n_nodes
    schedule = EpochSchedule.from_graphs([graph, cycle(n)], epoch_length=64, repeat=True)
    seed = derive_seed(MASTER_SEED, "threads-dynamic")
    sources = [int(s) for s in np.random.default_rng(seed).integers(0, n, size=7)]
    traj_seeds = [derive_seed(seed, "traj", t) for t in range(7)]

    def run_everything():
        sim = run_leader_election(
            TokenLeaderElection(), graph, rng=seed, max_steps=8000,
            engine="auto", schedule=schedule,
        )
        batch = run_epidemic_batch(graph, sources, traj_seeds, 500_000, schedule=schedule)
        return _result_tuple(sim), batch.tolist()

    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
    baseline = run_everything()
    for threads in ("2", "8"):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", threads)
        assert run_everything() == baseline, f"{threads} threads changed results"


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
def test_thread_setting_reaches_every_kernel(monkeypatch):
    """``REPRO_KERNEL_THREADS`` is the thread argument of all three kernels.

    Each getter is wrapped where its stack looks it up, and each kernel
    call records its last argument, the thread count.
    """
    received = {}

    def spy_on(module, getter_name, kernel_name):
        kernel = getattr(module, getter_name)()

        def spying_kernel(*args):
            received.setdefault(kernel_name, []).append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(module, getter_name, lambda: spying_kernel)

    spy_on(native, "get_run_epoch_kernel", "repro_run_epoch")
    spy_on(epidemics_module, "get_broadcast_epoch_kernel", "repro_broadcast_epoch")
    spy_on(epidemics_module, "get_influence_epoch_kernel", "repro_influence_epoch")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    graph = clique(12)
    seeds = [derive_seed(MASTER_SEED, "thread-spy", r) for r in range(4)]
    run_replicas(TokenLeaderElection(), graph, seeds, max_steps=20_000)
    run_epidemic_batch(graph, [0, 1, 2, 3], seeds, 100_000)
    run_influence_batch(graph, seeds, 100_000)
    assert set(received) == {"repro_run_epoch", "repro_broadcast_epoch", "repro_influence_epoch"}
    assert all(threads == [3] * len(threads) for threads in received.values()), received


@pytest.mark.parametrize("raw", ["four", "2.5", "0", "-3"])
def test_thread_setting_rejects_malformed_and_non_positive_values(raw, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", raw)
    with pytest.raises(ValueError, match=f"REPRO_KERNEL_THREADS.*{raw!r}"):
        kernel_thread_count()


def test_thread_setting_defaults_to_one_and_clamps(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
    assert kernel_thread_count() == 1
    monkeypatch.setenv("REPRO_KERNEL_THREADS", " ")
    assert kernel_thread_count() == 1
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    assert kernel_thread_count() == 3
    monkeypatch.setenv("REPRO_KERNEL_THREADS", str(MAX_KERNEL_THREADS + 1))
    assert kernel_thread_count() == MAX_KERNEL_THREADS
