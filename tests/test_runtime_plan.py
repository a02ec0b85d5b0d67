"""Randomized property tests for the execution-plan runtime.

The central invariant of :mod:`repro.runtime`: executing a plan never
changes measured values.  A single-replica :class:`ExecutionPlan` is
bit-identical to the legacy ``Simulator.run`` entry point across the
reference interpreter and every compiled executor (the v6 stack where
available, the per-replica engine), on static and dynamic topologies
alike; a multi-replica plan (the v6 epoch stack) is bit-identical to
the same trials run one at a time through the reference interpreter.  The
routing table — which plans the v6 stack serves, schedules and
``compile_key`` groups included, and which stay on the per-replica
engine — is pinned case by case.  Cases are generated from
a fixed master seed via the package's own SplitMix64 derivation, so the
matrix is reproducible and every assertion message carries enough to
replay a failure in isolation.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import repro.engine.native as native
import repro.runtime.execute as execute_module
from repro.core.protocol import FOLLOWER, LEADER, PopulationProtocol
from repro.core.scheduler import RandomScheduler
from repro.core.seeds import derive_seed
from repro.core.simulator import Simulator, default_check_interval
from repro.dynamics import EpochSchedule
from repro.engine.compiler import (
    DEFAULT_MAX_STATES,
    CompiledProtocol,
    ProtocolCompilationError,
    clear_compilation_cache,
    get_compiled,
)
from repro.engine.native import get_run_epoch_kernel, reset_kernel_cache
from repro.experiments.harness import fast_protocol_spec, measure_protocol_on_graph
from repro.graphs import clique, cycle, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.orchestration import get_scenario, run_scenario
from repro.protocols import StarLeaderElection, TokenLeaderElection
from repro.protocols.identifier import (
    IdentifierKernelRule,
    IdentifierLeaderElection,
    _kernel_rule,
)
from repro.protocols.tokens import ALL_TOKEN_STATES, token_initial_state
from repro.runtime import compile_plan, execute_plan
from repro.runtime.execute import _stack_v6_eligible, _uniform_start
from repro.runtime.source import REFILL_SIZE

MASTER_SEED = 20260728 + 5  # PR-5 case stream, disjoint from the differential suite

_GRAPHS = {
    "clique": lambda n, seed: clique(n),
    "cycle": lambda n, seed: cycle(n),
    "star": lambda n, seed: star(n),
    "torus": lambda n, seed: torus(4, max(n // 4, 3)),
    "gnp": lambda n, seed: erdos_renyi(n, p=0.45, rng=seed),
}

_PROTOCOLS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


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


def _single_cases():
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "star", "gnp"):
        for protocol_kind in ("token", "star"):
            for dynamic in (False, True):
                seed = derive_seed(MASTER_SEED, "plan-single", index)
                cases.append((graph_kind, 10 + (index % 3) * 4, protocol_kind, dynamic, seed))
                index += 1
    for graph_kind, protocol_kind in (("cycle", "identifier"), ("torus", "token")):
        seed = derive_seed(MASTER_SEED, "plan-single", index)
        cases.append((graph_kind, 12, protocol_kind, False, seed))
        index += 1
    return cases


def _case_id(case):
    graph_kind, size, protocol_kind, dynamic, seed = case
    return f"{graph_kind}-n{size}-{protocol_kind}-{'dyn' if dynamic else 'static'}-s{seed % 100000}"


@pytest.mark.parametrize("case", _single_cases(), ids=_case_id)
def test_single_replica_plan_matches_simulator(case, engine_variants):
    """Plan execution ≡ legacy Simulator.run, engine by engine."""
    graph_kind, size, protocol_kind, dynamic, seed = case
    graph = _GRAPHS[graph_kind](size, derive_seed(seed, "graph"))
    schedule = None
    if dynamic:
        schedule = EpochSchedule.from_graphs(
            [graph, cycle(graph.n_nodes)], epoch_length=96, repeat=True
        )
    max_steps = 8000
    for engine, seed_of in engine_variants:
        protocol = _PROTOCOLS[protocol_kind](graph)
        plan = compile_plan(
            [protocol],
            graph,
            [seed_of(seed)],
            max_steps=max_steps,
            engine=engine,
            schedule=schedule,
        )
        via_plan = _result_tuple(execute_plan(plan)[0])
        protocol = _PROTOCOLS[protocol_kind](graph)
        via_simulator = _result_tuple(
            Simulator(graph, protocol, rng=seed_of(seed), engine=engine).run(
                max_steps=max_steps, schedule=schedule
            )
        )
        assert via_plan == via_simulator, (
            f"plan/simulator divergence on {_case_id(case)} ({engine}/{seed_of.__name__})\n"
            f"plan:      {via_plan[:6]}\nsimulator: {via_simulator[:6]}"
        )


def _stack_cases():
    cases = []
    for index, (graph_kind, size, protocol_kind) in enumerate(
        [("clique", 21, "token"), ("cycle", 16, "token"), ("star", 14, "star"), ("gnp", 18, "token")]
    ):
        seed = derive_seed(MASTER_SEED, "plan-stack", index)
        cases.append((graph_kind, size, protocol_kind, seed))
    return cases


@pytest.mark.parametrize(
    "case", _stack_cases(), ids=lambda c: f"{c[0]}-n{c[1]}-{c[2]}-s{c[3] % 100000}"
)
def test_replica_stack_matches_per_trial_runs(case):
    """The batched stack ≡ one reference Simulator.run per seed, field for field."""
    graph_kind, size, protocol_kind, seed = case
    graph = _GRAPHS[graph_kind](size, derive_seed(seed, "graph"))
    protocol = _PROTOCOLS[protocol_kind](graph)
    seeds = [derive_seed(seed, "replica", r) for r in range(9)]
    max_steps = 60_000
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=max_steps, engine="auto"
    )
    assert plan.mode == "shared"
    stacked = execute_plan(plan)
    for replica_seed, result in zip(seeds, stacked):
        single = Simulator(graph, protocol, rng=replica_seed, engine="reference").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single), (
            f"stack divergence on seed {replica_seed} of {_case_id((graph_kind, size, protocol_kind, False, seed))}"
        )


class _TableIdentifier(IdentifierLeaderElection):
    """The identifier protocol without its kernel rule.

    At ``identifier_bits <= 7`` it enumerates its states, so
    ``engine="auto"`` serves it on transition tables; at ``k = 5`` its
    378 states make tables of stride 512 that fill lazily, pair by pair,
    so a run stops on table misses mid-run.
    """

    def kernel_rule(self):
        return None


def test_stack_handles_lazily_compiled_tables():
    """Miss-resume: protocols without eager tables stay exact in the stack."""
    clear_compilation_cache()
    graph = cycle(12)
    protocol = _TableIdentifier(graph.n_nodes, identifier_bits=5)
    seeds = list(range(6))
    max_steps = 40_000
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=max_steps, engine="auto"
    )
    assert plan.mode == "shared" and isinstance(plan.compiled, CompiledProtocol)
    assert (plan.compiled.n_states, plan.compiled.stride) == (378, 512)
    stacked = execute_plan(plan)
    assert not plan.compiled.tables_complete
    for replica_seed, result in zip(seeds, stacked):
        single = Simulator(graph, protocol, rng=replica_seed, engine="reference").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single)


def test_custom_check_interval_flows_through_the_plan():
    graph = clique(12)
    protocol = TokenLeaderElection()
    plan = compile_plan(
        [protocol], graph, [7], max_steps=5000, engine="auto", check_interval=97
    )
    via_plan = _result_tuple(execute_plan(plan)[0])
    via_simulator = _result_tuple(
        Simulator(graph, protocol, rng=7, engine="auto").run(
            max_steps=5000, check_interval=97
        )
    )
    assert via_plan == via_simulator


def test_plan_resolution_modes():
    graph = clique(10)
    token = TokenLeaderElection()
    plan = compile_plan([token] * 3, graph, [0, 1, 2], max_steps=100, engine="reference")
    assert plan.mode == "reference" and plan.compiled is None
    plan = compile_plan([token] * 3, graph, [0, 1, 2], max_steps=100, engine="auto")
    assert plan.mode == "shared" and plan.compiled is not None
    assert plan.check_interval == default_check_interval(graph)
    # Heterogeneous compile keys are resolved per key group at execution.
    hetero = [TokenLeaderElection(), StarLeaderElection(), TokenLeaderElection()]
    plan = compile_plan(hetero, graph, [0, 1, 2], max_steps=100, engine="auto")
    assert plan.mode == "single"
    # A topology schedule is shared like a static graph.
    plan = compile_plan(
        [token] * 3, graph, [0, 1, 2], max_steps=100, schedule=_dynamic_schedule(graph)
    )
    assert plan.mode == "shared" and plan.compiled is not None


def test_plan_validation_errors():
    graph = clique(6)
    token = TokenLeaderElection()
    with pytest.raises(ValueError):
        compile_plan([], graph, [], max_steps=10)
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0, 1], max_steps=10)
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0], max_steps=-1)
    for engine in ("warp", "compiled"):
        with pytest.raises(ValueError, match="unknown engine"):
            compile_plan([token], graph, [0], max_steps=10, engine=engine)


def test_step_budget_and_cadence_are_never_truncated():
    """``max_steps`` and ``check_interval`` decide a result, so a float
    raises ``TypeError`` (2.9 steps used to run 2 steps, and cadence 2.5
    ran at 2) and a cadence below 1 raises ``ValueError`` (0 and -3 used
    to run at cadence 1).  NumPy integers are integers."""
    graph = cycle(8)
    token = TokenLeaderElection()
    simulator = Simulator(graph, token, rng=1)
    for kwargs in (
        {"max_steps": 2.9},
        {"max_steps": np.float64(100)},
        {"max_steps": 100, "check_interval": 2.5},
    ):
        with pytest.raises(TypeError):
            simulator.run(**kwargs)
    for cadence in (0, -3):
        with pytest.raises(ValueError, match="check_interval"):
            simulator.run(max_steps=100, check_interval=cadence)
    plan = compile_plan([token], graph, [1], max_steps=np.int64(100), check_interval=np.int32(2))
    assert (plan.max_steps, plan.check_interval) == (100, 2)
    assert type(plan.max_steps) is int and type(plan.check_interval) is int
    assert _result_tuple(execute_plan(plan)[0]) == _result_tuple(
        simulator.run(max_steps=100, check_interval=2)
    )


# ----------------------------------------------------------------------
# Executor routing and the v6 → per-replica → reference fallback chain
# ----------------------------------------------------------------------
def _spy_on_v6(monkeypatch):
    """Record the width of every plan that enters the v6 epoch stack."""
    calls = []
    real = execute_module._execute_stack_v6

    def spy(plan):
        calls.append(plan.n_replicas)
        return real(plan)

    monkeypatch.setattr(execute_module, "_execute_stack_v6", spy)
    return calls


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("engine", ["auto"])
def test_width_one_plans_run_on_v6(engine, monkeypatch):
    """A single-replica plan (every sweep unit) is shared and runs v6."""
    calls = _spy_on_v6(monkeypatch)
    graph = torus(5, 5)
    seed = derive_seed(MASTER_SEED, "width-one", engine)
    plan = compile_plan([TokenLeaderElection()], graph, [seed], max_steps=50_000, engine=engine)
    assert plan.mode == "shared" and plan.compiled is not None
    via_plan = _result_tuple(execute_plan(plan)[0])
    assert calls == [1]
    reference = Simulator(graph, TokenLeaderElection(), rng=seed, engine="reference").run(
        max_steps=50_000
    )
    assert via_plan == _result_tuple(reference)


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("max_steps", [0, 50_000], ids=["zero-budget", "run"])
def test_v6_setup_counts_initial_states_without_np_unique(max_steps, monkeypatch):
    """The v6 set-up finds the initial states' codes with ``np.bincount``.

    ``np.unique`` hashes integers on NumPy >= 2.3 (see the graph-build
    guard in ``test_graph.py``).  With it refused, the zero-budget exit
    and a full run both still equal the reference interpreter,
    ``distinct_states_observed`` included.
    """
    graph = torus(5, 5)
    inputs = [node % 4 == 0 for node in range(graph.n_nodes)]
    seeds = [derive_seed(MASTER_SEED, "no-unique", r) for r in range(3)]

    def plan(engine):
        return compile_plan(
            [TokenLeaderElection()] * len(seeds), graph, seeds,
            max_steps=max_steps, inputs=inputs, engine=engine,
        )

    reference = [_result_tuple(r) for r in execute_plan(plan("reference"))]
    calls = _spy_on_v6(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called in the v6 set-up")

    monkeypatch.setattr(np, "unique", refuse)
    assert [_result_tuple(r) for r in execute_plan(plan("auto"))] == reference
    assert calls == [len(seeds)]
    assert reference[0][5] >= 2  # candidates and non-candidates


#: Per transition rule of the stack: (protocol of a graph, the rule
#: class whose ``encode`` builds the initial codes).
_RULE_CASES = {
    "table": (lambda graph: TokenLeaderElection(), CompiledProtocol),
    "kernel-rule": (
        lambda graph: IdentifierLeaderElection(graph.n_nodes, regular=graph.is_regular()),
        IdentifierKernelRule,
    ),
}


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("rule", sorted(_RULE_CASES))
def test_v6_encodes_a_uniform_initial_configuration_once(rule, monkeypatch):
    """Without ``inputs`` a fresh rule encodes one state on its first
    plan and none on the next: the start is kept on the rule.

    A plan with ``inputs`` still takes the per-node encode on every
    plan, and all equal the reference interpreter.
    """
    make, rule_class = _RULE_CASES[rule]
    clear_compilation_cache()
    _kernel_rule.cache_clear()
    graph = torus(5, 5)
    seeds = [derive_seed(MASTER_SEED, "uniform-encode", r) for r in range(2)]
    encoded = []
    real_encode = rule_class.encode

    def counting_encode(self, states):
        states = list(states)
        encoded.append(len(states))
        return real_encode(self, states)

    monkeypatch.setattr(rule_class, "encode", counting_encode)
    per_node = [node % 4 == 0 for node in range(graph.n_nodes)]
    n = graph.n_nodes
    for inputs, first, second in ((None, [1], []), (per_node, [n], [n])):

        def plan(plan_engine):
            return compile_plan(
                [make(graph)] * len(seeds), graph, seeds,
                max_steps=50_000, inputs=inputs, engine=plan_engine,
            )

        reference = [_result_tuple(r) for r in execute_plan(plan("reference"))]
        for expected in (first, second):
            encoded.clear()
            assert [_result_tuple(r) for r in execute_plan(plan("auto"))] == reference
            assert encoded == expected


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("rule", sorted(_RULE_CASES))
def test_v6_uniform_starts_are_kept_per_state_and_read_only(rule):
    """A rule keeps one start per initial state; its arrays cannot be written."""
    make, _ = _RULE_CASES[rule]
    graph = torus(3, 3)
    rule_object = compile_plan([make(graph)], graph, [1], max_steps=10, engine="auto").compiled
    if rule == "table":
        states = [token_initial_state(True), token_initial_state(False)]
    else:
        states = [(1, token_initial_state(False)), (5, token_initial_state(True))]
    for _ in range(2):
        for state in states:
            code, leaders, seen = _uniform_start(rule_object, state)
            assert code.tolist() == rule_object.encode([state]).tolist()
            assert leaders == rule_object.leader_count(code)
            assert code.flags.writeable is False and seen.flags.writeable is False
            with pytest.raises(ValueError):
                code[0] = 0
    assert [state for state in states if state in rule_object.starts] == states


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` (a method) to log its calls; returns the log."""
    calls = []
    real = getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class _EveryBoundaryToken(TokenLeaderElection):
    """The token protocol without the kernel's one-leader prefilter."""

    certificate_requires_unique_leader = False


class _EveryBoundaryIdentifier(IdentifierLeaderElection):
    """The identifier protocol without the kernel's prefilter."""

    certificate_requires_unique_leader = False


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("rule", sorted(_RULE_CASES))
def test_stack_rows_finishing_in_different_calls_keep_replica_order(rule, monkeypatch):
    """A width-3 stack whose rows finish in different kernel calls.

    Without the prefilter every cadence block returns to Python, so the
    rows certify, and leave the stack, at different calls; the stack
    exits once the last row is done, and every result is its replica's.
    """
    graph = cycle(10)
    protocol_class = {"table": _EveryBoundaryToken, "kernel-rule": _EveryBoundaryIdentifier}[rule]
    make = {
        "table": _EveryBoundaryToken,
        "kernel-rule": lambda: _EveryBoundaryIdentifier(graph.n_nodes, regular=True),
    }[rule]
    _, rule_class = _RULE_CASES[rule]
    seeds = [derive_seed(20261017, "finish-order", r) for r in range(3)]
    widths = []
    kernel = get_run_epoch_kernel()

    def counting_kernel(*args):
        widths.append(args[9])  # the active rows
        return kernel(*args)

    monkeypatch.setattr(native, "get_run_epoch_kernel", lambda: counting_kernel)
    decodes = _count_calls(monkeypatch, rule_class, "decode_codes")
    certificates = _count_calls(monkeypatch, protocol_class, "is_output_stable_configuration")
    plan = compile_plan(
        [make()] * len(seeds), graph, seeds, max_steps=50_000, engine="auto", check_interval=8
    )
    stacked = [_result_tuple(r) for r in execute_plan(plan)]
    assert widths[0] == 3 and widths[-1] < 3, widths
    assert len({result[1] for result in stacked}) > 1  # different certified steps
    # Every boundary certificate reads its row's decoded states; the
    # step-0 certificate reads the initial states.
    assert len(decodes) == len(certificates) - 1 > 0
    for seed, result in zip(seeds, stacked):
        single = compile_plan(
            [make()], graph, [seed], max_steps=50_000, engine="reference", check_interval=8
        )
        assert result == _result_tuple(execute_plan(single)[0])


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("width", (1, 2))
def test_stack_rows_resume_their_streams_across_many_calls(width, monkeypatch):
    """Rows that stop on table misses many times, and run past their
    first refill, resume their seeded streams where they stopped.

    The fast protocol's freshly compiled tables miss over and over, so
    every row returns to Python many times before it certifies; the
    kernel seeds each row on the stack's first call only, and every
    later call continues the row's stream.  Results equal the reference
    interpreter's.  The misses fill entries only: the table set keeps
    its ``dpack`` array, stride, states and codes.
    """
    graph = cycle(40)
    protocol = fast_protocol_spec().factory(graph, 7)
    seeds = [derive_seed(99, "resume", r) for r in range(width)]
    reference = execute_plan(
        compile_plan([protocol] * width, graph, seeds, max_steps=200_000, engine="reference")
    )
    clear_compilation_cache()
    calls = []
    kernel = get_run_epoch_kernel()

    def counting_kernel(*args):
        calls.append(args[9])  # the active rows
        return kernel(*args)

    monkeypatch.setattr(native, "get_run_epoch_kernel", lambda: counting_kernel)
    plan = compile_plan([protocol] * width, graph, seeds, max_steps=200_000, engine="auto")
    tables = plan.compiled
    layout = (tables.dpack, tables.stride, list(tables.states), dict(tables.index))
    results = execute_plan(plan)
    assert len(calls) > 100, len(calls)
    assert tables.dpack is layout[0] and tables.stride == layout[1]
    assert (tables.states, tables.index) == layout[2:]
    assert not tables.tables_complete
    assert all(r.stabilized and r.steps_executed > REFILL_SIZE for r in results)
    assert [_result_tuple(r) for r in results] == [_result_tuple(r) for r in reference]


#: Stacks that end on their step budget, per transition rule: (protocol
#: of a graph, rule class, budget).  On a 5x5 torus the identifier
#: protocol's rows reach these budgets without a certificate due (none
#: holds one leader, or, on the kernel rule, one agreed identifier).  A
#: width-4 stack's rows end in different kernel calls: table rows stop
#: on misses of freshly compiled tables, kernel-rule rows on a full
#: (shortened) code log.
_BUDGET_CASES = {
    "table": (
        lambda graph: _TableIdentifier(graph.n_nodes, identifier_bits=5),
        CompiledProtocol,
        80,
    ),
    "kernel-rule": (
        lambda graph: IdentifierLeaderElection(graph.n_nodes, regular=True),
        IdentifierKernelRule,
        160,
    ),
}


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("width", (1, 4))
@pytest.mark.parametrize("rule", sorted(_BUDGET_CASES))
def test_budget_rows_decode_on_demand(rule, width, monkeypatch):
    """The stack decodes a row only for a certificate.  A row that ends
    on its budget gets a final configuration that decodes once, on first
    use, to the reference interpreter's."""
    make, rule_class, max_steps = _BUDGET_CASES[rule]
    graph = torus(5, 5)
    seeds = [derive_seed(MASTER_SEED, "budget-decode", r) for r in range(width)]
    references = [
        execute_plan(
            compile_plan([make(graph)], graph, [seed], max_steps=max_steps, engine="reference")
        )[0]
        for seed in seeds
    ]
    clear_compilation_cache()
    monkeypatch.setattr(execute_module, "_LOG_CAPACITY", 8)
    widths = []
    kernel = get_run_epoch_kernel()

    def counting_kernel(*args):
        widths.append(args[9])  # the active rows
        return kernel(*args)

    monkeypatch.setattr(native, "get_run_epoch_kernel", lambda: counting_kernel)
    decodes = _count_calls(monkeypatch, rule_class, "decode_codes")
    certificates = _count_calls(
        monkeypatch, IdentifierLeaderElection, "is_output_stable_configuration"
    )
    plan = compile_plan(
        [make(graph)] * width, graph, seeds, max_steps=max_steps, engine="auto"
    )
    assert isinstance(plan.compiled, rule_class)
    results = execute_plan(plan)
    assert len(decodes) == len(certificates)
    if width > 1:
        assert widths[0] == width and widths[-1] < width, widths
    boundary_decodes = len(decodes)
    for result, reference in zip(results, references):
        assert not result.stabilized and result.steps_executed == max_steps
        assert result.final_configuration.step == max_steps
        assert result.final_configuration == reference.final_configuration
        assert _result_tuple(result) == _result_tuple(reference)
    assert len(decodes) - boundary_decodes == width
    if rule == "table":
        assert not plan.compiled.tables_complete


#: Stack results whose kept code row the layout pin reads: (protocol and
#: inputs of a graph, step budget, the row's dtype).  Table codes fit two
#: bytes on a budget run and on the initially-stable and zero-budget
#: paths; the identifier rule's codes ``id << 3 | sub`` stay ``int64``.
_CODE_ROW_CASES = {
    "table-budget": (lambda g: (TokenLeaderElection(), None), 160, np.uint16),
    "table-zero-budget": (lambda g: (TokenLeaderElection(), None), 0, np.uint16),
    "table-initially-stable": (
        lambda g: (TokenLeaderElection(), [v == 0 for v in g.nodes]),
        160,
        np.uint16,
    ),
    "identifier-budget": (
        lambda g: (IdentifierLeaderElection(g.n_nodes, regular=True), None),
        160,
        np.int64,
    ),
    "identifier-zero-budget": (
        lambda g: (IdentifierLeaderElection(g.n_nodes, regular=True), None),
        0,
        np.int64,
    ),
}


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("width", (1, 3))
@pytest.mark.parametrize("case", sorted(_CODE_ROW_CASES))
def test_stack_results_keep_table_codes_in_two_bytes(case, width):
    """The code row a v6 result keeps holds a table code in two bytes:
    ``uint16``, ``2n`` bytes, whether the row ran out its budget or never
    ran.  A kernel rule's row stays ``int64``.  Results equal the
    reference interpreter's."""
    make, max_steps, dtype = _CODE_ROW_CASES[case]
    graph = torus(5, 5)
    seeds = [derive_seed(MASTER_SEED, "code-rows", r) for r in range(width)]

    def plan(engine):
        protocol, inputs = make(graph)
        return compile_plan(
            [protocol] * width, graph, seeds, max_steps=max_steps, inputs=inputs, engine=engine
        )

    stacked = plan("auto")
    assert _stack_v6_eligible(stacked)
    results = execute_plan(stacked)
    for result in results:
        codes = result.final_configuration._codes  # the row, not yet decoded
        assert codes.dtype == dtype and codes.shape == (graph.n_nodes,)
        assert codes.nbytes == np.dtype(dtype).itemsize * graph.n_nodes
        assert result.stabilized == (case == "table-initially-stable")
    reference = execute_plan(plan("reference"))
    assert [_result_tuple(r) for r in results] == [_result_tuple(r) for r in reference]


#: Step-0 certificate cases: (protocol, inputs of a graph, expected
#: step-0 certificate calls).  The one-leader precheck spares an
#: all-candidate start; a one-candidate token start certifies at step 0.
_STEP_ZERO_CASES = {
    "all-candidates": (TokenLeaderElection, lambda graph: None, 0),
    "one-candidate": (TokenLeaderElection, lambda graph: [v == 0 for v in graph.nodes], 1),
    "no-precheck": (_EveryBoundaryToken, lambda graph: None, 1),
}


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
@pytest.mark.parametrize("case", sorted(_STEP_ZERO_CASES))
def test_v6_step_zero_certificate_behind_the_one_leader_precheck(case, monkeypatch):
    """The stack applies its kernel's one-leader precheck to the initial
    certificate: it calls the certificate at step 0 only when one leader
    holds, or when the protocol declares no precheck.  Results equal the
    reference interpreter's, which checks step 0 unconditionally.

    A start without ``inputs`` is encoded from one state, so when the
    precheck skips step 0 the plan's per-node initial state list is
    never built.
    """
    make, inputs_of, step_zero_calls = _STEP_ZERO_CASES[case]
    graph = torus(5, 5)
    seeds = [derive_seed(MASTER_SEED, "step-zero", r) for r in range(2)]

    def plan(engine):
        return compile_plan(
            [make()] * len(seeds), graph, seeds,
            max_steps=50_000, inputs=inputs_of(graph), engine=engine,
        )

    reference = [_result_tuple(r) for r in execute_plan(plan("reference"))]
    kernel_calls = []
    certificate_calls = []  # kernel calls made before each certificate call
    kernel = get_run_epoch_kernel()
    certificate = TokenLeaderElection.is_output_stable_configuration

    def counting_kernel(*args):
        kernel_calls.append(1)
        return kernel(*args)

    def counting_certificate(self, states, graph):
        certificate_calls.append(len(kernel_calls))
        return certificate(self, states, graph)

    monkeypatch.setattr(native, "get_run_epoch_kernel", lambda: counting_kernel)
    monkeypatch.setattr(TokenLeaderElection, "is_output_stable_configuration", counting_certificate)
    compiled = plan("auto")
    assert [_result_tuple(r) for r in execute_plan(compiled)] == reference
    assert certificate_calls.count(0) == step_zero_calls
    assert (compiled._initial_states is not None) == (step_zero_calls > 0)
    # Every run stabilizes, at step 0 exactly when one candidate starts.
    at_start = case == "one-candidate"
    assert [(r[0], r[1] == 0) for r in reference] == [(True, at_start)] * len(seeds)
    assert (kernel_calls == []) == at_start


@pytest.mark.parametrize("case", sorted(_STEP_ZERO_CASES))
def test_per_replica_certificate_behind_the_one_leader_precheck(case, monkeypatch):
    """The per-replica engine applies the stack's one-leader precheck, at
    step 0 and at every boundary after it: a precheck protocol's
    certificate sees only configurations with exactly one leader.  A
    protocol without the precheck is certified at every boundary.
    Results equal the reference interpreter's."""
    make, inputs_of, _ = _STEP_ZERO_CASES[case]
    graph = torus(5, 5)
    seeds = [derive_seed(MASTER_SEED, "per-replica-precheck", r) for r in range(2)]

    def plan(engine, plan_seeds):
        return compile_plan(
            [make()] * len(seeds), graph, plan_seeds, max_steps=50_000,
            inputs=inputs_of(graph), engine=engine,
        )

    reference = [_result_tuple(r) for r in execute_plan(plan("reference", seeds))]
    leaders_seen = []
    certificate = TokenLeaderElection.is_output_stable_configuration

    def counting_certificate(self, states, graph):
        leaders_seen.append(sum(1 for state in states if self.output(state) == LEADER))
        return certificate(self, states, graph)

    monkeypatch.setattr(TokenLeaderElection, "is_output_stable_configuration", counting_certificate)
    # Generator seeds are not kernel-seedable: the per-replica engine.
    per_replica = plan("auto", [np.random.default_rng(seed) for seed in seeds])
    assert not _stack_v6_eligible(per_replica)
    assert [_result_tuple(r) for r in execute_plan(per_replica)] == reference
    assert all(r[0] for r in reference)
    if make.certificate_requires_unique_leader:
        assert leaders_seen and set(leaders_seen) == {1}, leaders_seen
    else:
        assert max(leaders_seen) > 1


def _dynamic_schedule(graph):
    return EpochSchedule.from_graphs([graph, cycle(graph.n_nodes)], epoch_length=96, repeat=True)


#: Plans the v6 stack must leave to the per-replica engine: each entry
#: builds fresh ``(protocols, seeds, compile_plan kwargs)`` for a graph
#: (fresh, because a Generator or scheduler is consumed by a run).
_PER_REPLICA_CASES = {
    "scheduler": lambda g: (
        [TokenLeaderElection()], [None], {"scheduler": RandomScheduler(g, rng=5)}
    ),
    "trace": lambda g: ([TokenLeaderElection()], [5], {"record_leader_trace": True}),
    "generator": lambda g: ([TokenLeaderElection()], [np.random.default_rng(5)], {}),
    "wide-seed": lambda g: ([TokenLeaderElection()], [2**64 + 5], {}),
}


@pytest.mark.parametrize("case", sorted(_PER_REPLICA_CASES))
def test_per_replica_cases_never_enter_v6(case, monkeypatch):
    """Overrides, traces and seeds the kernel cannot reproduce skip v6."""
    calls = _spy_on_v6(monkeypatch)
    graph = clique(12)
    protocols, seeds, kwargs = _PER_REPLICA_CASES[case](graph)
    plan = compile_plan(protocols, graph, seeds, max_steps=20_000, engine="auto", **kwargs)
    assert not _stack_v6_eligible(plan)
    via_plan = [_result_tuple(r) for r in execute_plan(plan)]
    assert calls == []
    protocols, seeds, kwargs = _PER_REPLICA_CASES[case](graph)
    reference = compile_plan(
        protocols, graph, seeds, max_steps=20_000, engine="reference", **kwargs
    )
    assert via_plan == [_result_tuple(r) for r in execute_plan(reference)]


class _PaddedToken(TokenLeaderElection):
    """The token protocol enumerating more states than a table holds.

    Its six states come first, then padding up to 5,000 states, so its
    tables would not fit the bound and are never built.  A key of its
    own keeps it off the token protocol's cached tables.
    """

    def enumerate_states(self):
        padding = range(5000 - len(ALL_TOKEN_STATES))
        return ALL_TOKEN_STATES + tuple(("padding", index) for index in padding)

    def compile_key(self):
        return ("padded-token", 5000)


#: Ways a run under ``auto`` reaches its tables: each entry builds fresh
#: ``(seeds, compile_plan kwargs)`` for a graph.  An integer seed is
#: resolved in ``compile_plan``; a Generator seed with a trace and a
#: stream override leave it to the per-replica resolution before the
#: first draw.
_SEED_KINDS = {
    "int-seed": lambda g: ([7], {}),
    "generator-trace": lambda g: ([np.random.default_rng(7)], {"record_leader_trace": True}),
    "scheduler": lambda g: ([None], {"scheduler": RandomScheduler(g, rng=7)}),
}


@pytest.mark.parametrize("kind", sorted(_SEED_KINDS))
def test_tables_beyond_the_bound_run_on_the_reference_for_every_seed_kind(kind):
    """A protocol whose tables would not fit the bound runs on the
    reference interpreter however its run is seeded: the choice is made
    before the first draw, so it changes nothing measured."""
    assert len(_PaddedToken().enumerate_states()) > DEFAULT_MAX_STATES
    graph = clique(10)
    build = _SEED_KINDS[kind]
    seeds, kwargs = build(graph)
    plan = compile_plan([_PaddedToken()], graph, seeds, max_steps=20_000, engine="auto", **kwargs)
    assert plan.mode == "single"
    result = execute_plan(plan)[0]
    seeds, kwargs = build(graph)
    reference = execute_plan(
        compile_plan(
            [_PaddedToken()], graph, seeds, max_steps=20_000, engine="reference", **kwargs
        )
    )[0]
    assert _result_tuple(result) == _result_tuple(reference)
    assert result.leader_trace == reference.leader_trace
    assert result.stabilized


def test_tables_beyond_the_bound_are_never_built(monkeypatch):
    """The table bound is checked before any table set is built, so
    plan after plan of a protocol enumerating beyond it builds none."""
    builds = []
    build = CompiledProtocol.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProtocol, "__init__", counted)
    graph = clique(10)
    for seed in range(20):
        plan = compile_plan([_PaddedToken()], graph, [seed], max_steps=20_000, engine="auto")
        assert execute_plan(plan)[0].stabilized
    assert builds == []


def _measured_fields(result):
    """Every field of a result but its wall time; the final configuration
    as its step and states."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    del fields["wall_time_seconds"]
    final = fields.pop("final_configuration")
    fields["final_configuration"] = (final.step, final.states)
    return fields


class _UnderstatedCounter(PopulationProtocol):
    """A counter that never stops growing, declaring eight states.

    It enumerates none, so no table set takes it, whatever size it
    declares.
    """

    name = "understated-counter"

    def initial_state(self, input_symbol=None):
        return 0

    def transition(self, initiator, responder):
        return initiator + 1, responder

    def output(self, state):
        return LEADER if state == 0 else FOLLOWER

    def state_space_size(self):
        return 8


@pytest.mark.parametrize("kind", sorted(_SEED_KINDS))
def test_declared_size_without_enumeration_runs_on_the_reference(kind, monkeypatch):
    """A protocol that declares its state space but enumerates none runs
    on the reference interpreter under ``auto``, however its run is
    seeded: no table set is built, and every field equals
    ``engine="reference"``'s."""
    builds = _count_calls(monkeypatch, CompiledProtocol, "__init__")
    graph = clique(2)
    build = _SEED_KINDS[kind]
    results = {}
    for engine in ("auto", "reference"):
        seeds, kwargs = build(graph)
        plan = compile_plan(
            [_UnderstatedCounter()], graph, seeds, max_steps=2000, engine=engine, **kwargs
        )
        assert plan.compiled is None
        results[engine] = _measured_fields(execute_plan(plan)[0])
    assert builds == []
    assert results["auto"] == results["reference"]
    assert results["auto"]["distinct_states_observed"] > 8


class _EscapingCounter(PopulationProtocol):
    """A counter that enumerates its first ``states`` values but never
    stops climbing; an input starts a node at that value."""

    name = "escaping-counter"

    def __init__(self, states):
        self.states = states

    def initial_state(self, input_symbol=None):
        return 0 if input_symbol is None else input_symbol

    def transition(self, initiator, responder):
        return initiator + 1, responder

    def output(self, state):
        return LEADER if state == 0 else FOLLOWER

    def enumerate_states(self):
        return tuple(range(self.states))


#: States outside the enumeration: (enumerated states, inputs, the state
#: the error names).  Eight states fill their tables when built, so the
#: successor 8 raises there; a hundred fill lazily, so the first run
#: that meets ``(99, x)`` raises mid-run; an initial state raises before
#: the first draw.
_OUTSIDE_CASES = {
    "successor-eager": (8, None, 8),
    "successor-lazy": (100, None, 100),
    "initial-state": (100, [150, 0], 150),
}

#: Executors that meet a state outside the enumeration: the v6 stack (an
#: integer seed; the per-replica engine where the kernel is not built)
#: and the per-replica engine, through a shared plan (a Generator seed)
#: and through per-replica resolution (a leader trace).
_OUTSIDE_EXECUTORS = {
    "int-seed": (lambda: 3, {}),
    "generator": (lambda: np.random.default_rng(3), {}),
    "trace": (lambda: 3, {"record_leader_trace": True}),
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE_CASES))
def test_states_outside_the_enumeration_raise_on_every_executor(case):
    """A table set is closed: a successor or initial state outside the
    protocol's enumeration raises the same error, naming the protocol
    and the state, on every executor, and no code is registered."""
    states, inputs, outside = _OUTSIDE_CASES[case]
    graph = clique(2)
    messages = set()
    for seed_of, kwargs in _OUTSIDE_EXECUTORS.values():
        protocol = _EscapingCounter(states)
        with pytest.raises(ProtocolCompilationError) as raised:
            plan = compile_plan(
                [protocol], graph, [seed_of()], max_steps=100_000, engine="auto",
                inputs=inputs, check_interval=1024, **kwargs,
            )
            execute_plan(plan)
        messages.add(str(raised.value))
        if states > 64:
            tables = get_compiled(protocol)
            assert (tables.n_states, tables.stride) == (states, 128)
    assert messages == {
        f"escaping-counter: state {outside} is not among its {states} enumerated states; "
        "use the reference engine"
    }


class _SaturatingCounter(PopulationProtocol):
    """A counter that climbs to its top state and stays there.

    It enumerates its 1,000 states, so its tables have stride 1024 from
    the start and fill lazily through ``_MISS`` stops mid-run.  Each
    state's code is the state itself.
    """

    name = "saturating-counter"
    top = 999

    def initial_state(self, input_symbol=None):
        return 0

    def transition(self, initiator, responder):
        return min(initiator + 1, self.top), responder

    def output(self, state):
        return LEADER if state % 2 == 0 else FOLLOWER

    def enumerate_states(self):
        return tuple(range(self.top + 1))


def test_table_codes_past_one_byte_match_the_reference(engine_variants):
    """Table codes above 255 stay exact on every executor: a run whose
    codes climb past one byte, on tables filled mid-run, equals the
    reference interpreter's result field for field.  Every ``auto`` plan
    holds transition tables of stride 1024 before and after its run."""
    graph = cycle(6)
    seed = derive_seed(MASTER_SEED, "wide-codes")
    results = {}
    for engine, seed_of in engine_variants:
        plan = compile_plan(
            [_SaturatingCounter()], graph, [seed_of(seed)], max_steps=3000, engine=engine
        )
        tables = plan.compiled
        assert (engine == "reference") == (tables is None)
        if tables is not None:
            assert isinstance(tables, CompiledProtocol) and tables.stride == 1024
        results[f"{engine}/{seed_of.__name__}"] = _measured_fields(execute_plan(plan)[0])
        if tables is not None:
            assert tables.stride == 1024
    reference = results.pop("reference/int_seed")
    assert min(reference["final_configuration"][1]) > 255
    assert reference["distinct_states_observed"] > 256
    assert results and results == {name: reference for name in results}


#: Plans the v6 stack serves although no one static table set covers
#: them: each entry builds fresh ``(protocols, seeds, compile_plan
#: kwargs)`` for a graph, next to the widths of the stacks it runs as.
_V6_CASES = {
    "schedule": (
        lambda g: ([TokenLeaderElection()], [5], {"schedule": _dynamic_schedule(g)}),
        [1],
    ),
    "heterogeneous": (
        lambda g: ([TokenLeaderElection(), StarLeaderElection()], [5, 6], {}),
        [1, 1],
    ),
    "identifier-schedule": (
        lambda g: (
            [IdentifierLeaderElection(g.n_nodes)],
            [5],
            {"schedule": _dynamic_schedule(g)},
        ),
        [1],
    ),
}


@pytest.mark.parametrize("case", sorted(_V6_CASES))
def test_plans_served_by_v6(case, monkeypatch):
    """Schedules and ``compile_key`` groups run on the stack, equal to the reference.

    Without the kernel they run on the per-replica engine, equally.
    """
    calls = _spy_on_v6(monkeypatch)
    graph = clique(12)
    build, widths = _V6_CASES[case]
    protocols, seeds, kwargs = build(graph)
    plan = compile_plan(protocols, graph, seeds, max_steps=50_000, engine="auto", **kwargs)
    via_plan = [_result_tuple(r) for r in execute_plan(plan)]
    assert calls == (widths if get_run_epoch_kernel() is not None else [])
    protocols, seeds, kwargs = build(graph)
    kwargs["engine"] = "reference"
    reference = compile_plan(protocols, graph, seeds, max_steps=50_000, **kwargs)
    assert via_plan == [_result_tuple(r) for r in execute_plan(reference)]


class _KeylessToken(TokenLeaderElection):
    """The token protocol without a ``compile_key``: no table sharing."""

    def compile_key(self):
        return None


@pytest.mark.parametrize("engine", ["auto"])
def test_key_groups_return_results_in_replica_order(engine, monkeypatch):
    """Interleaved keys A, B, A, C, B run as one stack per key, and every
    result lands at its replica's index; each ``None``-key replica is a
    group of its own.  Without the kernel the groups run per replica."""
    graph = clique(14)
    protocols = [
        TokenLeaderElection(),
        StarLeaderElection(),
        TokenLeaderElection(),
        IdentifierLeaderElection(graph.n_nodes),
        StarLeaderElection(),
        _KeylessToken(),
        _KeylessToken(),
    ]
    seeds = [derive_seed(MASTER_SEED, "key-groups", r) for r in range(len(protocols))]
    calls = _spy_on_v6(monkeypatch)
    plan = compile_plan(protocols, graph, seeds, max_steps=50_000, engine=engine)
    assert plan.mode == "single"
    grouped = [_result_tuple(r) for r in execute_plan(plan)]
    assert calls == ([2, 2, 1, 1, 1] if get_run_epoch_kernel() is not None else [])
    for protocol, seed, result in zip(protocols, seeds, grouped):
        single = Simulator(graph, protocol, rng=seed, engine="reference").run(max_steps=50_000)
        assert result == _result_tuple(single), type(protocol).__name__


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
def test_scenarios_and_measurements_never_reach_the_per_replica_engine(monkeypatch):
    """The package's own entry points keep every plan on the stack: the
    ``dynamic-*`` scenarios, and fast-protocol measurements whose trials
    calibrate to different ``compile_key``s (run as key groups)."""
    singles, groups = [], []
    real_single, real_group = execute_module._execute_single, execute_module._group_plan

    def single(plan, index):
        singles.append(plan.protocols[index])
        return real_single(plan, index)

    def group(plan, indices):
        groups.append(indices)
        return real_group(plan, indices)

    monkeypatch.setattr(execute_module, "_execute_single", single)
    monkeypatch.setattr(execute_module, "_group_plan", group)
    for name in ("dynamic-epoch-mix", "dynamic-edge-churn", "dynamic-torus-flicker", "dynamic-grow"):
        scenario = get_scenario(name).with_overrides(sizes=(16,), repetitions=2)
        run_scenario(scenario, jobs=1, cache=False)
    for graph in (cycle(12), torus(4, 4)):
        measure_protocol_on_graph(fast_protocol_spec(), graph, repetitions=8, seed=0)
    assert groups, "no measurement split into compile_key groups"
    assert singles == []


def _chain_plan():
    graph = clique(15)
    protocol = TokenLeaderElection()
    seeds = [derive_seed(MASTER_SEED, "chain", r) for r in range(7)]
    return compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=50_000, engine="auto"
    )


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
def test_v6_requires_kernel_seedable_seeds():
    """Seeds the kernel cannot reproduce drop the plan to the per-replica engine."""
    graph = clique(12)
    protocol = TokenLeaderElection()
    seeds = [3, 2**64 + 5, 11]  # >64-bit entropy: NumPy-only seeding
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=50_000, engine="auto"
    )
    assert plan.mode == "shared" and not _stack_v6_eligible(plan)
    for replica_seed, result in zip(seeds, execute_plan(plan)):
        single = Simulator(graph, protocol, rng=replica_seed, engine="reference").run(
            max_steps=50_000
        )
        assert _result_tuple(result) == _result_tuple(single)


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="kernel v6 unavailable")
def test_fallback_chain_simulated_missing_kernels(monkeypatch):
    """Losing the kernel never changes measured values.

    ``REPRO_DISABLE_NATIVE`` plus a cache reset simulates a host that
    cannot build the kernel: the plan drops from the v6 stack to the
    per-replica engine's scalar loop.
    """
    calls = _spy_on_v6(monkeypatch)
    baseline = [_result_tuple(r) for r in execute_plan(_chain_plan())]
    assert calls == [7]
    try:
        os.environ["REPRO_DISABLE_NATIVE"] = "1"
        reset_kernel_cache()
        plan = _chain_plan()
        assert not _stack_v6_eligible(plan) and get_run_epoch_kernel() is None
        via_scalar = [_result_tuple(r) for r in execute_plan(plan)]
        assert via_scalar == baseline, "v6→scalar fallback changed results"
    finally:
        os.environ.pop("REPRO_DISABLE_NATIVE", None)
        reset_kernel_cache()
    assert calls == [7]
    assert get_run_epoch_kernel() is not None  # chain restored for later tests


def test_wall_time_is_reported_per_replica():
    graph = clique(16)
    protocol = TokenLeaderElection()
    plan = compile_plan([protocol] * 4, graph, list(range(4)), max_steps=50_000, engine="auto")
    results = execute_plan(plan)
    assert all(result.wall_time_seconds > 0.0 for result in results)
