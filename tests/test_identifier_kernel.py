"""The identifier protocol on the v6 epoch kernel's arithmetic rule.

``engine="auto"`` runs Theorem 21 on ``repro_run_epoch`` with the rule
computed in C on codes ``id << 3 | sub``
(:class:`repro.protocols.identifier.IdentifierKernelRule`) instead of
on transition tables.  Three layers are pinned here:

* **rule parity** — one kernel step on a two-node graph equals the
  Python ``transition`` + ``output`` on every ordered state pair for
  ``k <= 4`` and on Hypothesis-drawn pairs up to ``k = 59``: successor
  codes, leader delta, output-change flag, the written-code log and the
  identifier precheck;
* **plan differential** — every result field of a rule plan equals the
  reference interpreter across graph families, identifier widths,
  budgets, seeds, stack widths, thread counts and a log small enough to
  fill mid-block;
* **routing** — rule plans never reach the reference interpreter, and
  every plan the kernel cannot serve still does, with equal results
  (rule plans on topology schedules run on the stack too; see
  ``tests/test_runtime_plan.py::test_plans_served_by_v6`` and
  ``tests/test_dynamics.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.execute as execute_module
from repro.core.protocol import LEADER
from repro.core.seeds import derive_seed
from repro.core.simulator import default_check_interval
from repro.engine.native import (
    NO_EPOCH_END,
    ROW_LAST_CHANGE,
    ROW_LEADERS,
    ROW_LOG_LEN,
    ROW_STATUS,
    ROW_STEPS,
    STACK_ROW_WORDS,
    get_run_epoch_kernel,
    reset_kernel_cache,
)
from repro.graphs import clique, cycle, path, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.protocols.identifier import IdentifierKernelRule, IdentifierLeaderElection
from repro.protocols.tokens import ALL_TOKEN_STATES
from repro.runtime import compile_plan, execute_plan

MASTER_SEED = 20261016

requires_kernel = pytest.mark.skipif(
    get_run_epoch_kernel() is None, reason="kernel v6 unavailable"
)


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


# ----------------------------------------------------------------------
# Rule parity: one kernel step per ordered state pair
# ----------------------------------------------------------------------
def _kernel_step(bits, pairs):
    """Apply one ``repro_run_epoch`` step to each ``(a, b)`` code pair.

    Row ``r`` is a two-node configuration ``[a, b]``.  Both directed
    indices of the single edge name node 0 the initiator, so every row
    applies exactly ``Ξ(a, b)``.  The topology is static, the budget and
    the cadence are one step, with the unique-leader precheck on: the
    row status says whether the kernel would hand that boundary to
    Python.  Steps, last change, leaders, status and log length are read
    from the row block's words.
    """
    rule = IdentifierKernelRule(bits)
    nrep = len(pairs)
    codes = np.array(pairs, dtype=np.int64).reshape(nrep, 2)
    before = rule.table[64 + (codes & 7)].sum(axis=1).astype(np.int64)
    rows = np.zeros((nrep, STACK_ROW_WORDS), dtype=np.int64)
    rows[:, ROW_LEADERS] = before
    rows[:, ROW_STATUS] = 255
    seeds = np.array([derive_seed(MASTER_SEED, "parity", r) for r in range(nrep)], dtype=np.uint64)
    buffers = np.zeros((nrep, 1), dtype=np.int64)
    initiator = np.zeros(2, dtype=np.int32)
    responder = np.ones(2, dtype=np.int32)
    log = np.full((nrep, 2), -1, dtype=np.int64)
    get_run_epoch_kernel()(
        codes.ctypes.data, rows.ctypes.data, seeds.ctypes.data,
        buffers.ctypes.data, 1, initiator.ctypes.data, responder.ctypes.data, 1,
        NO_EPOCH_END, nrep, 2, rule.rule_id, rule.table.ctypes.data, rule.threshold, 0,
        None, log.ctypes.data, 2, 1, 1, 1, 1, 1,
    )
    assert (rows[:, ROW_STEPS] == 1).all()
    return (
        codes,
        rows[:, ROW_LEADERS] - before,
        rows[:, ROW_LAST_CHANGE],
        log,
        rows[:, ROW_LOG_LEN],
        rows[:, ROW_STATUS],
    )


def _decode(code):
    return code >> 3, ALL_TOKEN_STATES[code & 7]


def _encode(state):
    return (state[0] << 3) | ALL_TOKEN_STATES.index(state[1])


def _check_parity(bits, pairs):
    protocol = IdentifierLeaderElection(2, identifier_bits=bits)
    threshold = 1 << bits
    codes, delta, last_change, log, log_len, status = _kernel_step(bits, pairs)
    for row, (a, b) in enumerate(pairs):
        state_a, state_b = _decode(a), _decode(b)
        next_a, next_b = protocol.transition(state_a, state_b)
        expected = (_encode(next_a), _encode(next_b))
        where = f"k={bits}: {state_a} x {state_b}"
        assert tuple(codes[row].tolist()) == expected, where
        outputs = [protocol.output(s) for s in (state_a, state_b, next_a, next_b)]
        leads = [output == LEADER for output in outputs]
        assert delta[row] == leads[2] + leads[3] - leads[0] - leads[1], where
        changed = outputs[2] != outputs[0] or outputs[3] != outputs[1]
        assert last_change[row] == int(changed), where
        written = [new for new, old in zip(expected, (a, b)) if new != old]
        assert log[row, : log_len[row]].tolist() == written, where
        # The precheck hands a boundary to Python exactly when one leader
        # holds and both identifiers agree at or above the threshold; a
        # certificate that fires implies both.
        agreed = next_a[0] == next_b[0] >= threshold
        handed = (leads[2] + leads[3] == 1) and agreed
        assert status[row] == (execute_module._BOUNDARY if handed else execute_module._BUDGET), where
        if protocol.is_output_stable_configuration([next_a, next_b], None):
            assert handed, where


def _all_codes(bits):
    return [
        (identifier << 3) | sub
        for identifier in range(1, 1 << (bits + 1))
        for sub in range(len(ALL_TOKEN_STATES))
    ]


@requires_kernel
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_rule_matches_transition_on_every_pair(bits):
    """The C rule ≡ ``transition`` + ``output`` on all ordered pairs."""
    codes = _all_codes(bits)
    _check_parity(bits, [(a, b) for a in codes for b in codes])


@st.composite
def _wide_pairs(draw):
    bits = draw(st.integers(1, 59))
    threshold = 1 << bits
    identifier = st.one_of(
        st.integers(1, (1 << (bits + 1)) - 1),
        st.integers(max(1, threshold - 3), min(threshold + 3, (1 << (bits + 1)) - 1)),
        st.integers(max(1, (threshold >> 1) - 2), max(1, threshold >> 1)),
        st.sampled_from([1, threshold - 1, threshold, (1 << (bits + 1)) - 1]),
    )
    sub = st.integers(0, len(ALL_TOKEN_STATES) - 1)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        id_a = draw(identifier)
        id_b = id_a if draw(st.booleans()) else draw(identifier)
        pairs.append(((id_a << 3) | draw(sub), (id_b << 3) | draw(sub)))
    return bits, pairs


@requires_kernel
@settings(max_examples=300, deadline=None)
@given(_wide_pairs())
def test_rule_matches_transition_on_wide_identifiers(case):
    """Parity up to ``k = 59``, the widest ``id << 3 | sub`` fitting int64."""
    bits, pairs = case
    _check_parity(bits, pairs)


def test_rule_declined_where_codes_overflow():
    assert IdentifierLeaderElection(8, identifier_bits=59).kernel_rule() is not None
    assert IdentifierLeaderElection(8, identifier_bits=60).kernel_rule() is None
    # Built once per width, not per plan.
    first = IdentifierLeaderElection(8, identifier_bits=5).kernel_rule()
    assert IdentifierLeaderElection(30, identifier_bits=5).kernel_rule() is first


def test_rule_codes_round_trip():
    protocol = IdentifierLeaderElection(6, identifier_bits=3)
    rule = IdentifierKernelRule(3)
    states = protocol.enumerate_states()
    codes = rule.encode(states)
    assert rule.decode_codes(codes) == list(states)
    assert rule.leader_count(codes) == protocol.count_leaders(states)


# ----------------------------------------------------------------------
# Plan differential: rule plans ≡ the reference interpreter
# ----------------------------------------------------------------------
_GRAPHS = {
    "clique": lambda seed: clique(12),
    "cycle": lambda seed: cycle(10),
    "star": lambda seed: star(9),
    "path": lambda seed: path(8),
    "torus": lambda seed: torus(3, 4),
    "gnp": lambda seed: erdos_renyi(14, p=0.4, rng=seed),
}

_WIDTHS = {
    "k1": lambda graph: IdentifierLeaderElection(graph.n_nodes, identifier_bits=1),
    "k2": lambda graph: IdentifierLeaderElection(graph.n_nodes, identifier_bits=2),
    "k3": lambda graph: IdentifierLeaderElection(graph.n_nodes, identifier_bits=3),
    "default": lambda graph: IdentifierLeaderElection(graph.n_nodes),
    "regular": lambda graph: IdentifierLeaderElection(graph.n_nodes, regular=True),
}

#: Step budgets: none, one step, a cut inside the third cadence block
#: (usually before stabilization), and enough to stabilize.
_BUDGETS = {
    "zero": lambda interval: 0,
    "one": lambda interval: 1,
    "mid-block": lambda interval: 2 * interval + max(interval // 2, 1),
    "full": lambda interval: 200_000,
}


def _differential_cases():
    cases = []
    index = 0
    for graph_kind in sorted(_GRAPHS):
        for width_kind in sorted(_WIDTHS):
            budget = sorted(_BUDGETS)[index % len(_BUDGETS)]
            replicas = 1 if index % 3 == 0 else 4
            cases.append((graph_kind, width_kind, budget, replicas))
            index += 1
    # Every budget on every graph at the default width, as a 3-wide stack.
    for graph_kind in sorted(_GRAPHS):
        for budget in sorted(_BUDGETS):
            cases.append((graph_kind, "default", budget, 3))
    return cases


def _seeds(case, replicas, run):
    seeds = [derive_seed(MASTER_SEED, "plan", *map(str, case), run, r) for r in range(replicas)]
    if replicas > 1:
        seeds[-1] = 2**64 - 1  # the widest kernel-seedable seed
    return seeds


def _plans(graph_kind, width_kind, budget, replicas, engine, run=0):
    """The case's plan; each ``run`` index seeds the case afresh."""
    case = (graph_kind, width_kind, budget, replicas)
    graph = _GRAPHS[graph_kind](derive_seed(MASTER_SEED, "graph", graph_kind))
    protocol = _WIDTHS[width_kind](graph)
    max_steps = _BUDGETS[budget](default_check_interval(graph))
    return compile_plan(
        [protocol] * replicas, graph, _seeds(case, replicas, run),
        max_steps=max_steps, engine=engine,
    )


def _assert_rule_plan_matches_reference(case, monkeypatch, run=0):
    plan = _plans(*case, engine="auto", run=run)
    assert plan.mode == "shared" and isinstance(plan.compiled, IdentifierKernelRule)
    reference = [
        _result_tuple(r) for r in execute_plan(_plans(*case, engine="reference", run=run))
    ]
    calls = _spy_on_reference(monkeypatch)
    assert [_result_tuple(r) for r in execute_plan(plan)] == reference, case
    assert calls == [], "a rule plan reached the reference interpreter"


@requires_kernel
@pytest.mark.parametrize("case", _differential_cases(), ids=lambda c: "-".join(map(str, c)))
def test_rule_plan_matches_reference(case, monkeypatch):
    _assert_rule_plan_matches_reference(case, monkeypatch)


@requires_kernel
@pytest.mark.parametrize("capacity", [2, 3, 17])
@pytest.mark.parametrize("graph_kind", ["clique", "torus", "gnp"])
def test_full_log_stops_mid_block(capacity, graph_kind, monkeypatch):
    """A log small enough to fill inside a cadence block (``_LOG``) resumes
    exactly; the folded distinct-state counts are unchanged."""
    monkeypatch.setattr(execute_module, "_LOG_CAPACITY", capacity)
    folds = []
    real_fold = execute_module._sorted_distinct

    def counting_fold(codes):
        folds.append(codes.size)
        return real_fold(codes)

    monkeypatch.setattr(execute_module, "_sorted_distinct", counting_fold)
    for run in range(2):
        _assert_rule_plan_matches_reference(
            (graph_kind, "default", "full", 5), monkeypatch, run=run
        )
    # One fold per replica at its finish, the rest at full logs.
    assert len(folds) > 2 * 5 + 40, "the log never filled"


@requires_kernel
def test_distinct_codes_fold_without_np_unique(monkeypatch):
    """Log folds sort and compare neighbours; ``np.unique`` would hash
    (see ``test_graph.py::test_graph_build_never_calls_np_unique``)."""
    monkeypatch.setattr(execute_module, "_LOG_CAPACITY", 5)
    reference_plan = _plans("torus", "k2", "full", 3, engine="reference")
    reference = [_result_tuple(r) for r in execute_plan(reference_plan)]

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called in the v6 stack")

    monkeypatch.setattr(np, "unique", refuse)
    plan = _plans("torus", "k2", "full", 3, engine="auto")
    assert [_result_tuple(r) for r in execute_plan(plan)] == reference


# ----------------------------------------------------------------------
# Routing: which identifier plans run on the rule
# ----------------------------------------------------------------------
def _spy_on_reference(monkeypatch):
    """Record every replica that runs on the reference interpreter."""
    calls = []
    real = execute_module._run_reference

    def spy(plan, protocol, seed):
        calls.append(seed)
        return real(plan, protocol, seed)

    monkeypatch.setattr(execute_module, "_run_reference", spy)
    return calls


#: ``engine="auto"`` identifier plans the kernel rule cannot serve: each
#: entry builds fresh ``(protocol, seed, compile_plan kwargs)``.
_REFERENCE_CASES = {
    "generator": lambda g: (IdentifierLeaderElection(g.n_nodes), np.random.default_rng(5), {}),
    "wide-seed": lambda g: (IdentifierLeaderElection(g.n_nodes), 2**64, {}),
    "bits-60": lambda g: (IdentifierLeaderElection(g.n_nodes, identifier_bits=60), 5, {}),
    "trace": lambda g: (IdentifierLeaderElection(g.n_nodes), 5, {"record_leader_trace": True}),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_unservable_plans_stay_on_reference(case, monkeypatch):
    graph = clique(10)
    protocol, seed, kwargs = _REFERENCE_CASES[case](graph)
    plan = compile_plan([protocol], graph, [seed], max_steps=50_000, engine="auto", **kwargs)
    assert plan.mode == "single" and plan.compiled is None
    calls = _spy_on_reference(monkeypatch)
    via_auto = _result_tuple(execute_plan(plan)[0])
    assert len(calls) == 1
    protocol, seed, kwargs = _REFERENCE_CASES[case](graph)
    reference = compile_plan(
        [protocol], graph, [seed], max_steps=50_000, engine="reference", **kwargs
    )
    assert via_auto == _result_tuple(execute_plan(reference)[0])


@requires_kernel
def test_disabled_kernel_falls_back_to_reference(monkeypatch):
    """Without the kernel the plan is the reference interpreter's, and equal."""
    graph = cycle(12)
    seeds = [derive_seed(MASTER_SEED, "disabled", r) for r in range(3)]

    def plan():
        protocol = IdentifierLeaderElection(graph.n_nodes)
        return compile_plan([protocol] * 3, graph, seeds, max_steps=50_000, engine="auto")

    on_kernel = [_result_tuple(r) for r in execute_plan(plan())]
    calls = _spy_on_reference(monkeypatch)
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    try:
        fallback = plan()
        assert fallback.mode == "single"
        assert [_result_tuple(r) for r in execute_plan(fallback)] == on_kernel
    finally:
        monkeypatch.delenv("REPRO_DISABLE_NATIVE")
        reset_kernel_cache()
    assert calls == seeds
    assert get_run_epoch_kernel() is not None  # restored for later tests


@requires_kernel
def test_heterogeneous_widths_stay_per_replica():
    graph = clique(10)
    protocols = [IdentifierLeaderElection(10, identifier_bits=bits) for bits in (3, 4)]
    plan = compile_plan(protocols, graph, [1, 2], max_steps=50_000, engine="auto")
    assert plan.mode != "shared"
