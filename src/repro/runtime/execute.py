"""Plan executors: the v6 epoch stack, the per-replica engine, the reference.

Three executors run an :class:`~repro.runtime.plan.ExecutionPlan`; all
produce results bit-identical to standalone reference runs with the
same seeds.  :func:`execute_plan` picks the first that can serve the
plan, from the plan's inputs alone:

* **v6 epoch stack** (:func:`_execute_stack_v6`) — every ``"shared"``
  plan of any width, including 1, on a static graph or a topology
  schedule, whose seeds the kernel can reproduce (plain integers in
  ``[0, 2**64)``), when the v6 kernel is built
  (:func:`~repro.runtime.plan.v6_servable`).
  The codes of the whole plan live in one ``(R, n)`` matrix, ``uint16``
  for transition tables and ``int64`` for a kernel rule (a plan without
  ``inputs`` starts every node in one state, whose code the rule keeps
  from its first plan on), and one ``repro_run_epoch`` call advances
  every active replica, with its seeded stream drawn in-kernel, to its
  next stop event.  The kernel applies either the plan's transition
  tables or, for a protocol with a
  :meth:`~repro.core.protocol.PopulationProtocol.kernel_rule` (the
  identifier protocol under ``engine="auto"``), that arithmetic rule.
  On a schedule every refill is capped at the active epoch's end and a
  row stops there before its next draw; once every active row waits at
  that boundary the next epoch's tables are swapped in.  Certificates
  are evaluated against the schedule's union graph.
  For protocols that declare ``certificate_requires_unique_leader`` the
  kernel-maintained leader count gates the Python certificate, the
  initial one included — a configuration with ``!= 1`` leaders cannot
  satisfy those protocols' certificates, so the decode + certificate
  call is skipped without affecting when certification fires; the
  identifier rule also skips boundaries where the nodes' identifiers
  differ or lie below ``2^k``, which its certificate equally requires.
  Replicas whose certificate fires are compacted out of the stack; the
  loop ends, without a compaction, when the last rows finish.
* **per-replica compiled engine** (:class:`~repro.engine.stepper.CompiledRun`,
  one scalar loop per replica, one replica at a time) — everything the
  stack cannot take: stream overrides, leader traces, Generator or
  wider-than-64-bit seeds, and hosts without the v6 kernel.  Each
  replica's table set is resolved before its first draw; the engine
  applies the stack's one-leader precheck.
* **reference** — the pure-Python interpreter (the semantic ground
  truth), for ``engine="reference"``, for protocols that ``auto``
  declines to compile (among them a kernel-rule protocol whose plan the
  v6 stack cannot take: :func:`~repro.runtime.plan.compile_plan` picks
  a kernel rule only for plans the stack serves, so a rule plan never
  reaches the per-replica engine) and for protocols without an
  enumeration that fits the table bound.  A successor or initial state
  outside a table set's enumeration raises on every executor: nothing
  falls back from tables it has started to use.

A plan whose replicas carry different ``compile_key``s (the fast
protocol's per-trial ``B(G)`` calibration) runs each key group as a plan
of its own, so every group can reach the stack; results come back in
replica order.  A v6 row does not depend on the stack's width, so this
is byte-identical to per-replica execution.

Nothing here routes a plan to the shard-worker pool: its one entry is
:func:`repro.sharding.execute_sharded`, which hands every plan or
replica it cannot serve back to :func:`execute_plan`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..engine import native
from ..engine.native import (
    NO_EPOCH_END,
    ROW_CURSOR,
    ROW_LAST_CHANGE,
    ROW_LEADERS,
    ROW_LOG_LEN,
    ROW_STATUS,
    ROW_STEPS,
    RULE_TABLE,
    STACK_ROW_WORDS,
    TABLE_CODE_DTYPE,
    data_address,
)
from ..graphs.graph import _sorted_distinct
from .pairs import directed_tables
from .plan import ExecutionPlan, v6_servable
from .source import REFILL_SIZE, InteractionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult
    from ..engine.compiler import CompiledProtocol

#: ``repro_run_epoch`` row statuses (mirrors the kernel's REPRO_EPOCH_*).
_BUDGET, _BOUNDARY, _MISS, _LOG, _SWITCH = 0, 1, 2, 3, 4

#: Per-row capacity of the kernel's written-code log (kernel-rule plans;
#: at least 2, one step's writes).  A full log stops the row (``_LOG``)
#: and Python folds it into the row's distinct codes.
_LOG_CAPACITY = 4096


def execute_plan(plan: ExecutionPlan) -> List["SimulationResult"]:
    """Run every replica of ``plan`` and return results in replica order.

    A plan of several ``compile_key`` groups runs group by group.
    """
    groups = _key_groups(plan)
    if len(groups) == 1:
        return _execute_group(plan)
    results: List[Any] = [None] * plan.n_replicas
    for indices in groups:
        for index, result in zip(indices, _execute_group(_group_plan(plan, indices))):
            results[index] = result
    return results


def _execute_group(plan: ExecutionPlan) -> List["SimulationResult"]:
    """One key group: the v6 stack, else the per-replica executors."""
    if _stack_v6_eligible(plan):
        return _execute_stack_v6(plan)
    return [_execute_single(plan, index) for index in range(plan.n_replicas)]


def _stack_v6_eligible(plan: ExecutionPlan) -> bool:
    """Whether the v6 epoch stack can serve this plan.

    ``"shared"`` mode already guarantees homogeneous replicas, no stream
    override and no trace; everything else is :func:`v6_servable`, which
    :func:`~repro.runtime.plan.compile_plan` already checked for a
    kernel-rule plan.  A plan it declines goes to the per-replica engine.
    """
    if plan.mode != "shared":
        return False
    return plan.compiled.rule_id != RULE_TABLE or v6_servable(plan.seeds)


def _key_groups(plan: ExecutionPlan) -> List[List[int]]:
    """Replica indices of a ``"single"`` plan grouped by ``compile_key``.

    Groups appear in order of their first replica.  A ``None`` key
    shares no tables, so its replica is a group of its own.  Any other
    plan is one group.
    """
    if plan.mode != "single":
        return [list(range(plan.n_replicas))]
    groups: Dict[Hashable, List[int]] = {}
    for index, protocol in enumerate(plan.protocols):
        key = protocol.compile_key()
        groups.setdefault(object() if key is None else key, []).append(index)
    return list(groups.values())


def _group_plan(plan: ExecutionPlan, indices: List[int]) -> ExecutionPlan:
    """The plan of replicas ``indices`` alone, resolved afresh."""
    from .plan import compile_plan

    return compile_plan(
        [plan.protocols[index] for index in indices],
        plan.graph,
        [plan.seeds[index] for index in indices],
        max_steps=plan.max_steps,
        check_interval=plan.check_interval,
        schedule=plan.schedule,
        inputs=plan.inputs,
        record_leader_trace=plan.record_leader_trace,
        trace_resolution=plan.trace_resolution,
    )


# ----------------------------------------------------------------------
# Single-replica execution (reference + per-replica compiled engine)
# ----------------------------------------------------------------------
def _execute_single(plan: ExecutionPlan, index: int) -> "SimulationResult":
    protocol = plan.protocols[index]
    seed = plan.seeds[index]
    if plan.mode == "reference":
        return _run_reference(plan, protocol, seed)
    if plan.mode == "shared":
        return _run_compiled_single(plan, protocol, seed, plan.compiled)

    # mode == "single": the replica's tables are resolved before its
    # first draw; a protocol without an enumeration that fits the bound
    # runs on the reference interpreter.
    from ..engine.compiler import compilation_worthwhile, get_compiled

    scheduler_ok = plan.scheduler is None or hasattr(plan.scheduler, "next_arrays")
    if scheduler_ok and compilation_worthwhile(protocol):
        return _run_compiled_single(plan, protocol, seed, get_compiled(protocol))
    return _run_reference(plan, protocol, seed)


def _make_scheduler(plan: ExecutionPlan, seed: Any) -> InteractionSource:
    """The default stream: over the plan's schedule when it carries one.

    ``RandomScheduler`` and ``DynamicScheduler`` are shells over this
    same source, so the stream is theirs bit for bit.
    """
    return InteractionSource(plan.graph if plan.schedule is None else plan.schedule, rng=seed)


def _initial_states_for(plan: ExecutionPlan, protocol) -> List[Hashable]:
    """Per-replica initial configuration (shared builder on plan level)."""
    if protocol is plan.protocols[0]:
        return plan.initial_states()
    n = plan.graph.n_nodes
    if plan.inputs is None:
        return [protocol.initial_state(None)] * n
    if len(plan.inputs) != n:
        raise ValueError("inputs must provide one symbol per node")
    return [protocol.initial_state(symbol) for symbol in plan.inputs]


def _run_reference(plan: ExecutionPlan, protocol, seed: Any) -> "SimulationResult":
    """The pure-Python interpreter (the package's semantic reference)."""
    from ..core.protocol import LEADER
    from ..core.simulator import SimulationResult

    graph = plan.graph
    schedule = plan.schedule
    max_steps = plan.max_steps
    certificate_graph = schedule.union_graph() if schedule is not None else graph
    states = list(_initial_states_for(plan, protocol))
    check_interval = plan.check_interval
    scheduler = plan.scheduler

    transition = protocol.transition
    output = protocol.output
    use_cache = protocol.cacheable_transitions
    transition_cache: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, Hashable]] = {}

    observed_states = set(states)
    outputs = [output(s) for s in states]
    last_output_change = 0
    leader_count = sum(1 for o in outputs if o == LEADER)
    trace: List[Tuple[int, int]] = []
    record_leader_trace = plan.record_leader_trace
    trace_every = (
        max(1, max_steps // max(plan.trace_resolution, 1)) if record_leader_trace else 0
    )
    next_trace_step = 0

    start_time = time.perf_counter()
    step = 0
    stabilized = False
    certified_step = 0

    if record_leader_trace:
        trace.append((0, leader_count))
        next_trace_step = trace_every

    # Check the initial configuration too (stars stabilize in one step,
    # and n == 1 graphs are stable immediately).
    if protocol.is_output_stable_configuration(states, certificate_graph):
        stabilized = True
        certified_step = 0

    if not stabilized and step < max_steps and scheduler is None:
        # Created lazily so that trivially-stable single-node runs do not
        # require a schedulable (edge-carrying) graph.
        scheduler = _make_scheduler(plan, seed)

    while not stabilized and step < max_steps:
        batch = min(check_interval, max_steps - step)
        interactions = scheduler.next_batch(batch)
        for initiator, responder in interactions:
            step += 1
            a = states[initiator]
            b = states[responder]
            if use_cache:
                key = (a, b)
                cached = transition_cache.get(key)
                if cached is None:
                    cached = transition(a, b)
                    transition_cache[key] = cached
                new_a, new_b = cached
            else:
                new_a, new_b = transition(a, b)
            if new_a is not a:
                states[initiator] = new_a
                observed_states.add(new_a)
                out_a = output(new_a)
                if out_a != outputs[initiator]:
                    if out_a == LEADER:
                        leader_count += 1
                    elif outputs[initiator] == LEADER:
                        leader_count -= 1
                    outputs[initiator] = out_a
                    last_output_change = step
            if new_b is not b:
                states[responder] = new_b
                observed_states.add(new_b)
                out_b = output(new_b)
                if out_b != outputs[responder]:
                    if out_b == LEADER:
                        leader_count += 1
                    elif outputs[responder] == LEADER:
                        leader_count -= 1
                    outputs[responder] = out_b
                    last_output_change = step
            if record_leader_trace and step >= next_trace_step:
                trace.append((step, leader_count))
                next_trace_step += trace_every
        if protocol.is_output_stable_configuration(states, certificate_graph):
            stabilized = True
            certified_step = step

    wall = time.perf_counter() - start_time
    final = Configuration(states, step=step)
    if record_leader_trace and (not trace or trace[-1][0] != step):
        trace.append((step, leader_count))
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=last_output_change,
        steps_executed=step,
        leaders=leader_count,
        final_configuration=final,
        distinct_states_observed=len(observed_states),
        leader_trace=trace,
        wall_time_seconds=wall,
    )


def _run_compiled_single(
    plan: ExecutionPlan,
    protocol,
    seed: Any,
    compiled: "CompiledProtocol",
) -> "SimulationResult":
    """Compiled-engine twin of :func:`_run_reference` (identical semantics).

    The loop structure mirrors the reference interpreter exactly: same
    initial certificate check, same lazily created scheduler, same
    ``min(check_interval, remaining)`` batch sizes (so the scheduler's
    RNG stream is consumed identically), and the same certificate
    cadence.  Only the inner per-interaction application is replaced by
    :class:`repro.engine.stepper.CompiledRun`, and, as on the v6 stack,
    a ``certificate_requires_unique_leader`` protocol's certificate is
    evaluated only where exactly one leader is left (sound by claim 2
    of the certificate audit, docs/ARCHITECTURE.md "Certificates, proven
    by exhaustion").
    """
    from ..core.simulator import SimulationResult
    from ..engine.stepper import CompiledRun

    graph = plan.graph
    schedule = plan.schedule
    max_steps = plan.max_steps
    states = _initial_states_for(plan, protocol)
    check_interval = plan.check_interval
    scheduler = plan.scheduler
    record_leader_trace = plan.record_leader_trace

    start_time = time.perf_counter()
    trace_every = (
        max(1, max_steps // max(plan.trace_resolution, 1)) if record_leader_trace else 0
    )
    run = CompiledRun(
        compiled,
        compiled.encode(states),
        record_trace=record_leader_trace,
        trace_every=trace_every,
    )

    stabilized = False
    certified_step = 0
    certificate_graph = schedule.union_graph() if schedule is not None else graph
    # The v6 stack's one-leader precheck, the initial check included:
    # with != 1 leaders the certificate cannot pass, so neither decode
    # nor call it.
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    if (not precheck or run.leader_count == 1) and protocol.is_output_stable_configuration(
        states, certificate_graph
    ):
        stabilized = True

    if not stabilized and run.step < max_steps and scheduler is None:
        scheduler = _make_scheduler(plan, seed)

    while not stabilized and run.step < max_steps:
        batch = min(check_interval, max_steps - run.step)
        initiators, responders = scheduler.next_arrays(batch)
        run.apply_block(initiators, responders)
        if (not precheck or run.leader_count == 1) and protocol.is_output_stable_configuration(
            run.current_states(), certificate_graph
        ):
            stabilized = True
            certified_step = run.step

    wall = time.perf_counter() - start_time
    final = Configuration(run.current_states(), step=run.step)
    trace = run.trace
    if record_leader_trace and (not trace or trace[-1][0] != run.step):
        trace.append((run.step, run.leader_count))
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else run.step,
        last_output_change_step=run.last_change,
        steps_executed=run.step,
        leaders=run.leader_count,
        final_configuration=final,
        distinct_states_observed=run.distinct_observed(),
        leader_trace=trace,
        wall_time_seconds=wall,
    )


# ----------------------------------------------------------------------
# The v6 epoch stack
# ----------------------------------------------------------------------
def _stack_result(
    final: Configuration,
    stabilized: bool,
    last: int,
    distinct: int,
    leaders: int,
) -> "SimulationResult":
    """One finished stack row as a :class:`SimulationResult`."""
    from ..core.simulator import SimulationResult

    return SimulationResult(
        stabilized=stabilized,
        certified_step=final.step,
        last_output_change_step=last,
        steps_executed=final.step,
        leaders=leaders,
        final_configuration=final,
        distinct_states_observed=distinct,
        leader_trace=[],
        wall_time_seconds=0.0,
    )


def _epoch_tables(plan: ExecutionPlan, position: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``(du, dv, m, end)`` of the topology epoch that draw ``position`` falls in.

    A static graph is one epoch without end (``NO_EPOCH_END``).  An
    edgeless epoch graph raises ``ValueError`` here, before the kernel
    could draw from an empty edge range.
    """
    schedule = plan.schedule
    if schedule is None:
        graph, end = plan.graph, None
    else:
        index, _, end = schedule.epoch_at(position)
        graph = schedule.epoch_graph(index)
    du, dv = directed_tables(graph)
    return du, dv, graph.n_edges, NO_EPOCH_END if end is None else end


def _seen_codes(rule: Any, codes: np.ndarray) -> np.ndarray:
    """The codes of a start as a row's distinct-code record.

    Transition tables keep a per-code bitmap of their stride; a kernel
    rule the sorted distinct codes.
    """
    if rule.rule_id == RULE_TABLE:
        return (np.bincount(codes, minlength=rule.stride) > 0).astype(np.uint8)
    return _sorted_distinct(codes)


def _uniform_start(rule: Any, state: Hashable) -> Tuple[np.ndarray, int, np.ndarray]:
    """``(code, leaders per node, seen codes)`` of every node starting in ``state``.

    These depend on the rule and the state alone, so they are derived
    once and kept on the rule (``rule.starts``), keyed by the state, as
    read-only arrays of at most ``stride`` entries; later plans of the
    rule encode nothing.
    """
    start = rule.starts.get(state)
    if start is None:
        code = rule.encode([state])
        seen = _seen_codes(rule, code)
        code.flags.writeable = False
        seen.flags.writeable = False
        start = rule.starts[state] = (code, rule.leader_count(code), seen)
    return start


def _execute_stack_v6(plan: ExecutionPlan) -> List["SimulationResult"]:
    """The v6 stack: whole epochs per kernel call, streams in-kernel.

    Control flow mirrors :func:`_run_compiled_single` — same initial
    certificate check (behind the kernel's one-leader precheck, as at
    every boundary), same cadence — but the per-block Python work
    (drawing pair indices, applying one block, calling the certificate)
    collapses into one ``repro_run_epoch`` call that advances *every*
    active replica to its next stop event: a certificate boundary that
    needs Python (``_BOUNDARY``), a missing table entry (``_MISS``), a
    full code log (``_LOG``), the end of the topology epoch
    (``_SWITCH``), or the step budget (``_BUDGET``).  Codes are decoded
    only for a certificate: a row that ends on its budget gets a final
    :class:`~repro.core.configuration.Configuration` that decodes its
    codes on first use (:meth:`~repro.core.configuration.Configuration.from_codes`).
    Replicas advance independently, so their per-row steps become
    heterogeneous; each row's sequence of blocks, certificate checks and
    draws is still exactly the single-run one, which keeps every result
    bit-identical to standalone runs (pinned by
    ``tests/test_runtime_plan.py``, ``tests/test_kernel_rng.py`` and
    ``tests/test_identifier_kernel.py``).

    Each replica's stream state and counters live in one row of an
    ``(R, STACK_ROW_WORDS)`` int64 block, which the kernel seeds from the
    plan's seeds on the first call; after each call every row's words
    are read back with one ``tolist()``, and a compaction copies the
    codes, the row block, the pre-sample buffers and the seen bitmap or
    code log.  Table codes are below ``DEFAULT_MAX_STATES``, so the codes
    block, its compactions and every code row a result keeps (the
    initially-stable and zero-budget rows included) hold them as
    :data:`~repro.engine.native.TABLE_CODE_DTYPE`, two bytes a node; a
    kernel rule's codes are ``int64``.

    ``plan.compiled`` picks the kernel's transition rule.  Transition
    tables (:class:`~repro.engine.compiler.CompiledProtocol`) count
    distinct codes in a dense per-row bitmap and resolve misses here.  A
    protocol's arithmetic kernel rule has too many codes for a bitmap:
    each row logs every code it writes, and the log is folded into the
    row's sorted distinct codes when it fills (``_LOG``) and when the
    row finishes.

    On a topology schedule every row draws from the same epoch's tables.
    Epoch boundaries are step counts, so each row stops at the same one
    (``_SWITCH``); the next epoch's tables are passed once no active row
    is short of it.
    """
    # A schedule's union graph holds every edge an epoch can activate:
    # certificates are evaluated against it, as in the other executors.
    graph = plan.schedule.union_graph() if plan.schedule is not None else plan.graph
    protocol = plan.protocols[0]
    rule = plan.compiled
    assert rule is not None
    tables = rule.rule_id == RULE_TABLE
    code_dtype = TABLE_CODE_DTYPE if tables else np.int64
    kernel = native.get_run_epoch_kernel()
    assert kernel is not None
    n = graph.n_nodes
    replica_count = plan.n_replicas
    max_steps = plan.max_steps
    check_interval = plan.check_interval

    start_time = time.perf_counter()
    # Without ``inputs`` every node starts in one state, whose code the
    # rule keeps; no per-node state list is built unless the certificate
    # needs it.
    uniform = plan.inputs is None
    if uniform:
        initial_codes, initial_leaders, start_seen = _uniform_start(
            rule, protocol.initial_state(None)
        )
        initial_leaders *= n
    else:
        initial_codes = rule.encode(plan.initial_states())
        initial_leaders = rule.leader_count(initial_codes)
        start_seen = _seen_codes(rule, initial_codes)

    results: List[Optional["SimulationResult"]] = [None] * replica_count

    # The kernel's one-leader precheck, applied to the initial
    # certificate too: an all-candidate start pays no certificate call.
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    initially_stable = (not precheck or initial_leaders == 1) and bool(
        protocol.is_output_stable_configuration(plan.initial_states(), graph)
    )
    if initially_stable or max_steps == 0:
        initial_codes = np.broadcast_to(initial_codes, n).astype(code_dtype)
        wall = time.perf_counter() - start_time
        distinct = int(start_seen.sum()) if tables else start_seen.size
        for index in range(replica_count):
            final = Configuration.from_codes(initial_codes, rule.decode_codes)
            result = _stack_result(final, initially_stable, 0, distinct, initial_leaders)
            result.wall_time_seconds = wall / replica_count
            results[index] = result
        return results  # type: ignore[return-value]

    directed_u, directed_v, edge_count, epoch_end = _epoch_tables(plan, 0)
    # One row block per replica: the kernel seeds each row's generator on
    # its first call, from the plan's seeds, which passed v6_servable, so
    # as uint64 words they need no second per-seed check.
    seeds = np.array(plan.seeds, dtype=np.uint64)
    rows = np.zeros((replica_count, STACK_ROW_WORDS), dtype=np.int64)
    rows[:, ROW_LEADERS] = initial_leaders
    # The kernel writes a refill before it reads one.
    buffers = np.empty((replica_count, max(REFILL_SIZE, check_interval)), dtype=np.int64)
    codes = np.empty((replica_count, n), dtype=code_dtype)
    codes[...] = initial_codes  # one code per node, or the uniform one broadcast
    if tables:
        seen = start_seen[None, :].repeat(replica_count, axis=0)
        log = None
        stop = _MISS
    else:
        assert _LOG_CAPACITY >= 2
        seen = None
        log = np.zeros((replica_count, _LOG_CAPACITY), dtype=np.int64)
        known = [start_seen] * replica_count  # per replica id
        stop = _LOG
    replica_ids = list(range(replica_count))

    def fold_log(row: int, length: int) -> None:
        replica = replica_ids[row]
        known[replica] = _sorted_distinct(np.concatenate((known[replica], log[row, :length])))
        rows[row, ROW_LOG_LEN] = 0

    while True:
        width = len(replica_ids)
        if tables:
            rule_args = (
                rule.rule_id, data_address(rule.dpack), rule.stride, rule.kshift,
                data_address(seen), None, 0,
            )
        else:
            rule_args = (
                rule.rule_id, rule.table.ctypes.data, rule.threshold, 0,
                None, data_address(log), log.shape[1],
            )
        kernel(
            data_address(codes),
            data_address(rows),
            None if seeds is None else data_address(seeds),
            data_address(buffers),
            buffers.shape[1],
            data_address(directed_u),
            data_address(directed_v),
            edge_count,
            epoch_end,
            width,
            n,
            *rule_args,
            REFILL_SIZE,
            check_interval,
            max_steps,
            int(precheck),
        )
        seeds = None  # every row is seeded
        finished_rows: List[int] = []
        switching = 0
        for row, words in enumerate(rows.tolist()):
            status = words[ROW_STATUS]
            if status == stop:
                # The row stopped *before* consuming its draw and resumes
                # mid-block in the next kernel call: after its missing
                # table entry is filled, or after its full log is folded.
                if tables:
                    index = int(buffers[row, words[ROW_CURSOR]])
                    rule.scalar_entry(
                        int(codes[row, directed_u[index]]), int(codes[row, directed_v[index]])
                    )
                else:
                    fold_log(row, words[ROW_LOG_LEN])
            elif status == _SWITCH:
                switching += 1
            else:
                # The exhausted step budget, or a certificate boundary
                # (prefiltered in-kernel for precheck protocols, every
                # cadence block otherwise).  Only a boundary decodes, for
                # its certificate.
                step = words[ROW_STEPS]
                decoded = None
                stabilized = False
                if status == _BOUNDARY:
                    decoded = rule.decode_codes(codes[row])
                    stabilized = bool(protocol.is_output_stable_configuration(decoded, graph))
                if stabilized or step >= max_steps:
                    if decoded is not None:
                        final = Configuration(decoded, step=step)
                    else:
                        # A budget row's codes are never written again:
                        # compaction copies the surviving rows, and the
                        # loop ends when the last rows finish.  A wider
                        # stack's row is copied, so the result does not
                        # keep its siblings' codes alive.
                        row_codes = codes[row] if width == 1 else codes[row].copy()
                        final = Configuration.from_codes(row_codes, rule.decode_codes, step)
                    if tables:
                        distinct = int(np.count_nonzero(seen[row]))
                    else:
                        fold_log(row, words[ROW_LOG_LEN])
                        distinct = known[replica_ids[row]].size
                    results[replica_ids[row]] = _stack_result(
                        final, stabilized, words[ROW_LAST_CHANGE], distinct, words[ROW_LEADERS]
                    )
                    finished_rows.append(row)
        if finished_rows:
            if len(finished_rows) == width:
                break  # the last rows finished: nothing left to compact
            keep = np.ones(width, dtype=bool)
            keep[finished_rows] = False
            codes, rows, buffers = codes[keep], rows[keep], buffers[keep]
            if tables:
                seen = seen[keep]
            else:
                log = log[keep]
            replica_ids = [replica for replica, kept in zip(replica_ids, keep.tolist()) if kept]
        if switching == width - len(finished_rows):
            directed_u, directed_v, edge_count, epoch_end = _epoch_tables(plan, epoch_end)

    wall = time.perf_counter() - start_time
    for result in results:
        assert result is not None
        result.wall_time_seconds = wall / replica_count
    return results  # type: ignore[return-value]
