"""Mutation gate: every listed mutant must make its test selection fail.

Each row of :data:`MUTANTS` names a file, an exact text in it, the text
that replaces it, and the pytest selection that must catch the change.
For each mutant the script copies the repository's ``src/``, ``tests/``
and ``conftest.py`` into a fresh temporary directory, applies that one
replacement there, and runs the selection against the copy (the
working tree is never touched).  The gate fails when

* an old text is missing from its file, or occurs more than once (the
  table went stale — update it together with the code it mutates);
* a selection fails on the unmutated copy (it could not tell a mutant
  from the original);
* a mutant survives: its selection still passes.

Mutants of the C kernel rebuild it in the copy (the build cache is keyed
by a digest of the source); unmutated sources reuse the cached build.

Usage::

    PYTHONPATH=src python scripts/ci_mutants.py            # the whole table
    PYTHONPATH=src python scripts/ci_mutants.py --list
    PYTHONPATH=src python scripts/ci_mutants.py NAME [NAME ...]

Every change that adds a contract adds the mutants that break it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
NATIVE = "src/repro/engine/native.py"
EXECUTE = "src/repro/runtime/execute.py"
GRAPH = "src/repro/graphs/graph.py"
FAMILIES = "src/repro/graphs/families.py"
ESTIMATORS = "src/repro/analysis/estimators.py"
CONFIGURATION = "src/repro/core/configuration.py"
STABILITY = "src/repro/core/stability.py"

IDENTIFIER_TESTS = ("tests/test_identifier_kernel.py",)
STOP_AT_FINISH = ("tests/test_kernel_rng.py::test_epoch_rows_stop_drawing_at_finish",)
GRAPH_NO_UNIQUE = ("tests/test_graph.py::test_graph_build_never_calls_np_unique",)
CONNECTIVITY = ("tests/test_graph.py::test_is_connected_agrees_with_bfs_and_networkx",)
BUILD_PATHS_AGREE = ("tests/test_graph.py::test_build_paths_agree_on_faulty_edge_arrays",)
TORUS_REFERENCE = ("tests/test_families.py::test_torus_edges_match_sorted_set_reference",)
CONCATENATION = ("tests/test_runtime_pairs.py::test_tables_equal_the_concatenation_reference",)
STEP_ZERO = (
    "tests/test_runtime_plan.py::test_v6_step_zero_certificate_behind_the_one_leader_precheck",
)
DYNAMIC_ENGINES = (
    "tests/test_dynamics.py::TestSimulatorSchedules::test_dynamic_run_identical_across_engines",
)
DYNAMIC_V6 = ("tests/test_dynamics.py::test_dynamic_plans_on_v6_match_reference",)
STREAMS = "src/repro/analytics/streams.py"
INFLUENCE = "src/repro/propagation/influence.py"
ONE_CALL = ("tests/test_analytics_batch.py::test_one_call_stack_matches_rounds_and_fallback",)
FLOAT_SEEDS = ("tests/test_analytics_batch.py::test_batch_drivers_reject_float_seeds",)
REFILL_HALVES = ("tests/test_kernel_rng.py::test_source_fill_rejections_and_carried_half_words",)
ECCENTRICITIES = (
    "tests/test_graph.py::test_eccentricities_agree_on_named_families",
    "tests/test_graph.py::test_eccentricities_agree_on_connected_graphs",
)
RUN_PATH_IMPORTS = (
    "tests/test_imports.py::test_scenario_runs_import_nothing_after_the_orchestration_package",
)
TOKEN_ON_TRIANGLE = (
    "tests/test_stability.py::TestAlmostSureStabilization::"
    "test_token_protocol_always_stabilizes_on_triangle",
)
BROKEN_CERTIFICATE = ("tests/test_certificate_audit.py::test_audit_reports_a_broken_certificate",)
STORE = "src/repro/orchestration/store.py"
RUNNER = "src/repro/orchestration/runner.py"
CELLS = "tests/test_orchestrator.py::TestCellPreparation"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    selection: Tuple[str, ...]


MUTANTS: Tuple[Mutant, ...] = (
    # -- The identifier rule of repro_run_epoch ------------------------
    Mutant(
        "identifier-rule2-post-rule1-id",
        NATIVE,
        "    if (ida < pre_b && pre_b >= threshold) {\n        ida = pre_b;",
        "    if (ida < idb && idb >= threshold) {\n        ida = idb;",
        IDENTIFIER_TESTS,
    ),
    Mutant(
        "identifier-drops-output-change",
        NATIVE,
        "    return ((dl + 2) << 1) | chg;",
        "    return (dl + 2) << 1;",
        IDENTIFIER_TESTS,
    ),
    Mutant(
        "identifier-skips-log-write",
        NATIVE,
        "                if (nb != b)\n                    log[nlog++] = nb;\n",
        "",
        IDENTIFIER_TESTS,
    ),
    Mutant(
        "identifier-precheck-too-strong",
        NATIVE,
        "        if ((codes[i] >> 3) != id)",
        "        if (codes[i] != codes[0])",
        IDENTIFIER_TESTS,
    ),
    Mutant(
        "identifier-log-fold-np-unique",
        GRAPH,
        "    values = np.sort(values)\n    keep = np.empty(values.size, dtype=bool)\n"
        "    keep[:1] = True\n    np.not_equal(values[1:], values[:-1], out=keep[1:])\n"
        "    return values[keep]",
        "    return np.unique(values)",
        IDENTIFIER_TESTS,
    ),
    # -- The scheduler-dialect refill: half-words two per LCG step -----
    Mutant(
        "refill-accepts-every-half",
        NATIVE,
        "    threshold = (0u - m32) % m32;\n",
        "    threshold = 0;\n",
        REFILL_HALVES,
    ),
    Mutant(
        "orientation-tail-buffers-low-half",
        NATIVE,
        "        g.buf = (uint32_t)(word >> 32);\n        g.has = 1;\n",
        "        g.buf = (uint32_t)word;\n        g.has = 1;\n",
        REFILL_HALVES,
    ),
    Mutant(
        "orientation-leaves-buf-stale",
        NATIVE,
        "        buffer[i + 1] += (1 - (int64_t)(word >> 63)) * m;\n"
        "        g.buf = (uint32_t)(word >> 32);\n",
        "        buffer[i + 1] += (1 - (int64_t)(word >> 63)) * m;\n",
        REFILL_HALVES,
    ),
    # -- Kernel-seeded analytics streams (stop at finish) --------------
    Mutant(
        "epidemic-draws-past-finish",
        NATIVE,
        "        for (i = 0; i < block && fin < 0; i++) {\n"
        "            int64_t idx = (int64_t)repro_bounded64(&p, rng);\n"
        "            int64_t u = du[idx];",
        "        for (i = 0; i < block; i++) {\n"
        "            int64_t idx = (int64_t)repro_bounded64(&p, rng);\n"
        "            if (fin >= 0)\n                break;\n"
        "            int64_t u = du[idx];",
        STOP_AT_FINISH,
    ),
    Mutant(
        "influence-draws-past-finish",
        NATIVE,
        "        for (i = 0; i < block && fin < 0; i++) {\n"
        "            int64_t idx = (int64_t)repro_bounded64(&p, rng);\n"
        "            int64_t u, v, j;",
        "        for (i = 0; i < block; i++) {\n"
        "            int64_t idx = (int64_t)repro_bounded64(&p, rng);\n"
        "            if (fin >= 0)\n                break;\n"
        "            int64_t u, v, j;",
        STOP_AT_FINISH,
    ),
    Mutant(
        "kernel-rows-accept-wide-seeds",
        "src/repro/runtime/source.py",
        "    if kernels is None or not all(map(kernel_seedable, seeds)):",
        "    if kernels is None:",
        ("tests/test_analytics_batch.py::TestSeedPurity::test_wide_seeds_run_and_negative_seeds_raise",),
    ),
    Mutant(
        "single-epidemic-int-seed-on-numpy-leg",
        INFLUENCE,
        "    if rng is None or isinstance(rng, (int, np.integer)):",
        "    if False:",
        ("tests/test_analytics_batch.py::test_kernel_leg_builds_no_python_streams",),
    ),
    Mutant(
        "single-epidemic-generator-on-private-rows",
        INFLUENCE,
        "    if rng is None or isinstance(rng, (int, np.integer)):",
        "    if True:",
        (
            "tests/test_analytics_batch.py::"
            "test_wrappers_read_the_same_stream_for_a_seed_and_its_generator",
        ),
    ),
    # -- Hash-free builds: no np.unique on graph build or v6 set-up ----
    Mutant(
        "edge-arrays-duplicates-np-unique",
        GRAPH,
        "            keys.sort()\n            if bool((keys[1:] == keys[:-1]).any()):",
        "            if np.unique(keys).size != keys.size:",
        GRAPH_NO_UNIQUE,
    ),
    Mutant(
        "csr-keys-np-unique",
        GRAPH,
        "            keys.sort()\n            indptr = np.zeros(self._n + 1, dtype=np.int64)",
        "            keys = np.unique(keys)\n            indptr = np.zeros(self._n + 1, dtype=np.int64)",
        GRAPH_NO_UNIQUE,
    ),
    Mutant(
        "bfs-frontier-np-unique",
        GRAPH,
        "            frontier = _sorted_distinct(fresh)",
        "            frontier = np.unique(fresh)",
        GRAPH_NO_UNIQUE,
    ),
    Mutant(
        "v6-initial-codes-np-unique",
        EXECUTE,
        "        return (np.bincount(codes, minlength=rule.stride) > 0).astype(np.uint8)",
        "        present = np.zeros(rule.stride, dtype=np.uint8)\n"
        "        present[np.unique(codes)] = 1\n"
        "        return present",
        ("tests/test_runtime_plan.py::test_v6_setup_counts_initial_states_without_np_unique",),
    ),
    # -- Graph build: in-place torus, one edge pass and its NumPy twin --
    Mutant(
        "torus-row-right-after-left-wrap",
        FAMILIES,
        "        (c + 1, c < cols - 1),  # right\n"
        "        (c + cols - 1, c == 0),  # left-wrap\n",
        "        (c + cols - 1, c == 0),  # left-wrap\n"
        "        (c + 1, c < cols - 1),  # right\n",
        TORUS_REFERENCE,
    ),
    Mutant(
        "torus-bottom-row-block-one-slot-early",
        FAMILIES,
        "            np.add(bottom, (rows - 1) * cols, out=out[body_end:])",
        "            np.add(bottom, (rows - 1) * cols, out=out[body_end - 1 : -1])",
        TORUS_REFERENCE,
    ),
    Mutant(
        "edge-arrays-ordered-path-accepts-ties",
        GRAPH,
        "    increasing = bool((keys[1:] > keys[:-1]).all())",
        "    increasing = bool((keys[1:] >= keys[:-1]).all())",
        ("tests/test_graph.py::TestFromEdgeArraysNumPy::test_rejects_duplicate_edge",),
    ),
    Mutant(
        "edge-pass-order-test-accepts-ties",
        NATIVE,
        "        if (lo < prev_lo || (lo == prev_lo && hi <= prev_hi))",
        "        if (lo < prev_lo || (lo == prev_lo && hi < prev_hi))",
        ("tests/test_graph.py::TestFromEdgeArrays::test_rejects_duplicate_edge",),
    ),
    Mutant(
        "edge-pass-range-lets-n-through",
        NATIVE,
        "        if (lo < 0 || hi >= n)\n            break;",
        "        if (lo < 0 || hi > n)\n            break;",
        ("tests/test_graph.py::test_edge_pass_stops_before_indexing_an_out_of_range_end",),
    ),
    Mutant(
        "edge-pass-degrees-at-one-end",
        NATIVE,
        "            degrees[lo]++;\n            degrees[hi]++;\n",
        "            degrees[lo]++;\n",
        CONCATENATION,
    ),
    Mutant(
        "edge-pass-tail-copies-hi",
        NATIVE,
        "            out[2 * m + i] = (int32_t)lo;\n",
        "            out[2 * m + i] = (int32_t)hi;\n",
        CONCATENATION,
    ),
    Mutant(
        "numpy-twin-orients-min-then-max-in-place",
        GRAPH,
        "    np.minimum(low, high, out=tail)\n"
        "    np.maximum(low, high, out=high)\n"
        "    low[...] = tail\n",
        "    np.minimum(low, high, out=low)\n"
        "    np.maximum(low, high, out=high)\n"
        "    tail[...] = low\n",
        BUILD_PATHS_AGREE,
    ),
    # -- Node ids are int32: narrowing never changes one -----------------
    Mutant(
        "edge-arrays-narrowed-before-range-check",
        GRAPH,
        "        for array in (edges_u, edges_v):\n"
        "            if array.size and not 0 <= int(array.min()) <= int(array.max()) < n:\n",
        "        edges_u, edges_v = edges_u.astype(np.int32), edges_v.astype(np.int32)\n"
        "        for array in (edges_u, edges_v):\n"
        "            if array.size and not 0 <= int(array.min()) <= int(array.max()) < n:\n",
        ("tests/test_graph.py::test_wide_endpoints_are_refused_before_narrowing",),
    ),
    Mutant(
        "duplicate-keys-in-buffer-dtype",
        GRAPH,
        "            keys = endpoints[:m] * np.int64(n_nodes) + endpoints[m : 2 * m]\n",
        "            keys = endpoints[:m] * n_nodes + endpoints[m : 2 * m]\n",
        ("tests/test_graph.py::test_duplicate_keys_are_exact_where_int32_keys_would_wrap",),
    ),
    Mutant(
        "node-count-truncated",
        GRAPH,
        "        n = operator.index(n_nodes)",
        "        n = int(n_nodes)",
        ("tests/test_graph.py::test_non_integral_inputs_raise",),
    ),
    Mutant(
        "is-connected-any-component-count",
        GRAPH,
        "        return int(info[2]) == 1",
        "        return int(info[2]) >= 1",
        CONNECTIVITY,
    ),
    Mutant(
        "union-find-drops-count-decrement",
        NATIVE,
        "                parent[lo] = (int32_t)hi;\n            components--;\n",
        "                parent[lo] = (int32_t)hi;\n",
        CONNECTIVITY,
    ),
    Mutant(
        "step-zero-precheck-inverted",
        EXECUTE,
        "    initially_stable = (not precheck or initial_leaders == 1) and bool(",
        "    initially_stable = (not precheck or initial_leaders != 1) and bool(",
        STEP_ZERO,
    ),
    Mutant(
        "v6-uniform-start-builds-initial-states",
        EXECUTE,
        "            rule, protocol.initial_state(None)\n",
        "            rule, plan.initial_states()[0]\n",
        STEP_ZERO,
    ),
    # -- Topology schedules and key groups on the v6 stack -------------
    Mutant(
        "epoch-refill-uncapped",
        NATIVE,
        "    if (size > limit)\n        size = limit;\n",
        "",
        DYNAMIC_ENGINES,
    ),
    Mutant(
        "epoch-switch-one-draw-late",
        NATIVE,
        "                if (position >= job->epoch_end) {",
        "                if (position > job->epoch_end) {",
        DYNAMIC_V6,
    ),
    Mutant(
        "key-groups-in-group-order",
        EXECUTE,
        "    results: List[Any] = [None] * plan.n_replicas\n"
        "    for indices in groups:\n"
        "        for index, result in zip(indices, _execute_group(_group_plan(plan, indices))):\n"
        "            results[index] = result\n"
        "    return results\n",
        "    return [\n"
        "        result for indices in groups\n"
        "        for result in _execute_group(_group_plan(plan, indices))\n"
        "    ]\n",
        ("tests/test_runtime_plan.py::test_key_groups_return_results_in_replica_order",),
    ),
    # -- Executors follow from a plan's inputs; no backend dial ---------
    Mutant(
        "scalar-loop-skips-responder-seen",
        "src/repro/engine/stepper.py",
        "                seen_add(nb)\n",
        "",
        (
            "tests/test_engine_equivalence.py::"
            "test_executors_match_reference_across_protocols_and_graphs[per-replica]",
        ),
    ),
    Mutant(
        "v6-servable-ignores-seeds",
        "src/repro/runtime/plan.py",
        "    return all(map(kernel_seedable, seeds))",
        "    return True",
        ("tests/test_runtime_plan.py::test_per_replica_cases_never_enter_v6[generator]",),
    ),
    Mutant(
        "scenario-accepts-any-backend",
        "src/repro/orchestration/scenario.py",
        "        if self.backend != \"auto\":\n"
        "            raise ScenarioError(\n"
        "                f\"scenario {self.name!r}: backend must be 'auto', got {self.backend!r}; \"\n"
        "                \"the executor follows from each plan's inputs\"\n"
        "            )\n",
        "",
        ("tests/test_scenarios.py::TestScenario::test_backend_is_the_constant_auto",),
    ),
    # -- One-trial unit set-up: one-call stacks, uniform encode, memos --
    Mutant(
        "one-call-block-past-budget",
        STREAMS,
        "        if max_steps > 0:\n"
        "            directed_u, directed_v = directed_tables(graph)\n"
        "            kernel_step(rows, rng_rows, directed_u, directed_v, max_steps, out)",
        "        if max_steps > 0:\n"
        "            directed_u, directed_v = directed_tables(graph)\n"
        "            kernel_step(rows, rng_rows, directed_u, directed_v, max_steps + 1, out)",
        ONE_CALL,
    ),
    # -- One lockstep driver; every kernel row runs --------------------
    Mutant(
        "lockstep-compaction-keeps-finished-rows",
        STREAMS,
        "            rows = [_compact(row, keep) for row in rows]\n",
        "",
        ONE_CALL,
    ),
    Mutant(
        "epidemic-kernel-skips-last-row",
        NATIVE,
        "    for (r = 0; r < nrep; r++) {\n        uint8_t *inf = informed + r * n;",
        "    for (r = 0; r < nrep - 1; r++) {\n        uint8_t *inf = informed + r * n;",
        ONE_CALL,
    ),
    # -- Inputs checked: stop masks, ids, budgets; nothing truncated ----
    Mutant(
        "stop-mask-shape-unchecked",
        "src/repro/analytics/epidemics.py",
        "    if masks.shape != shape:\n"
        "        raise ValueError(f\"stop masks must have shape {shape}, got {masks.shape}\")\n",
        "",
        ("tests/test_analytics_batch.py::test_stop_masks_of_another_shape_raise",),
    ),
    Mutant(
        "stream-seeds-truncated",
        STREAMS,
        "np.random.default_rng(operator.index(seed))",
        "np.random.default_rng(int(seed))",
        FLOAT_SEEDS,
    ),
    Mutant(
        "influence-chunk-seeds-truncated",
        "src/repro/analytics/epidemics.py",
        "        chunk_seeds = [operator.index(seeds[t]) for t in chunk]",
        "        chunk_seeds = [int(seeds[t]) for t in chunk]",
        FLOAT_SEEDS,
    ),
    Mutant(
        "walk-ids-unchecked",
        "src/repro/analytics/walks.py",
        "        positions[t] = node_id(first, graph.n_nodes), node_id(second, graph.n_nodes)\n",
        "        positions[t] = first, second\n",
        ("tests/test_analytics_batch.py::test_walk_drivers_reject_bad_ids_pairs_and_budgets",),
    ),
    Mutant(
        "plan-budget-truncated",
        "src/repro/runtime/plan.py",
        "    max_steps = operator.index(max_steps)\n",
        "    max_steps = int(max_steps)\n",
        ("tests/test_runtime_plan.py::test_step_budget_and_cadence_are_never_truncated",),
    ),
    Mutant(
        "uniform-encode-with-inputs",
        EXECUTE,
        "    uniform = plan.inputs is None",
        "    uniform = True",
        ("tests/test_runtime_plan.py::test_v6_encodes_a_uniform_initial_configuration_once",),
    ),
    Mutant(
        "forced-sources-keyed-by-n",
        "src/repro/analytics/estimators.py",
        "    return graph._forced_sources_cache\n",
        "    return _forced_sources.__dict__.setdefault(graph.n_nodes, graph._forced_sources_cache)\n",
        ("tests/test_analytics_batch.py::test_select_sources_memo_keeps_graphs_apart",),
    ),
    Mutant(
        "stack-exit-with-active-rows",
        EXECUTE,
        "            if len(finished_rows) == width:",
        "            if finished_rows:",
        (
            "tests/test_runtime_plan.py::"
            "test_stack_rows_finishing_in_different_calls_keep_replica_order",
        ),
    ),
    # -- Cold million-node run: lazy finals, one endpoint buffer, q90 --
    Mutant(
        "budget-row-reads-row-zero",
        EXECUTE,
        "                    row_codes = codes[row] if width == 1 else codes[row].copy()",
        "                    row_codes = codes[0] if width == 1 else codes[0].copy()",
        ("tests/test_runtime_plan.py::test_budget_rows_decode_on_demand",),
    ),
    Mutant(
        "from-codes-drops-step",
        CONFIGURATION,
        "        config._decode = decode\n        config.step = int(step)",
        "        config._decode = decode\n        config.step = 0",
        ("tests/test_configuration.py::TestLazyConfiguration",),
    ),
    Mutant(
        "endpoint-tail-copies-v",
        GRAPH,
        "    low[...] = tail\n",
        "    low[...] = tail\n    tail[...] = high\n",
        TORUS_REFERENCE + BUILD_PATHS_AGREE,
    ),
    Mutant(
        "q90-halfway-takes-low-branch",
        ESTIMATORS,
        "    if g >= 0.5:",
        "    if g > 0.5:",
        ("tests/test_estimators.py::TestOrderStatistics::test_six_samples_put_q90_exactly_halfway",),
    ),
    # -- Cold start: the C eccentricity pass, lazy package surfaces ----
    Mutant(
        "eccentricity-distance-counts-from-one",
        NATIVE,
        "        dist[s] = 0;\n        queue[0] = (int32_t)s;\n",
        "        dist[s] = 1;\n        queue[0] = (int32_t)s;\n",
        ECCENTRICITIES,
    ),
    Mutant(
        "eccentricity-scratch-not-reset",
        NATIVE,
        "        for (k = 0; k < tail; k++)\n            dist[queue[k]] = -1;\n",
        "",
        ECCENTRICITIES,
    ),
    Mutant(
        "eccentricity-bfs-skips-last-neighbour",
        NATIVE,
        "            for (k = indptr[u]; k < indptr[u + 1]; k++) {",
        "            for (k = indptr[u]; k < indptr[u + 1] - 1; k++) {",
        ECCENTRICITIES,
    ),
    Mutant(
        "root-imports-lowerbounds-eagerly",
        "src/repro/__init__.py",
        "from ._lazy import lazy_exports\n",
        "from ._lazy import lazy_exports\nfrom . import lowerbounds  # noqa: F401\n",
        ("tests/test_imports.py::test_import_repro_loads_only_the_lazy_helper",),
    ),
    Mutant(
        "orchestration-runner-on-first-use",
        "src/repro/orchestration/__init__.py",
        "from .runner import (\n"
        "    ScenarioResult,\n"
        "    UnitPlan,\n"
        "    WorkUnit,\n"
        "    aggregate_unit_payloads,\n"
        "    build_unit_plans,\n"
        "    build_work_units,\n"
        "    execute_unit_plan,\n"
        "    run_scenario,\n"
        "    unit_plan_from_wire,\n"
        "    unit_plan_to_wire,\n"
        ")\n",
        "def __getattr__(name):\n"
        "    from . import runner\n\n"
        "    return getattr(runner, name)\n",
        RUN_PATH_IMPORTS,
    ),
    Mutant(
        "sharding-accepts-schedules",
        "src/repro/sharding/executor.py",
        "    if plan.schedule is not None or _shard_count(plan, shards) < 2:",
        "    if _shard_count(plan, shards) < 2:",
        ("tests/test_sharding.py::TestFallbackChain::test_dynamic_schedule_is_ineligible_and_identical",),
    ),
    # -- Certificates proven on one exploration and two closures -------
    Mutant(
        "closure-marks-only-its-seeds",
        STABILITY,
        "    stack = list(seeds)\n",
        "    stack = []\n",
        TOKEN_ON_TRIANGLE,
    ),
    Mutant(
        "unstable-seeded-by-every-successor",
        STABILITY,
        "for i in sources if outputs[i] != outputs[j]],",
        "for i in sources],",
        TOKEN_ON_TRIANGLE,
    ),
    Mutant(
        "audit-ignores-instability",
        STABILITY,
        "unsound=sum(1 for i in certified if unstable[i]),",
        "unsound=0,",
        BROKEN_CERTIFICATE,
    ),
    Mutant(
        "audit-ignores-leader-count",
        STABILITY,
        "certified_without_one_leader=sum(1 for i in certified if leaders[i] != 1),",
        "certified_without_one_leader=0,",
        BROKEN_CERTIFICATE,
    ),
    Mutant(
        "exploration-skips-length-check",
        STABILITY,
        "    start = _configuration(states, graph)\n",
        "    start = tuple(states)\n",
        ("tests/test_certificate_audit.py::test_configurations_of_the_wrong_length_raise",),
    ),
    Mutant(
        "explored-counts-the-counterexample",
        STABILITY,
        "                if stop is not None and stop(nxt_tuple):\n"
        "                    return order, predecessors, nxt_tuple\n"
        "                if len(order) >= max_configurations:\n"
        "                    raise StateSpaceTooLarge(\n"
        "                        f\"more than {max_configurations} configurations reachable\"\n"
        "                    )\n"
        "                j = index[nxt_tuple] = len(order)\n"
        "                order.append(nxt_tuple)\n",
        "                if len(order) >= max_configurations:\n"
        "                    raise StateSpaceTooLarge(\n"
        "                        f\"more than {max_configurations} configurations reachable\"\n"
        "                    )\n"
        "                j = index[nxt_tuple] = len(order)\n"
        "                order.append(nxt_tuple)\n"
        "                if stop is not None and stop(nxt_tuple):\n"
        "                    return order, predecessors, nxt_tuple\n",
        ("tests/test_certificate_audit.py::test_verdicts_pin_explored_and_counterexample",),
    ),
    # -- The per-replica precheck; checked environment values ---------
    Mutant(
        "per-replica-certificate-without-precheck",
        EXECUTE,
        "    # nor call it.\n"
        "    precheck = bool(getattr(protocol, \"certificate_requires_unique_leader\", False))\n",
        "    # nor call it.\n    precheck = False\n",
        ("tests/test_runtime_plan.py::test_per_replica_certificate_behind_the_one_leader_precheck",),
    ),
    Mutant(
        "lock-ttl-accepts-malformed",
        STORE,
        "                if not lock_stale_seconds > 0:\n"
        "                    raise ValueError(\n"
        "                        f\"{LOCK_TTL_ENV} must be a positive number of seconds, got {raw!r}\"\n"
        "                    )\n",
        "",
        ("tests/test_result_store.py::TestLockTTLConfiguration",),
    ),
    # -- Each sweep cell prepared once; rule-only set-up kept on the rule
    Mutant(
        "cell-units-share-first-protocol",
        RUNNER,
        "        [cell.protocols[trial] for trial in range(plan.trial_lo, plan.trial_hi)],",
        "        [next(iter(cell.protocols.values()))] * (plan.trial_hi - plan.trial_lo),",
        (f"{CELLS}::test_every_placement_and_shard_size_is_byte_identical",),
    ),
    Mutant(
        "store-served-units-prepared",
        RUNNER,
        "            for unit, plan in zip(pending, plans):",
        "            for unit, plan in zip(units, build_unit_plans(scenario, units)):",
        (
            f"{CELLS}::test_cells_served_from_the_store_prepare_nothing",
            f"{CELLS}::test_a_partly_stored_cell_prepares_only_its_missing_trials",
        ),
    ),
    Mutant(
        "start-cache-ignores-state",
        EXECUTE,
        "    start = rule.starts.get(state)\n",
        "    start = next(iter(rule.starts.values()), None)\n",
        ("tests/test_runtime_plan.py::test_v6_uniform_starts_are_kept_per_state_and_read_only",),
    ),
    # -- One row block per v6 stack, seeded in-kernel on the first call
    Mutant(
        "stack-seeds-rows-on-every-call",
        EXECUTE,
        "        seeds = None  # every row is seeded\n",
        "",
        ("tests/test_runtime_plan.py::test_stack_rows_resume_their_streams_across_many_calls",),
    ),
    Mutant(
        "stack-compaction-skips-row-block",
        EXECUTE,
        "            codes, rows, buffers = codes[keep], rows[keep], buffers[keep]\n",
        "            codes, buffers = codes[keep], buffers[keep]\n",
        (
            "tests/test_runtime_plan.py::"
            "test_stack_rows_finishing_in_different_calls_keep_replica_order",
        ),
    ),
    Mutant(
        "stack-leaders-word-starts-at-zero",
        EXECUTE,
        "    rows[:, ROW_LEADERS] = initial_leaders\n",
        "",
        STEP_ZERO,
    ),
    # -- Table codes in two bytes on the v6 stack ----------------------
    Mutant(
        "stack-table-codes-one-byte",
        NATIVE,
        "                tcodes[u] = (repro_table_code)na;\n"
        "                tcodes[v] = (repro_table_code)nb;\n",
        "                tcodes[u] = (uint8_t)na;\n"
        "                tcodes[v] = (uint8_t)nb;\n",
        ("tests/test_runtime_plan.py::test_table_codes_past_one_byte_match_the_reference",),
    ),
    Mutant(
        "stack-start-codes-int64",
        EXECUTE,
        "        initial_codes = np.broadcast_to(initial_codes, n).astype(code_dtype)\n",
        "        initial_codes = np.broadcast_to(initial_codes, n).astype(np.int64)\n",
        ("tests/test_runtime_plan.py::test_stack_results_keep_table_codes_in_two_bytes",),
    ),
    # -- Two engines, one table bound, checked before any table is built
    Mutant(
        "worthwhile-ignores-enumeration-size",
        "src/repro/engine/compiler.py",
        "        return len(enumeration) <= DEFAULT_MAX_STATES\n",
        "        return True\n",
        ("tests/test_runtime_plan.py::test_tables_beyond_the_bound_are_never_built",),
    ),
    # -- Tables fixed when built: codes come from the enumeration only -
    Mutant(
        "unenumerated-successor-registered",
        "src/repro/engine/compiler.py",
        "        try:\n"
        "            return self.index[state]\n"
        "        except KeyError:\n"
        "            raise self._outside(state) from None\n",
        "        if state not in self.index and len(self.states) < self.stride:\n"
        "            self.index[state] = len(self.states)\n"
        "            self.states.append(state)\n"
        "            self.outputs.append(None)\n"
        "            self.is_leader_list.append(False)\n"
        "        return self.index[state]  # KeyError once the stride is full\n",
        ("tests/test_runtime_plan.py::test_states_outside_the_enumeration_raise_on_every_executor",),
    ),
    Mutant(
        "tables-from-declared-size",
        "src/repro/engine/compiler.py",
        "        return len(enumeration) <= DEFAULT_MAX_STATES\n    return False\n",
        "        return len(enumeration) <= DEFAULT_MAX_STATES\n"
        "    size = protocol.state_space_size()\n"
        "    return size is not None and size <= DEFAULT_MAX_STATES\n",
        (
            "tests/test_runtime_plan.py::"
            "test_declared_size_without_enumeration_runs_on_the_reference",
            "tests/test_engine_compiler.py::TestCompilationCache::"
            "test_compilation_worthwhile_heuristic",
        ),
    ),
    # -- Estimator sources and single walks checked like the drivers --
    Mutant(
        "single-hitting-walks-off-its-target",
        "src/repro/analytics/walks.py",
        "    if node_id(start, graph.n_nodes) == node_id(target, graph.n_nodes):\n"
        "        step_budget(max_steps)\n"
        "        return 0\n",
        "",
        ("tests/test_analytics_batch.py::test_single_hitting_walk_on_its_target_reports_zero",),
    ),
    Mutant(
        "broadcast-sources-truncated",
        "src/repro/analytics/estimators.py",
        "    sources = [node_id(source, graph.n_nodes) for source in sources]\n",
        "    sources = [int(source) for source in sources]\n",
        ("tests/test_analytics_batch.py::test_estimator_sources_are_checked_before_they_seed",),
    ),
    # -- One sweep path; the service degrades to in-process execution
    Mutant(
        "scaling-series-rows-spec-major",
        "src/repro/experiments/figures.py",
        "    for size_index in range(len(scenario.sizes)):\n"
        "        for sweep in sweeps:\n",
        "    for sweep in sweeps:\n"
        "        for size_index in range(len(scenario.sizes)):\n",
        (
            "tests/test_figures.py::TestStabilizationSeries::"
            "test_rows_are_the_per_cell_measurements_size_by_size",
        ),
    ),
    Mutant(
        "degrade-watchdog-never-executes",
        "src/repro/service/server.py",
        "                await self._send_event(task, \"running\")\n"
        "                await self._execute_task_locally(task)\n",
        "                await self._send_event(task, \"running\")\n",
        (
            "tests/test_service.py::TestResiliencePaths::"
            "test_empty_pool_degrades_to_in_process_execution",
        ),
    ),
)


def _copy_tree(destination: Path) -> None:
    """The parts of the repository a test selection reads."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", "*.tmp*")
    shutil.copytree(ROOT / "src", destination / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", destination / "tests", ignore=ignore)
    shutil.copytree(ROOT / "scripts", destination / "scripts", ignore=ignore)
    shutil.copy2(ROOT / "conftest.py", destination / "conftest.py")


def _pytest(copy: Path, selection: Sequence[str]) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(copy / "src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


def _stale(mutant: Mutant) -> str:
    """Why the mutant no longer applies to the working tree, or ``""``."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times in {mutant.path}"
    return ""


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(list(argv))
    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name:40s} {mutant.path}  ->  {' '.join(mutant.selection)}")
        return 0
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    failures: List[str] = []
    for mutant in chosen:
        reason = _stale(mutant)
        if reason:
            failures.append(f"{mutant.name}: stale ({reason})")
    if failures:
        print("\n".join(failures))
        return 1

    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as workdir:
        baseline = Path(workdir) / "baseline"
        _copy_tree(baseline)
        for selection in dict.fromkeys(mutant.selection for mutant in chosen):
            run = _pytest(baseline, selection)
            if run.returncode != 0:
                print(run.stdout[-3000:])
                failures.append(f"{' '.join(selection)}: fails without any mutant")
        if failures:
            print("\n".join(failures))
            return 1
        # The unmutated build cache saves every Python-only mutant a
        # kernel compile; C mutants get a new digest and rebuild.
        for index, mutant in enumerate(chosen):
            copy = Path(workdir) / f"mutant{index}"
            shutil.copytree(baseline, copy)
            target = copy / mutant.path
            target.write_text(
                target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                encoding="utf-8",
            )
            start = time.perf_counter()
            run = _pytest(copy, mutant.selection)
            verdict = "killed" if run.returncode == 1 else (
                "SURVIVED" if run.returncode == 0 else f"ERROR (pytest exit {run.returncode})"
            )
            print(f"{mutant.name:40s} {verdict:10s} {time.perf_counter() - start:6.1f} s")
            if verdict != "killed":
                print(run.stdout[-3000:])
                failures.append(f"{mutant.name}: {verdict}")
            shutil.rmtree(copy)
    if failures:
        print("mutation gate FAILED:\n  " + "\n  ".join(failures))
        return 1
    print(f"mutation gate passed: {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
