"""Block execution of compiled protocols (single run, no C kernel).

A :class:`CompiledRun` holds the integer-coded configuration of one
execution and applies scheduler blocks against the scalar cache of a
:class:`~repro.engine.compiler.CompiledProtocol`.  It is the per-replica
engine of :mod:`repro.runtime.execute`, for the runs the v6 epoch stack
cannot serve (leader traces, scheduler overrides, seeds the kernel
cannot reproduce, hosts without the kernel); the C kernel runs only
whole plans, on that stack.

A block is applied by one tight Python loop over integer codes and the
compiler's scalar cache, whose entries are pre-reduced to "exact no-op"
or ``(successor codes, leader delta, output-changed)`` and keyed by the
table's own pair index ``a * stride + b`` (a table set's stride is fixed
when it is built); a missing entry is filled through
:meth:`~repro.engine.compiler.CompiledProtocol.scalar_entry`, the same
miss path as the v6 stack's.

Bookkeeping (``last_output_change_step``, leader counts, the distinct-state
set and the optional leader trace) matches the reference simulator exactly;
``tests/test_engine_equivalence.py`` pins this down.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import numpy as np

from .compiler import CompiledProtocol


class CompiledRun:
    """One execution's integer-coded state plus exact bookkeeping.

    Parameters
    ----------
    compiled:
        The compiled protocol tables.
    initial_codes:
        Initial per-node state codes (``int64`` array of length ``n``).
    record_trace / trace_every:
        Leader-trace checkpoints, matching the reference simulator's
        step-exact recording.
    """

    def __init__(
        self,
        compiled: CompiledProtocol,
        initial_codes: np.ndarray,
        record_trace: bool = False,
        trace_every: int = 0,
    ) -> None:
        self.compiled = compiled
        self.step = 0
        self.last_change = 0
        self.record_trace = bool(record_trace)
        self.trace_every = int(trace_every)
        if self.record_trace and self.trace_every < 1:
            raise ValueError("record_trace requires trace_every >= 1")
        self.trace: List[Tuple[int, int]] = []
        self.leader_count = compiled.leader_count(initial_codes)
        if self.record_trace:
            self.trace.append((0, self.leader_count))
            self.next_trace = self.trace_every
        self.codes_list: List[int] = [int(c) for c in initial_codes]
        self._seen_set = set(self.codes_list)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def apply_block(self, iu: np.ndarray, iv: np.ndarray) -> None:
        """Apply one scheduler block (ordered interaction arrays)."""
        comp = self.compiled
        table = comp.scalar
        fill = comp.scalar_entry
        codes = self.codes_list
        seen_add = self._seen_set.add
        stride = comp.stride
        step = self.step
        last = self.last_change
        leaders = self.leader_count
        tracing = self.record_trace
        if tracing:
            next_trace = self.next_trace
            trace_every = self.trace_every
            trace_append = self.trace.append
        for u, v in zip(iu.tolist(), iv.tolist()):
            step += 1
            a = codes[u]
            b = codes[v]
            try:
                entry = table[a * stride + b]
            except KeyError:
                entry = fill(a, b)
            if entry is not None:
                na, nb, dl, chg = entry
                codes[u] = na
                codes[v] = nb
                seen_add(na)
                seen_add(nb)
                if chg:
                    last = step
                leaders += dl
            if tracing and step >= next_trace:
                trace_append((step, leaders))
                next_trace += trace_every
        self.step = step
        self.last_change = last
        self.leader_count = leaders
        if tracing:
            self.next_trace = next_trace

    def current_states(self) -> List[Hashable]:
        """Decode the configuration into protocol state objects."""
        states = self.compiled.states
        return [states[c] for c in self.codes_list]

    def distinct_observed(self) -> int:
        """Number of distinct state values present at any point so far."""
        return len(self._seen_set)
