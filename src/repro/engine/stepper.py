"""Block execution of compiled protocols (single run, no C kernel).

A :class:`CompiledRun` holds the integer-coded configuration of one
execution and applies scheduler blocks against the packed tables of a
:class:`~repro.engine.compiler.CompiledProtocol`.  It is the per-replica
engine of :mod:`repro.runtime.execute`, for the runs the v6 epoch stack
cannot serve (leader traces, scheduler overrides, seeds the kernel
cannot reproduce, an explicit Python backend, hosts without the
kernel); the C kernel runs only whole plans, on that stack.  Two
backends implement the same sequential semantics:

``vector``
    NumPy block application with a *conflict-splitting pass*: a block of
    interactions is partitioned into maximal segments in which no node
    occurs twice, each segment is applied with pure array indexing (gather
    states, one table fetch, scatter successors), and the packed entries
    are buffered so output changes, leader-count deltas and the
    distinct-state mask are recovered with whole-block array ops.  Because
    segments are node-disjoint and processed in order, the result is
    bit-identical to applying interactions one at a time.

``scalar``
    A tight Python loop over integer codes and the compiler's scalar
    cache, whose entries are pre-reduced to "exact no-op" or
    ``(successor codes, leader delta, output-changed)``.  On graphs with
    fewer than ~1k nodes the conflict segments are so short that fixed
    NumPy call overhead dominates, and this loop is the faster exact
    backend.

Bookkeeping (``last_output_change_step``, leader counts, the distinct-state
set and the optional leader trace) matches the reference simulator exactly;
``tests/test_engine_equivalence.py`` pins this down per backend.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import numpy as np

from .compiler import CompiledProtocol, _SCALAR_STRIDE
from .native import get_run_epoch_kernel

#: Below this node count the scalar backend outruns NumPy fancy indexing
#: (conflict segments have expected length Θ(√n), so vectors are tiny).
VECTOR_MIN_NODES = 1024

_BACKENDS = ("vector", "scalar")


def available_backends() -> Tuple[str, ...]:
    """Compiled-engine backends usable in this environment, fastest first.

    ``"native"`` is the v6 epoch stack (:mod:`repro.runtime.execute`),
    listed when the kernel is built; ``"vector"`` and ``"scalar"`` are
    this module's per-replica backends.
    """
    if get_run_epoch_kernel() is not None:
        return ("native",) + _BACKENDS
    return _BACKENDS


def segment_cuts(iu: np.ndarray, iv: np.ndarray) -> List[int]:
    """Conflict-splitting pass: cut a block into node-disjoint segments.

    Returns cut indices ``c_0=0 < c_1 < ... <= B`` such that within every
    half-open segment ``[c_k, c_{k+1})`` no node appears twice.  Greedy and
    maximal: a segment is cut exactly at the first interaction that reuses
    a node already touched in the segment, so the number of segments is
    minimal for left-to-right processing.
    """
    count = int(iu.shape[0])
    slots = np.empty(2 * count, dtype=np.int64)
    slots[0::2] = iu
    slots[1::2] = iv
    order = np.argsort(slots, kind="stable")
    sorted_nodes = slots[order]
    prev_slot = np.full(2 * count, -1, dtype=np.int64)
    same = sorted_nodes[1:] == sorted_nodes[:-1]
    prev_slot[order[1:][same]] = order[:-1][same]
    # Previous interaction (not slot) sharing a node; -1 >> 1 stays -1.
    prev_interaction = np.maximum(prev_slot[0::2], prev_slot[1::2]) >> 1
    cuts = [0]
    start = 0
    for index, prev in enumerate(prev_interaction.tolist()):
        if prev >= start:
            cuts.append(index)
            start = index
    cuts.append(count)
    return cuts


class CompiledRun:
    """One execution's integer-coded state plus exact bookkeeping.

    Parameters
    ----------
    compiled:
        The compiled protocol tables.
    initial_codes:
        Initial per-node state codes (``int64`` array of length ``n``).
    backend:
        ``"auto"`` (default) picks the faster exact backend for the
        graph size; ``"vector"`` / ``"scalar"`` force one.  ``"native"``
        raises: the C kernel runs only on the v6 epoch stack.
    record_trace / trace_every:
        Leader-trace checkpoints, matching the reference simulator's
        step-exact recording.
    """

    def __init__(
        self,
        compiled: CompiledProtocol,
        initial_codes: np.ndarray,
        backend: str = "auto",
        record_trace: bool = False,
        trace_every: int = 0,
    ) -> None:
        self.compiled = compiled
        self.n = int(initial_codes.shape[0])
        self.step = 0
        self.last_change = 0
        self.record_trace = bool(record_trace)
        self.trace_every = int(trace_every)
        if self.record_trace and self.trace_every < 1:
            raise ValueError("record_trace requires trace_every >= 1")
        self.trace: List[Tuple[int, int]] = []
        self.leader_count = compiled.leader_count(initial_codes)

        if backend == "auto":
            backend = "vector" if self.n >= VECTOR_MIN_NODES else "scalar"
        if backend == "native":
            if get_run_epoch_kernel() is None:
                raise RuntimeError("native engine backend unavailable (no C compiler)")
            raise ValueError(
                "backend='native' runs only on the v6 epoch stack, which cannot "
                "serve this run (a leader trace, a scheduler override or a seed "
                "the kernel cannot reproduce); use backend='auto'"
            )
        if backend not in _BACKENDS:
            raise ValueError(f"unknown engine backend {backend!r}")
        self.backend = backend

        if self.record_trace:
            self.trace.append((0, self.leader_count))
            self.next_trace = self.trace_every

        if backend == "scalar":
            self.codes_list: List[int] = [int(c) for c in initial_codes]
            self._seen_set = set(self.codes_list)
        else:
            self.codes = np.ascontiguousarray(initial_codes, dtype=np.int64)
            self._seen_mask = np.zeros(compiled.stride, dtype=bool)
            self._seen_mask[self.codes] = True

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def apply_block(self, iu: np.ndarray, iv: np.ndarray) -> None:
        """Apply one scheduler block (ordered interaction arrays)."""
        if iu.shape[0] == 0:
            return
        if self.backend == "vector":
            self._apply_vector(iu, iv)
        else:
            self._apply_scalar(iu, iv)

    def current_states(self) -> List[Hashable]:
        """Decode the configuration into protocol state objects."""
        if self.backend == "scalar":
            states = self.compiled.states
            return [states[c] for c in self.codes_list]
        return self.compiled.decode_codes(self.codes)

    def distinct_observed(self) -> int:
        """Number of distinct state values present at any point so far."""
        if self.backend == "scalar":
            return len(self._seen_set)
        return int(self._seen_mask.sum())

    # ------------------------------------------------------------------
    # Scalar backend
    # ------------------------------------------------------------------
    def _apply_scalar(self, iu: np.ndarray, iv: np.ndarray) -> None:
        comp = self.compiled
        table = comp.scalar
        fill = comp.scalar_entry
        codes = self.codes_list
        seen_add = self._seen_set.add
        stride = _SCALAR_STRIDE
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

    # ------------------------------------------------------------------
    # Vector backend (conflict-splitting)
    # ------------------------------------------------------------------
    def _apply_vector(self, iu: np.ndarray, iv: np.ndarray) -> None:
        comp = self.compiled
        block = int(iu.shape[0])
        codes = self.codes
        cuts = segment_cuts(iu, iv)
        packed_buffer = np.empty(block, dtype=np.int32)
        generation = comp.generation
        stride = comp.stride
        kshift = comp.kshift
        kmask = stride - 1
        flush_from = 0
        for index in range(len(cuts) - 1):
            left, right = cuts[index], cuts[index + 1]
            if left == right:
                continue
            seg_u = iu[left:right]
            seg_v = iv[left:right]
            packed = comp.lookup_block(codes[seg_u], codes[seg_v])
            if comp.generation != generation:
                # Table growth repacked entries; flush bookkeeping written
                # under the old stride before switching.
                self._flush_vector(packed_buffer[flush_from:left], stride, kshift, self.step + flush_from)
                flush_from = left
                generation = comp.generation
                stride = comp.stride
                kshift = comp.kshift
                kmask = stride - 1
            packed_buffer[left:right] = packed
            successors = packed >> 4
            codes[seg_u] = successors >> kshift
            codes[seg_v] = successors & kmask
        self._flush_vector(packed_buffer[flush_from:block], stride, kshift, self.step + flush_from)
        self.step += block

    def _flush_vector(self, packed: np.ndarray, stride: int, kshift: int, step_base: int) -> None:
        if packed.size == 0:
            return
        changed = np.nonzero(packed & 1)[0]
        if changed.size:
            self.last_change = step_base + int(changed[-1]) + 1
        leader_delta = ((packed >> 1) & 7) - 2
        if self.record_trace:
            counts = self.leader_count + np.cumsum(leader_delta)
            end_step = step_base + packed.size
            next_trace = self.next_trace
            while next_trace <= end_step:
                self.trace.append((next_trace, int(counts[next_trace - step_base - 1])))
                next_trace += self.trace_every
            self.next_trace = next_trace
            self.leader_count = int(counts[-1])
        else:
            self.leader_count += int(leader_delta.sum())
        mask = self._seen_mask
        if mask.shape[0] < stride:
            grown = np.zeros(stride, dtype=bool)
            grown[: mask.shape[0]] = mask
            self._seen_mask = mask = grown
        successors = packed >> 4
        mask[successors >> kshift] = True
        mask[successors & (stride - 1)] = True
