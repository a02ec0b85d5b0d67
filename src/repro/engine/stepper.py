"""Block execution of compiled protocols (single run).

A :class:`CompiledRun` holds the integer-coded configuration of one
execution and applies scheduler blocks against the packed tables of a
:class:`~repro.engine.compiler.CompiledProtocol`.  Three backends implement
the same sequential semantics:

``native``
    The ctypes C kernel (:mod:`repro.engine.native`); fastest, used
    whenever a system C compiler is available.

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

import ctypes
from typing import Hashable, List, Optional, Tuple

import numpy as np

from .compiler import CompiledProtocol, _SCALAR_STRIDE
from .native import get_kernel

#: Below this node count the scalar backend outruns NumPy fancy indexing
#: (conflict segments have expected length Θ(√n), so vectors are tiny).
VECTOR_MIN_NODES = 1024

_BACKENDS = ("native", "vector", "scalar")


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this environment, fastest first."""
    if get_kernel() is not None:
        return _BACKENDS
    return _BACKENDS[1:]


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
        ``"auto"`` (default) picks the fastest available exact backend;
        ``"native"`` / ``"vector"`` / ``"scalar"`` force one.
    record_trace / trace_every:
        Leader-trace checkpoints, matching the reference simulator's
        step-exact recording.  Unsupported by the native backend.
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

        self._auto_promote = False
        if backend == "auto":
            kernel_ready = not record_trace and get_kernel() is not None
            if kernel_ready and compiled.tables_complete:
                # Fully compiled tables can never miss: go native directly.
                backend = "native"
            else:
                # Table misses cost ~25µs through the kernel's
                # stop-fill-resume cycle but only ~3µs in the scalar loop,
                # so start in a Python backend and promote to the kernel
                # once a whole block runs without discovering new pairs.
                self._auto_promote = kernel_ready
                backend = "vector" if self.n >= VECTOR_MIN_NODES else "scalar"
        if backend not in _BACKENDS:
            raise ValueError(f"unknown engine backend {backend!r}")
        if backend == "native":
            if get_kernel() is None:
                raise RuntimeError("native engine backend unavailable (no C compiler)")
            if record_trace:
                raise ValueError("the native backend does not record leader traces")
        self.backend = backend

        if self.record_trace:
            self.trace.append((0, self.leader_count))
            self.next_trace = self.trace_every

        if backend == "scalar":
            self.codes_list: List[int] = [int(c) for c in initial_codes]
            self._seen_set = set(self.codes_list)
        else:
            self.codes = np.ascontiguousarray(initial_codes, dtype=np.int64)
            if backend == "vector":
                self._seen_mask = np.zeros(compiled.stride, dtype=bool)
                self._seen_mask[self.codes] = True
            else:
                self._seen_u8 = np.zeros(compiled.stride, dtype=np.uint8)
                self._seen_u8[self.codes] = 1

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def apply_block(self, iu: np.ndarray, iv: np.ndarray) -> None:
        """Apply one scheduler block (ordered interaction arrays)."""
        if iu.shape[0] == 0:
            return
        if self.backend == "native":
            self._apply_native(iu, iv)
            return
        fills_before = self.compiled.filled_pairs
        if self.backend == "vector":
            self._apply_vector(iu, iv)
        else:
            self._apply_scalar(iu, iv)
        if self._auto_promote and self.compiled.filled_pairs == fills_before:
            self._promote_to_native()

    def _promote_to_native(self) -> None:
        """Switch a warmed-up auto run onto the C kernel."""
        compiled = self.compiled
        seen = np.zeros(compiled.stride, dtype=np.uint8)
        if self.backend == "scalar":
            self.codes = np.ascontiguousarray(self.codes_list, dtype=np.int64)
            seen[list(self._seen_set)] = 1
        else:
            seen[: self._seen_mask.shape[0]] = self._seen_mask
        self._seen_u8 = seen
        self.backend = "native"
        self._auto_promote = False

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
        if self.backend == "vector":
            return int(self._seen_mask.sum())
        return int(np.count_nonzero(self._seen_u8))

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

    # ------------------------------------------------------------------
    # Native backend
    # ------------------------------------------------------------------
    def _apply_native(self, iu: np.ndarray, iv: np.ndarray) -> None:
        comp = self.compiled
        kernel = get_kernel()
        block = int(iu.shape[0])
        codes = self.codes
        iu = np.ascontiguousarray(iu, dtype=np.int64)
        iv = np.ascontiguousarray(iv, dtype=np.int64)
        last = ctypes.c_int64(self.last_change)
        leaders = ctypes.c_int64(self.leader_count)
        codes_ptr = codes.ctypes.data
        iu_ptr = iu.ctypes.data
        iv_ptr = iv.ctypes.data
        position = 0
        while position < block:
            seen = self._seen_u8
            if seen.shape[0] < comp.stride:
                grown = np.zeros(comp.stride, dtype=np.uint8)
                grown[: seen.shape[0]] = seen
                self._seen_u8 = seen = grown
            done = kernel(
                codes_ptr,
                iu_ptr + 8 * position,
                iv_ptr + 8 * position,
                block - position,
                comp.dpack.ctypes.data,
                comp.stride,
                comp.kshift,
                seen.ctypes.data,
                self.step + position,
                ctypes.byref(last),
                ctypes.byref(leaders),
            )
            position += int(done)
            if position < block:
                # The kernel stopped on a missing table entry: fill it
                # (possibly growing the tables) and resume in place.
                u = int(iu[position])
                v = int(iv[position])
                comp.scalar_entry(int(codes[u]), int(codes[v]))
        self.step += block
        self.last_change = int(last.value)
        self.leader_count = int(leaders.value)
