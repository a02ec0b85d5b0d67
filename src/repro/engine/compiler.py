"""Protocol compiler: from transition functions to dense lookup tables.

A :class:`~repro.core.protocol.PopulationProtocol` whose transition function
is a pure function of the two interacting states (``cacheable_transitions``)
and that enumerates its state set
(:meth:`~repro.core.protocol.PopulationProtocol.enumerate_states`) can be
*compiled*: the ``i``-th enumerated state gets code ``i``, and the
transition function is materialised into a dense table indexed by the
pair code ``a * K + b``.  The stride ``K`` is the smallest power of two
``>= max(64, states)``.

Each table entry packs everything the v6 epoch kernel needs to apply one
interaction without calling back into Python::

    entry = ((na * K + nb) << 4) | ((dl + 2) << 1) | chg

* ``na`` / ``nb`` — successor codes for the initiator / responder,
* ``dl ∈ [-2, 2]`` — change in the number of leader outputs,
* ``chg`` — whether either endpoint's *output* symbol changed.

A table set is fixed when it is built: its states, their codes and the
stride never change, and no array is reallocated.  A missing entry is the
sentinel ``-1``; entries are filled lazily, the first time a run meets a
state pair (tables of at most 64 states are filled when built).  A
successor or initial state outside the enumeration raises
:class:`ProtocolCompilationError` naming the protocol and the state, the
same on every executor.

Correct is not always fast: the identifier protocol's ``O(n^4)`` states
with random identifiers make a run meet new state pairs on most steps.
``engine="auto"`` therefore runs it without tables, on the v6 kernel's
arithmetic rule
(:meth:`~repro.core.protocol.PopulationProtocol.kernel_rule`), and
compiles tables only for protocols that :func:`compilation_worthwhile`
accepts: those whose enumeration fits the one table bound
:data:`DEFAULT_MAX_STATES`.  Executors decide before a run's first draw;
any other protocol, one without an enumeration included, runs on the
reference interpreter.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.protocol import LEADER, PopulationProtocol
from .native import TABLE_CODE_DTYPE

#: Bound on the number of states a table set holds.  Its stride is at
#: most this bound, so a packed entry takes ``2 * 12 + 4 = 28`` bits.
DEFAULT_MAX_STATES = 4096

# The v6 stack keeps table codes in TABLE_CODE_DTYPE: every code below
# the bound must fit it.
if DEFAULT_MAX_STATES - 1 > np.iinfo(TABLE_CODE_DTYPE).max:  # pragma: no cover
    raise ImportError(f"table codes below {DEFAULT_MAX_STATES} do not fit {TABLE_CODE_DTYPE}")


class ProtocolCompilationError(RuntimeError):
    """The protocol cannot be compiled to lookup tables."""


class CompiledProtocol:
    """Dense-table representation of a population protocol.

    On the v6 epoch stack the tables are one of the kernel's transition
    rules (:data:`rule_id`); the other is a protocol's own arithmetic
    kernel rule (:meth:`~repro.core.protocol.PopulationProtocol.kernel_rule`).

    Parameters
    ----------
    protocol:
        The protocol to compile.  Its transition function must be a pure
        function of the ordered state pair (``cacheable_transitions``),
        and it must enumerate at most :data:`DEFAULT_MAX_STATES` states.
    """

    #: ``repro_run_epoch``'s packed-table rule (``RULE_TABLE`` in
    #: :mod:`repro.engine.native`).
    rule_id = 0

    def __init__(self, protocol: PopulationProtocol) -> None:
        name = protocol.name
        if not protocol.cacheable_transitions:
            raise ProtocolCompilationError(
                f"{name}: transition function is declared non-memoisable "
                "(cacheable_transitions=False); use the reference engine"
            )
        enumerated = protocol.enumerate_states()
        if enumerated is None:
            raise ProtocolCompilationError(
                f"{name}: no state enumeration; use the reference engine"
            )
        self.protocol = protocol
        self.states: List[Hashable] = list(dict.fromkeys(enumerated))
        if len(self.states) > DEFAULT_MAX_STATES:
            raise ProtocolCompilationError(
                f"{name}: {len(self.states)} states exceed the table bound "
                f"{DEFAULT_MAX_STATES}; use the reference engine"
            )
        self.index: Dict[Hashable, int] = {state: code for code, state in enumerate(self.states)}
        self.outputs = [protocol.output(state) for state in self.states]
        self.is_leader_list: List[bool] = [symbol == LEADER for symbol in self.outputs]
        #: Number of filled (state, state) table entries.
        self.filled_pairs = 0

        #: The table stride ``K``, a power of two, and ``log2(K)``, used to
        #: unpack successor codes.
        self.stride = 64
        while self.stride < len(self.states):
            self.stride *= 2
        self.kshift = self.stride.bit_length() - 1
        self.dpack = np.full(self.stride * self.stride, -1, dtype=np.int32)
        #: Scalar-path cache: ``a * stride + b`` -> ``None`` for an exact
        #: no-op, else ``(na, nb, dl, chg)``.
        self.scalar: Dict[int, Optional[Tuple[int, int, int, int]]] = {}
        self._leader_np = np.zeros(self.stride, dtype=bool)
        self._leader_np[: len(self.states)] = self.is_leader_list
        #: The v6 stack's uniform starts, per initial state
        #: (:func:`repro.runtime.execute._uniform_start`).
        self.starts: Dict[Hashable, Tuple[np.ndarray, int, np.ndarray]] = {}

        # Tiny state spaces are compiled eagerly so the hot paths never
        # hit a missing entry (token: 36 pairs, star: 9).
        if self.n_states <= 64:
            self.ensure_pairs_among(range(self.n_states))

    # ------------------------------------------------------------------
    # Codes
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of enumerated states."""
        return len(self.states)

    @property
    def tables_complete(self) -> bool:
        """True when every pair over the enumerated states is filled.

        A complete table cannot miss, so executors may skip the miss
        check.
        """
        return self.filled_pairs == len(self.states) * len(self.states)

    def _outside(self, state: Hashable) -> ProtocolCompilationError:
        return ProtocolCompilationError(
            f"{self.protocol.name}: state {state!r} is not among its "
            f"{len(self.states)} enumerated states; use the reference engine"
        )

    def code_for(self, state: Hashable) -> int:
        """The code of ``state``; a state outside the enumeration raises."""
        try:
            return self.index[state]
        except KeyError:
            raise self._outside(state) from None

    def encode(self, states: Iterable[Hashable]) -> np.ndarray:
        """Encode a state sequence into an ``int64`` code array.

        The codes are looked up in one C-level pass; a state outside the
        enumeration raises as in :meth:`code_for`.
        """
        states = list(states)
        try:
            return np.fromiter(
                map(self.index.__getitem__, states), dtype=np.int64, count=len(states)
            )
        except KeyError as missing:
            raise self._outside(missing.args[0]) from None

    def decode_codes(self, codes: Iterable[int]) -> List[Hashable]:
        """Decode integer codes back into state objects."""
        if isinstance(codes, np.ndarray):
            codes = codes.tolist()  # Python ints index a list far faster
        states = self.states
        return [states[c] for c in codes]

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def fill_pair(self, a: int, b: int) -> int:
        """Compute, store and return the packed entry for pair ``(a, b)``."""
        na_state, nb_state = self.protocol.transition(self.states[a], self.states[b])
        na = self.code_for(na_state)
        nb = self.code_for(nb_state)
        dl = (
            int(self.is_leader_list[na])
            - int(self.is_leader_list[a])
            + int(self.is_leader_list[nb])
            - int(self.is_leader_list[b])
        )
        chg = int(self.outputs[na] != self.outputs[a] or self.outputs[nb] != self.outputs[b])
        key = a * self.stride + b
        packed = (((na * self.stride) + nb) << 4) | ((dl + 2) << 1) | chg
        self.dpack[key] = packed
        self.filled_pairs += 1
        if na == a and nb == b and not chg:
            self.scalar[key] = None
        else:
            self.scalar[key] = (na, nb, dl, chg)
        return packed

    def scalar_entry(self, a: int, b: int) -> Optional[Tuple[int, int, int, int]]:
        """Scalar-path entry for ``(a, b)``: ``None`` means exact no-op."""
        key = a * self.stride + b
        try:
            return self.scalar[key]
        except KeyError:
            self.fill_pair(a, b)
            return self.scalar[key]

    def ensure_pairs_among(self, codes: Sequence[int]) -> None:
        """Pre-fill all ordered pairs over ``codes`` (eager compilation)."""
        for a in codes:
            for b in codes:
                if self.dpack[a * self.stride + b] < 0:
                    self.fill_pair(int(a), int(b))

    # ------------------------------------------------------------------
    # Derived per-code arrays
    # ------------------------------------------------------------------
    def leader_count(self, codes: np.ndarray) -> int:
        """Number of codes whose output is ``LEADER``."""
        return int(self._leader_np[codes].sum())


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------
_keyed_cache: Dict[Hashable, CompiledProtocol] = {}
_instance_cache: "weakref.WeakKeyDictionary[PopulationProtocol, CompiledProtocol]" = (
    weakref.WeakKeyDictionary()
)
#: :func:`compilation_worthwhile`'s answer per ``compile_key``.
_worthwhile_cache: Dict[Hashable, bool] = {}


def get_compiled(protocol: PopulationProtocol) -> CompiledProtocol:
    """Compile ``protocol``, reusing tables across runs when possible.

    Protocols that implement
    :meth:`~repro.core.protocol.PopulationProtocol.compile_key` share one
    table set per key (two instances with equal keys must have identical
    transition functions); others are cached per instance, so repeated runs
    of the same protocol object still reuse the lazily filled entries.
    """
    key = protocol.compile_key()
    if key is not None:
        cached = _keyed_cache.get(key)
        if cached is None:
            cached = _keyed_cache[key] = CompiledProtocol(protocol)
        return cached
    cached = _instance_cache.get(protocol)
    if cached is None:
        cached = _instance_cache[protocol] = CompiledProtocol(protocol)
    return cached


def clear_compilation_cache() -> None:
    """Drop all cached compiled protocols (tests, memory pressure)."""
    _keyed_cache.clear()
    _instance_cache.clear()
    _worthwhile_cache.clear()


def compilation_worthwhile(protocol: PopulationProtocol) -> bool:
    """Heuristic used by ``engine="auto"`` callers.

    Compilation is worthwhile for a memoisable protocol whose
    enumeration fits :data:`DEFAULT_MAX_STATES`; a protocol without one
    (the identifier protocol at full width, whose ``O(n^4)`` universe no
    table holds) runs on the reference interpreter, whatever size
    :meth:`~repro.core.protocol.PopulationProtocol.state_space_size`
    declares.  ``compile_plan`` consults it only for protocols whose
    plan does not run on a kernel rule.

    Instances with equal ``compile_key`` share one answer, memoised until
    :func:`clear_compilation_cache`: the enumeration it looks at (136
    states for the fast protocol on a 36-node regular graph) is built
    once per key, not once per plan.
    """
    if not protocol.cacheable_transitions:
        return False
    key = protocol.compile_key()
    if key is None:
        return _enumerable_within(protocol)
    answer = _worthwhile_cache.get(key)
    if answer is None:
        answer = _worthwhile_cache[key] = _enumerable_within(protocol)
    return answer


def _enumerable_within(protocol: PopulationProtocol) -> bool:
    enumeration = protocol.enumerate_states()
    if enumeration is not None:
        return len(enumeration) <= DEFAULT_MAX_STATES
    return False
