"""Protocol compiler: from transition functions to dense lookup tables.

A :class:`~repro.core.protocol.PopulationProtocol` whose transition function
is a pure function of the two interacting states (``cacheable_transitions``)
can be *compiled*: every state is assigned a small integer code, and the
transition function is materialised into a dense table indexed by the pair
code ``a * K + b`` (``K`` is the current table stride, a power of two).

Each table entry packs everything the v6 epoch kernel needs to apply one
interaction without calling back into Python::

    entry = ((na * K + nb) << 4) | ((dl + 2) << 1) | chg

* ``na`` / ``nb`` — successor codes for the initiator / responder,
* ``dl ∈ [-2, 2]`` — change in the number of leader outputs,
* ``chg`` — whether either endpoint's *output* symbol changed.

A missing entry is the sentinel ``-1``.  Entries are filled lazily, the
first time a state pair is observed, so protocols with astronomically large
state *universes* but small reachable sets compile correctly.  Protocols
that know their full state space implement
:meth:`~repro.core.protocol.PopulationProtocol.enumerate_states`, which lets
the compiler pre-register codes and size the tables once.

Correct is not always fast: the identifier protocol's ``O(n^4)`` states
with random identifiers make a run meet new state pairs on most steps,
so lazy discovery costs more than it saves.  ``engine="auto"`` therefore
runs it without tables, on the v6 kernel's arithmetic rule
(:meth:`~repro.core.protocol.PopulationProtocol.kernel_rule`), and
compiles tables only for protocols that :func:`compilation_worthwhile`
accepts.

When state discovery outgrows the current stride the tables are re-packed
to the next power of two, up to ``max_states``; beyond that the compiler
raises :class:`ProtocolCompilationError`.  Every cached table set
(:func:`get_compiled`) has the one bound :data:`DEFAULT_MAX_STATES`.
Executors resolve a run's tables before its first draw, and build them
only for a protocol whose enumeration (or, without one, declared state
space) fits that bound (:func:`compilation_worthwhile`); any other
protocol runs on the reference interpreter.  Tables that outgrow the
bound anyway (a protocol that understates its state space) raise.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.protocol import LEADER, PopulationProtocol
from .native import TABLE_CODE_DTYPE

#: Default bound on the number of distinct states the compiler will track.
DEFAULT_MAX_STATES = 4096

#: Hard bound imposed by the int32 packed-entry layout (2*13 + 4 = 30 bits).
HARD_MAX_STATES = 8192

# The v6 stack keeps table codes in TABLE_CODE_DTYPE: every code below
# the hard bound must fit it.
if HARD_MAX_STATES - 1 > np.iinfo(TABLE_CODE_DTYPE).max:  # pragma: no cover
    raise ImportError(f"table codes below {HARD_MAX_STATES} do not fit {TABLE_CODE_DTYPE}")

#: Fixed stride used for scalar-cache keys, stable across table growth.
_SCALAR_STRIDE = 1 << 14


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
        function of the ordered state pair (``cacheable_transitions``).
    max_states:
        Bound on the number of distinct states tracked before compilation
        fails (capped at :data:`HARD_MAX_STATES`).  Executors use the
        default only, through :func:`get_compiled`; another bound makes a
        fresh, uncached table set (:func:`compile_protocol`).
    """

    #: ``repro_run_epoch``'s packed-table rule (``RULE_TABLE`` in
    #: :mod:`repro.engine.native`).
    rule_id = 0

    def __init__(self, protocol: PopulationProtocol, max_states: int = DEFAULT_MAX_STATES) -> None:
        if not protocol.cacheable_transitions:
            raise ProtocolCompilationError(
                f"{protocol.name}: transition function is declared non-memoisable "
                "(cacheable_transitions=False); use the reference engine"
            )
        if max_states < 1:
            raise ValueError("max_states must be positive")
        self.protocol = protocol
        self.max_states = min(int(max_states), HARD_MAX_STATES)

        self.states: List[Hashable] = []
        self.index: Dict[Hashable, int] = {}
        self.out_symbols: List[Any] = []
        self.out_index: Dict[Any, int] = {}
        self.out_codes: List[int] = []
        self.is_leader_list: List[bool] = []
        #: Number of filled (state, state) table entries.
        self.filled_pairs = 0

        self._K = 64
        self._kshift = self._K.bit_length() - 1
        self.dpack = np.full(self._K * self._K, -1, dtype=np.int32)
        #: Scalar-path cache: ``a * _SCALAR_STRIDE + b`` -> ``None`` for an
        #: exact no-op, else ``(na, nb, dl, chg)``.
        self.scalar: Dict[int, Optional[Tuple[int, int, int, int]]] = {}
        self._leader_np = np.zeros(self._K, dtype=bool)
        #: The v6 stack's uniform starts, per initial state
        #: (:func:`repro.runtime.execute._uniform_start`).
        self.starts: Dict[Hashable, Tuple[np.ndarray, int, np.ndarray]] = {}

        enumerated = protocol.enumerate_states()
        if enumerated is not None:
            for state in enumerated:
                self.code_for(state)
            # Tiny state spaces are compiled eagerly so the hot paths never
            # hit a missing entry (token: 36 pairs, star: 9).
            if self.n_states <= 64:
                self.ensure_pairs_among(range(self.n_states))

    # ------------------------------------------------------------------
    # Code assignment
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of distinct states discovered so far."""
        return len(self.states)

    @property
    def stride(self) -> int:
        """Current table stride ``K`` (a power of two)."""
        return self._K

    @property
    def kshift(self) -> int:
        """``log2(stride)``, used to unpack successor codes."""
        return self._kshift

    @property
    def tables_complete(self) -> bool:
        """True when every pair over the discovered states is filled.

        A complete table cannot miss or grow (transitions are closed over
        the discovered states), so executors may skip the miss check.
        """
        return self.filled_pairs == len(self.states) * len(self.states)

    def code_for(self, state: Hashable) -> int:
        """The integer code of ``state``, registering it if new."""
        code = self.index.get(state)
        if code is not None:
            return code
        code = len(self.states)
        if code >= self.max_states:
            raise ProtocolCompilationError(
                f"{self.protocol.name}: state space exceeds max_states={self.max_states}; "
                "use the reference engine"
            )
        self.states.append(state)
        self.index[state] = code
        symbol = self.protocol.output(state)
        out_code = self.out_index.get(symbol)
        if out_code is None:
            out_code = len(self.out_symbols)
            self.out_symbols.append(symbol)
            self.out_index[symbol] = out_code
        self.out_codes.append(out_code)
        self.is_leader_list.append(symbol == LEADER)
        if code >= self._K:
            self._grow()
        else:
            self._leader_np[code] = self.is_leader_list[code]
        return code

    def encode(self, states: Iterable[Hashable]) -> np.ndarray:
        """Encode a state sequence into an ``int64`` code array.

        New states are registered in first-seen order, exactly as a
        per-element :meth:`code_for` loop would (including the prefix
        registered before a :class:`ProtocolCompilationError`); the codes
        are then looked up in one C-level pass.
        """
        states = list(states)
        for state in dict.fromkeys(states):
            self.code_for(state)
        return np.fromiter(
            map(self.index.__getitem__, states), dtype=np.int64, count=len(states)
        )

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
        chg = int(
            self.out_codes[na] != self.out_codes[a]
            or self.out_codes[nb] != self.out_codes[b]
        )
        packed = (((na * self._K) + nb) << 4) | ((dl + 2) << 1) | chg
        self.dpack[a * self._K + b] = packed
        self.filled_pairs += 1
        if na == a and nb == b and not chg:
            self.scalar[a * _SCALAR_STRIDE + b] = None
        else:
            self.scalar[a * _SCALAR_STRIDE + b] = (na, nb, dl, chg)
        return packed

    def scalar_entry(self, a: int, b: int) -> Optional[Tuple[int, int, int, int]]:
        """Scalar-path entry for ``(a, b)``: ``None`` means exact no-op."""
        key = a * _SCALAR_STRIDE + b
        try:
            return self.scalar[key]
        except KeyError:
            self.fill_pair(a, b)
            return self.scalar[key]

    def ensure_pairs_among(self, codes: Sequence[int]) -> None:
        """Pre-fill all ordered pairs over ``codes`` (eager compilation)."""
        for a in codes:
            for b in codes:
                if self.dpack[a * self._K + b] < 0:
                    self.fill_pair(int(a), int(b))

    # ------------------------------------------------------------------
    # Derived per-code arrays
    # ------------------------------------------------------------------
    def leader_count(self, codes: np.ndarray) -> int:
        """Number of codes whose output is ``LEADER``."""
        return int(self._leader_np[codes].sum())

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old_k = self._K
        new_k = old_k * 2
        if new_k > self.max_states:
            raise ProtocolCompilationError(
                f"{self.protocol.name}: state space exceeds max_states={self.max_states}; "
                "use the reference engine"
            )
        new_pack = np.full(new_k * new_k, -1, dtype=np.int32)
        filled = np.nonzero(self.dpack >= 0)[0]
        if filled.size:
            old_entries = self.dpack[filled]
            flags = old_entries & 0xF
            vals = old_entries >> 4
            na = vals // old_k
            nb = vals % old_k
            a = filled // old_k
            b = filled % old_k
            new_pack[a * new_k + b] = (((na * new_k) + nb) << 4) | flags
        self.dpack = new_pack
        self._K = new_k
        self._kshift = new_k.bit_length() - 1
        leader_np = np.zeros(new_k, dtype=bool)
        leader_np[: len(self.states)] = self.is_leader_list
        self._leader_np = leader_np


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------
_keyed_cache: Dict[Hashable, CompiledProtocol] = {}
_instance_cache: "weakref.WeakKeyDictionary[PopulationProtocol, CompiledProtocol]" = (
    weakref.WeakKeyDictionary()
)
#: :func:`compilation_worthwhile`'s answer per ``compile_key``.
_worthwhile_cache: Dict[Hashable, bool] = {}


def compile_protocol(
    protocol: PopulationProtocol, max_states: int = DEFAULT_MAX_STATES
) -> CompiledProtocol:
    """Compile ``protocol`` into fresh lookup tables (no caching)."""
    return CompiledProtocol(protocol, max_states=max_states)


def get_compiled(protocol: PopulationProtocol) -> CompiledProtocol:
    """Compile ``protocol``, reusing tables across runs when possible.

    Protocols that implement
    :meth:`~repro.core.protocol.PopulationProtocol.compile_key` share one
    table set per key (two instances with equal keys must have identical
    transition functions); others are cached per instance, so repeated runs
    of the same protocol object still reuse the lazily-learned tables.
    Every table set is bounded by :data:`DEFAULT_MAX_STATES`.
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

    Compiled execution is always *correct* for memoisable protocols, but
    for a protocol with a huge state universe and no enumeration hook
    (e.g. the identifier protocol at full width) lazy pair discovery can
    cost more than a short interpreted run saves.  Compilation is
    considered worthwhile when the protocol's enumeration, or without
    one its declared state space, fits :data:`DEFAULT_MAX_STATES`, so
    the tables of a worthwhile protocol always build.  ``compile_plan``
    consults it only for protocols whose plan does not run on a kernel
    rule.

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
    size = protocol.state_space_size()
    return size is not None and size <= DEFAULT_MAX_STATES
