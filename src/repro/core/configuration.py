"""Configurations of population protocols.

A configuration is a map from nodes to states (Section 2.2).  The simulator
mutates a plain Python list in place for speed; :class:`Configuration`
wraps such a list with the counting / comparison helpers the analysis and
lower-bound modules need (state counts, density, leader multiplicity),
without copying on every step.

A configuration can also start as a row of integer state codes plus the
decoder that maps it to states (:meth:`Configuration.from_codes`).  The
v6 stack hands out the final configuration of a run that ends on its
step budget this way, so a million-node run decodes its 10^6 codes only
if something reads them.  The first use decodes once and drops the
codes; a lazy configuration compares, hashes, prints and pickles
exactly like an eager one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple


class Configuration:
    """A snapshot of all node states at some time step.

    Parameters
    ----------
    states:
        One state per node, indexed by node id.
    step:
        The number of scheduler interactions that produced this
        configuration (0 for the initial configuration).
    """

    __slots__ = ("_states", "_codes", "_decode", "step")

    def __init__(self, states: Sequence[Hashable], step: int = 0) -> None:
        self._states: Optional[Tuple[Hashable, ...]] = tuple(states)
        self._codes: Any = None
        self._decode: Optional[Callable[[Any], Sequence[Hashable]]] = None
        self.step = int(step)

    @classmethod
    def from_codes(
        cls, codes: Any, decode: Callable[[Any], Sequence[Hashable]], step: int = 0
    ) -> "Configuration":
        """The configuration ``decode(codes)``, decoded on first use.

        ``codes`` is kept as given, so the caller must never write it
        again.  ``decode`` is called at most once.
        """
        config = cls.__new__(cls)
        config._states = None
        config._codes = codes
        config._decode = decode
        config.step = int(step)
        return config

    # ------------------------------------------------------------------
    # Mapping-like access
    # ------------------------------------------------------------------
    def __getitem__(self, node: int) -> Hashable:
        return self.states[node]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.states)

    @property
    def states(self) -> Tuple[Hashable, ...]:
        """The state tuple (immutable)."""
        states = self._states
        if states is None:
            states = self._states = tuple(self._decode(self._codes))
            self._codes = self._decode = None
        return states

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def state_counts(self) -> Counter:
        """Multiset of states (the "counts" view used by Section 7)."""
        return Counter(self.states)

    def count(self, state: Hashable) -> int:
        """Number of nodes in the given state."""
        return self.states.count(state)

    def distinct_states(self) -> int:
        """Number of distinct states present."""
        return len(set(self.states))

    def nodes_in_state(self, state: Hashable) -> Tuple[int, ...]:
        """Indices of nodes currently in ``state``."""
        return tuple(i for i, s in enumerate(self.states) if s == state)

    def density(self, state: Hashable) -> float:
        """Fraction of nodes in ``state`` (the α of α-dense configurations)."""
        if not self.states:
            return 0.0
        return self.count(state) / len(self.states)

    def is_alpha_dense(self, states: Iterable[Hashable], alpha: float) -> bool:
        """Every state in ``states`` is present in count at least ``alpha * n``.

        This is the (non-"fully") α-density notion of Section 7.1.
        """
        n = len(self.states)
        counts = self.state_counts()
        return all(counts.get(s, 0) >= alpha * n for s in states)

    def is_fully_alpha_dense(self, states: Iterable[Hashable], alpha: float) -> bool:
        """α-dense with respect to ``states`` and no other state present."""
        wanted = set(states)
        if not self.is_alpha_dense(wanted, alpha):
            return False
        return set(self.states) <= wanted

    def outputs(self, protocol) -> Tuple[Any, ...]:
        """Per-node outputs under the given protocol."""
        return tuple(protocol.output(s) for s in self.states)

    def replace(self, assignments: Dict[int, Hashable], step: int | None = None) -> "Configuration":
        """A copy with the given node→state assignments applied."""
        states = list(self.states)
        for node, state in assignments.items():
            states[node] = state
        return Configuration(states, step=self.step if step is None else step)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.states == other.states

    def __hash__(self) -> int:
        return hash(self.states)

    def __reduce__(self):
        return (type(self), (self.states, self.step))

    def __repr__(self) -> str:
        preview = ", ".join(repr(s) for s in self.states[:6])
        suffix = ", ..." if len(self.states) > 6 else ""
        return f"Configuration(step={self.step}, states=[{preview}{suffix}])"


def uniform_initial_configuration(protocol, n_nodes: int, input_symbol: Any = None) -> Configuration:
    """The all-identical initial configuration of Section 2.2."""
    state = protocol.initial_state(input_symbol)
    return Configuration([state] * n_nodes, step=0)


def initial_configuration_from_inputs(protocol, inputs: Sequence[Any]) -> Configuration:
    """Initial configuration for per-node inputs (e.g. leader candidates)."""
    return Configuration([protocol.initial_state(x) for x in inputs], step=0)
