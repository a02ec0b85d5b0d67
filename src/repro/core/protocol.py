"""The population-protocol abstraction (Section 2.2 of the paper).

A protocol is a tuple ``A = (Λ, Ξ, Σ_in, Σ_out, init, out)``:

* ``Λ`` — the set of node states,
* ``Ξ : Λ × Λ → Λ × Λ`` — the transition function applied to the ordered
  (initiator, responder) pair sampled by the scheduler,
* ``Σ_in`` / ``Σ_out`` — input / output alphabets,
* ``init : Σ_in → Λ`` — the initialisation function,
* ``out : Λ → Σ_out`` — the output function.

:class:`PopulationProtocol` encodes exactly this signature.  States can be
any hashable Python objects; constant-state protocols use small tuples so
the simulator can memoise the transition function into a lookup table.

Protocols may be *non-uniform* in the paper's sense (Section 2.2): the
transition function can depend on structural parameters of the interaction
graph (``n``, ``m``, ``Δ``, an estimate of ``B(G)``), provided all nodes are
given the same information.  Such parameters are passed to the protocol's
constructor — the per-node initialisation still treats all nodes
identically.
"""

from __future__ import annotations

import abc
from typing import Any, Generic, Hashable, Optional, Sequence, Tuple, TypeVar

State = TypeVar("State", bound=Hashable)

#: Output value for a node that currently considers itself the leader.
LEADER = "leader"
#: Output value for a node that currently considers itself a follower.
FOLLOWER = "follower"


class PopulationProtocol(abc.ABC, Generic[State]):
    """Abstract base class for population protocols.

    Subclasses implement :meth:`initial_state`, :meth:`transition` and
    :meth:`output`.  The default input symbol is ``None``: leader-election
    protocols start all nodes in the same state (Section 2.2), and the
    input hook exists for protocols such as the token protocol of
    Theorem 16 which accepts a set of leader candidates as input.
    """

    #: Human-readable protocol name used in experiment reports.
    name: str = "population-protocol"

    #: Whether the transition function is a pure function of the two states
    #: with a small domain, so the simulator may memoise it in a dict.
    cacheable_transitions: bool = True

    #: Declares that :meth:`is_output_stable_configuration` provably
    #: returns ``False`` whenever the number of nodes outputting
    #: ``LEADER`` differs from one.  The replica-batched executor
    #: (:mod:`repro.runtime.execute`) then uses its exactly-maintained
    #: leader count to skip the Python certificate on configurations that
    #: cannot certify — an optimisation that never changes when
    #: certification fires.  Leave ``False`` unless the certificate
    #: carries an explicit unique-leader requirement.
    certificate_requires_unique_leader: bool = False

    @abc.abstractmethod
    def initial_state(self, input_symbol: Any = None) -> State:
        """State assigned to a node with the given input symbol."""

    @abc.abstractmethod
    def transition(self, initiator: State, responder: State) -> Tuple[State, State]:
        """Apply ``Ξ`` to the ordered (initiator, responder) state pair."""

    @abc.abstractmethod
    def output(self, state: State) -> Any:
        """Map a state to its output symbol."""

    # ------------------------------------------------------------------
    # Optional protocol metadata
    # ------------------------------------------------------------------
    def state_space_size(self) -> Optional[int]:
        """Number of distinct reachable states, if known.

        Returning ``None`` means "unbounded / not tracked"; the simulator
        then reports the number of *observed* distinct states instead.
        """
        return None

    def enumerate_states(self) -> Optional[Sequence[State]]:
        """All states of ``Λ``, if they can be enumerated cheaply.

        The compiled engine (:mod:`repro.engine`) gives the ``i``-th
        state code ``i`` and sizes its lookup tables once; a successor
        outside the enumeration is an error.  Returning ``None`` (the
        default) keeps the protocol off transition tables:
        ``engine="auto"`` runs it on its :meth:`kernel_rule`, where it
        has one, or on the reference interpreter, which suits protocols
        whose state *universe* is huge but whose reachable set is small
        (e.g. the identifier protocol's ``O(n^4)`` states).
        """
        return None

    def compile_key(self) -> Optional[Hashable]:
        """Identity of this protocol's transition function, for table reuse.

        Two instances with equal, non-``None`` keys must implement exactly
        the same transition, output and initialisation functions; the
        compiled engine then shares one set of lookup tables between them
        (e.g. across the repeated trials of a Monte-Carlo measurement).
        Returning ``None`` (the default) restricts table reuse to the
        instance itself.
        """
        return None

    def kernel_rule(self) -> Optional[Any]:
        """An arithmetic transition rule of the v6 epoch kernel, if any.

        A protocol whose states outnumber any transition table may
        compute ``Ξ`` in C on integer codes instead (the identifier
        protocol: :meth:`repro.protocols.identifier.IdentifierLeaderElection.kernel_rule`).
        The rule must reproduce :meth:`transition` and :meth:`output`
        exactly; ``engine="auto"`` then runs eligible plans on it
        (:func:`repro.runtime.compile_plan`).  ``None`` (the default)
        leaves the protocol to the transition tables.
        """
        return None

    def is_output_stable_configuration(self, states: Sequence[State], graph) -> bool:
        """Protocol-specific certificate that a configuration is stable.

        A return value of ``True`` must be *sound*: no sequence of further
        interactions may change any node's output.  Returning ``False``
        simply means the certificate cannot conclude stability.  The
        default implementation never certifies anything, so callers fall
        back to step budgets or the exhaustive reachability checker.
        """
        return False

    def describe(self) -> dict:
        """Metadata dictionary used by the experiment harness."""
        return {
            "name": self.name,
            "state_space_size": self.state_space_size(),
            "cacheable_transitions": self.cacheable_transitions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class LeaderElectionProtocol(PopulationProtocol[State]):
    """A population protocol whose outputs are ``LEADER`` / ``FOLLOWER``.

    Adds convenience helpers for counting and locating leaders.
    """

    def count_leaders(self, states: Sequence[State]) -> int:
        """Number of nodes currently outputting ``LEADER``."""
        return sum(1 for s in states if self.output(s) == LEADER)

    def leader_nodes(self, states: Sequence[State]) -> Tuple[int, ...]:
        """Indices of the nodes currently outputting ``LEADER``."""
        return tuple(i for i, s in enumerate(states) if self.output(s) == LEADER)
