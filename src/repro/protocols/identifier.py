"""The time-efficient identifier-based protocol of Theorem 21.

Every node generates a ``k``-bit identifier using the initiator/responder
coin implicit in the scheduler (rule 1), broadcasts the maximum generated
identifier (rule 2), and runs the 6-state token protocol *within the
instance labelled by that identifier* to break the (unlikely) ties
(rule 3).  With ``k = ⌈4 log n⌉`` the protocol uses ``O(n^4)`` states and
stabilizes in ``O(B(G) + n log n)`` expected steps; on regular graphs
``k = ⌈3 log n⌉`` suffices for ``O(n^3)`` states.

Faithfulness notes (see DESIGN.md):

* rules (1) and (2) are evaluated against the partner's *pre-interaction*
  identifier, which makes ``Ξ`` a pure function of the state pair as
  required by the model;
* rule (3) — the embedded token-protocol step — is applied only when both
  nodes belong to the same instance (equal identifiers ``>= 2^k``) after
  rules (1)–(2).  The paper describes instances as *labelled* by their
  identifier; gating the token step on the label is what keeps tokens from
  leaking between instances and preserves the "always exactly one black
  token per surviving instance" invariant that the correctness argument
  relies on.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.protocol import FOLLOWER, LEADER, LeaderElectionProtocol
from .tokens import (
    ALL_TOKEN_STATES,
    CANDIDATE,
    TokenState,
    count_tokens,
    token_initial_state,
    token_transition,
)

IdentifierState = Tuple[int, TokenState]

#: Sub-state code of each token state (its index in ``ALL_TOKEN_STATES``).
_SUB_CODES = {state: code for code, state in enumerate(ALL_TOKEN_STATES)}


def _token_rule_table() -> np.ndarray:
    """The token semantics of the kernel rule, as the C side reads them.

    ``[0, 64)``: ``token_transition`` on sub codes, entry
    ``sa << 3 | sb`` = ``nsa << 3 | nsb``; ``[64, 72)``: the leader flag
    per sub; ``72`` / ``73``: the subs of ``init(candidate)`` /
    ``init(follower)`` (``REPRO_ID_*`` in :mod:`repro.engine.native`).
    It depends on neither ``n`` nor ``k``, and the output (hence the
    kernel's output-change flag) is ``LEADER`` or ``FOLLOWER`` by the
    token state alone.
    """
    output = IdentifierLeaderElection(1).output
    table = np.zeros(74, dtype=np.int32)
    for sa, state_a in enumerate(ALL_TOKEN_STATES):
        for sb, state_b in enumerate(ALL_TOKEN_STATES):
            next_a, next_b = token_transition(state_a, state_b)
            table[(sa << 3) | sb] = (_SUB_CODES[next_a] << 3) | _SUB_CODES[next_b]
        table[64 + sa] = output((1, state_a)) == LEADER
    table[72] = _SUB_CODES[token_initial_state(True)]
    table[73] = _SUB_CODES[token_initial_state(False)]
    table.flags.writeable = False
    return table


class IdentifierKernelRule:
    """Theorem 21 as an arithmetic rule of the v6 epoch kernel.

    A state ``(id, token)`` is the ``int64`` code ``id << 3 | sub``, with
    ``sub`` the token state's index in ``ALL_TOKEN_STATES``; identifiers
    stay below ``2^(k+1)``, so codes fit while ``k + 4 <= 63``.  The
    kernel (``repro_identifier_pair``) applies rules (1)–(3) on the codes
    and reads the token step and leader flags from :attr:`table`.
    """

    def __init__(self, identifier_bits: int) -> None:
        from ..engine.native import RULE_IDENTIFIER

        self.rule_id = RULE_IDENTIFIER
        self.threshold = 1 << identifier_bits
        self.table = _token_rule_table()
        #: The v6 stack's uniform starts, per initial state
        #: (:func:`repro.runtime.execute._uniform_start`).
        self.starts: Dict[Any, Tuple[np.ndarray, int, np.ndarray]] = {}

    def encode(self, states: Iterable[IdentifierState]) -> np.ndarray:
        """The ``int64`` codes of a configuration."""
        states = list(states)
        sub_codes = _SUB_CODES
        return np.fromiter(
            ((identifier << 3) | sub_codes[sub] for identifier, sub in states),
            dtype=np.int64,
            count=len(states),
        )

    def decode_codes(self, codes: np.ndarray) -> List[IdentifierState]:
        """The configuration of a code row."""
        subs = ALL_TOKEN_STATES
        return [
            (identifier, subs[sub])
            for identifier, sub in zip((codes >> 3).tolist(), (codes & 7).tolist())
        ]

    def leader_count(self, codes: np.ndarray) -> int:
        """Number of codes whose output is ``LEADER``."""
        return int(self.table[64 + (codes & 7)].sum())


@functools.lru_cache(maxsize=None)
def _kernel_rule(identifier_bits: int) -> IdentifierKernelRule:
    """One rule per width, so its table is built once, not per plan."""
    return IdentifierKernelRule(identifier_bits)


def default_identifier_bits(n_nodes: int, regular: bool = False) -> int:
    """The identifier width ``k`` used by Theorem 21.

    ``k = ⌈4 log2 n⌉`` in general and ``⌈3 log2 n⌉`` on regular graphs,
    giving ``O(n^4)`` / ``O(n^3)`` states respectively.
    """
    if n_nodes < 1:
        raise ValueError("population size must be positive")
    factor = 3 if regular else 4
    return max(factor * int(math.ceil(math.log2(max(n_nodes, 2)))), 1)


class IdentifierLeaderElection(LeaderElectionProtocol):
    """Theorem 21's ``O(B(G) + n log n)``-step, polynomial-state protocol.

    Parameters
    ----------
    n_nodes:
        Population size (the protocol is non-uniform: ``k`` depends on it).
    identifier_bits:
        Overrides ``k``.  Benchmarks use smaller ``k`` for ablations; the
        protocol remains always-correct for any ``k >= 1`` because of the
        embedded token protocol.
    regular:
        Use the regular-graph parameterisation ``k = ⌈3 log n⌉``.
    """

    name = "identifier-broadcast"

    # The certificate requires exactly one candidate sub-state, and a node
    # outputs LEADER iff its sub-state is the candidate.
    certificate_requires_unique_leader = True

    def __init__(
        self,
        n_nodes: int,
        identifier_bits: Optional[int] = None,
        regular: bool = False,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("population size must be positive")
        if identifier_bits is None:
            identifier_bits = default_identifier_bits(n_nodes, regular=regular)
        if identifier_bits < 1:
            raise ValueError("identifier_bits must be at least 1")
        self.n_nodes = int(n_nodes)
        self.identifier_bits = int(identifier_bits)
        self.generation_threshold = 1 << self.identifier_bits

    def initial_state(self, input_symbol: Any = None) -> IdentifierState:
        return (1, token_initial_state(False))

    def transition(
        self, initiator: IdentifierState, responder: IdentifierState
    ) -> Tuple[IdentifierState, IdentifierState]:
        threshold = self.generation_threshold
        pre_ids = (initiator[0], responder[0])
        states = [initiator, responder]
        new_ids = [initiator[0], responder[0]]
        new_subs = [initiator[1], responder[1]]
        for i in (0, 1):
            own_id, own_sub = states[i]
            partner_id = pre_ids[1 - i]
            # Rule (1): extend the identifier with the role bit.
            if own_id < threshold:
                own_id = 2 * own_id + i
                if own_id >= threshold:
                    own_sub = token_initial_state(True)
            # Rule (2): adopt a larger, fully generated identifier.
            if own_id < partner_id and partner_id >= threshold:
                own_id = partner_id
                own_sub = token_initial_state(False)
            new_ids[i] = own_id
            new_subs[i] = own_sub
        # Rule (3): run the token protocol within a common instance.
        if new_ids[0] == new_ids[1] and new_ids[0] >= threshold:
            new_subs[0], new_subs[1] = token_transition(new_subs[0], new_subs[1])
        return (new_ids[0], new_subs[0]), (new_ids[1], new_subs[1])

    def output(self, state: IdentifierState) -> str:
        return LEADER if state[1][0] == CANDIDATE else FOLLOWER

    def state_space_size(self) -> Optional[int]:
        # Identifiers take values in {1, ..., 2^{k+1} - 1}; each pairs with
        # one of the 6 token states.
        return (2 ** (self.identifier_bits + 1) - 1) * len(ALL_TOKEN_STATES)

    def kernel_rule(self) -> Optional[IdentifierKernelRule]:
        """The v6 kernel's arithmetic Theorem-21 rule, while codes fit.

        ``engine="auto"`` runs this protocol on it (no transition
        tables) wherever the v6 stack serves the plan; ``None`` when
        ``k + 4 > 63``, where ``id << 3 | sub`` overflows ``int64``
        (``n > 16,384`` at ``k = 4⌈log₂ n⌉``).
        """
        if self.identifier_bits + 4 > 63:
            return None
        return _kernel_rule(self.identifier_bits)

    def enumerate_states(self) -> Optional[Sequence[IdentifierState]]:
        """Full enumeration only for small ``k``.

        This matters only to the transition tables, which serve the
        protocol where the v6 stack cannot take its plan (a stream
        override, a leader trace, a Generator seed, no kernel) and it
        enumerates its states (``k <= 7``, at most 1,530 states).  From
        ``k = 8`` (``n = 3`` or ``4`` at the width ``⌈4 log2 n⌉``) the
        ``O(n^4)`` universe is not enumerated, since a run touches a few
        hundred of its states, and ``engine="auto"`` runs the protocol
        on :meth:`kernel_rule` or, where the rule cannot serve, on the
        reference interpreter.
        """
        size = self.state_space_size()
        if size is None or size > 2048:
            return None
        return [
            (identifier, token)
            for identifier in range(1, self.generation_threshold * 2)
            for token in ALL_TOKEN_STATES
        ]

    def compile_key(self) -> Tuple[str, int]:
        # The transition depends only on the generation threshold 2^k.
        return ("identifier-broadcast", self.identifier_bits)

    def is_output_stable_configuration(self, states: Sequence[IdentifierState], graph) -> bool:
        threshold = self.generation_threshold
        first_id = states[0][0]
        if first_id < threshold:
            return False
        for identifier, _sub in states:
            if identifier != first_id:
                return False
        candidates, blacks, whites = count_tokens([sub for _id, sub in states])
        return candidates == 1 and blacks == 1 and whites == 0

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "identifier_bits": self.identifier_bits,
                "generation_threshold": self.generation_threshold,
            }
        )
        return info
