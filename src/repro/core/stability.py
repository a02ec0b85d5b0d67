"""Exact stability checking by exhaustive reachability (small instances).

A configuration ``x`` is *stable* when every configuration reachable from
``x`` assigns every node the same output as ``x`` does (Section 2.2).  For
small graphs and protocols with finitely many reachable states, every
question here is answered from one breadth-first exploration of the
configuration graph: its nodes are the configurations reachable from a
start, its edges the ``2m`` ordered interactions that change one.

* :func:`reachable_configurations` is the exploration's order;
* :func:`check_stability_by_reachability` is the exploration stopped at
  the first new configuration whose outputs differ from the start's;
* :func:`always_reaches_single_leader` and :func:`audit_certificates`
  take two backward closures over the explored edges, as explicit-state
  model checkers do: a configuration is *unstable* when it can reach an
  interaction that changes the output vector, and *live* when it can
  reach a stable configuration with exactly one leader.

This is exponential and only used in tests and the certificate audit.
There it proves, on every reachable configuration of small graphs, the
per-protocol stability certificates (``is_output_stable_configuration``)
that the simulator evaluates on large instances, and the one-leader
precheck behind which the v6 stack skips them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from .protocol import LEADER, PopulationProtocol
from .scheduler import all_ordered_pairs

_Config = Tuple[Hashable, ...]


class StateSpaceTooLarge(RuntimeError):
    """Raised when the reachability search exceeds its configuration budget."""


@dataclass(frozen=True)
class StabilityVerdict:
    """Result of an exhaustive stability check.

    Attributes
    ----------
    stable:
        Whether every reachable configuration preserves all outputs.
    correct:
        Whether the starting configuration has exactly one leader.
    explored:
        Number of distinct configurations visited.
    counterexample:
        A reachable configuration whose outputs differ (``None`` when
        stable).
    """

    stable: bool
    correct: bool
    explored: int
    counterexample: Optional[Tuple[Hashable, ...]]


@dataclass(frozen=True)
class CertificateAudit:
    """Counts of one exhaustive certificate audit (:func:`audit_certificates`).

    Attributes
    ----------
    reachable:
        Configurations reachable from the start.
    certified:
        Those the protocol's certificate accepts.
    unsound:
        Certified configurations that are not stable: some configuration
        reachable from them changes an output.
    certified_without_one_leader:
        Certified configurations whose leader count differs from one: the
        one-leader precheck would skip their certificate call.
    not_live:
        Reachable configurations that cannot reach a stable configuration
        with exactly one leader.
    """

    reachable: int
    certified: int
    unsound: int
    certified_without_one_leader: int
    not_live: int


def _configuration(states: Sequence[Hashable], graph: Graph) -> _Config:
    configuration = tuple(states)
    if len(configuration) != graph.n_nodes:
        raise ValueError("configuration size does not match the graph")
    return configuration


def _explore(
    protocol: PopulationProtocol,
    states: Sequence[Hashable],
    graph: Graph,
    max_configurations: int,
    stop: Optional[Callable[[_Config], bool]] = None,
) -> Tuple[List[_Config], List[List[int]], Optional[_Config]]:
    """Breadth-first exploration of the configurations reachable from ``states``.

    Returns ``(order, predecessors, stopped)``: the configurations in BFS
    order, per configuration the indices of those with an ordered
    interaction leading to it (one entry per interaction), and the first
    new configuration that ``stop`` accepted (``None`` when it accepted
    none; the edges are then complete).  A protocol with
    ``cacheable_transitions`` has its transition computed once per
    ordered state pair, as in the reference interpreter.
    """
    start = _configuration(states, graph)
    pairs = all_ordered_pairs(graph)
    index = {start: 0}
    order = [start]
    predecessors: List[List[int]] = [[]]
    transition = protocol.transition
    memo: Optional[Dict[Tuple[Hashable, Hashable], Tuple[Hashable, Hashable]]] = (
        {} if protocol.cacheable_transitions else None
    )
    for i, current in enumerate(order):  # appending while iterating: a BFS queue
        for initiator, responder in pairs:
            a, b = current[initiator], current[responder]
            if memo is None:
                new_a, new_b = transition(a, b)
            else:
                step = memo.get((a, b))
                if step is None:
                    step = memo[a, b] = transition(a, b)
                new_a, new_b = step
            if new_a == a and new_b == b:
                continue
            nxt = list(current)
            nxt[initiator] = new_a
            nxt[responder] = new_b
            nxt_tuple = tuple(nxt)
            j = index.get(nxt_tuple)
            if j is None:
                if stop is not None and stop(nxt_tuple):
                    return order, predecessors, nxt_tuple
                if len(order) >= max_configurations:
                    raise StateSpaceTooLarge(
                        f"more than {max_configurations} configurations reachable"
                    )
                j = index[nxt_tuple] = len(order)
                order.append(nxt_tuple)
                predecessors.append([])
            predecessors[j].append(i)
    return order, predecessors, None


def _backward_closure(predecessors: List[List[int]], seeds: List[int]) -> List[bool]:
    """Per configuration, whether it can reach a seed (seeds included)."""
    marked = [False] * len(predecessors)
    for seed in seeds:
        marked[seed] = True
    stack = list(seeds)
    while stack:
        for i in predecessors[stack.pop()]:
            if not marked[i]:
                marked[i] = True
                stack.append(i)
    return marked


def _closures(
    protocol: PopulationProtocol,
    graph: Graph,
    inputs: Optional[Sequence[Hashable]],
    max_configurations: int,
) -> Tuple[List[_Config], List[int], List[bool], List[bool]]:
    """``(order, leaders, unstable, live)`` of the exploration from the
    initial configuration (of ``inputs``, or all ``initial_state(None)``)."""
    if inputs is None:
        start = [protocol.initial_state(None)] * graph.n_nodes
    else:
        start = [protocol.initial_state(x) for x in inputs]
    order, predecessors, _ = _explore(protocol, start, graph, max_configurations)
    outputs = [tuple(map(protocol.output, config)) for config in order]
    leaders = [output.count(LEADER) for output in outputs]
    unstable = _backward_closure(
        predecessors,
        [i for j, sources in enumerate(predecessors) for i in sources if outputs[i] != outputs[j]],
    )
    live = _backward_closure(
        predecessors, [i for i, count in enumerate(leaders) if count == 1 and not unstable[i]]
    )
    return order, leaders, unstable, live


def check_stability_by_reachability(
    protocol: PopulationProtocol,
    states: Sequence[Hashable],
    graph: Graph,
    max_configurations: int = 200_000,
) -> StabilityVerdict:
    """Exhaustively decide whether ``states`` is a stable configuration.

    Raises :class:`StateSpaceTooLarge` if more than ``max_configurations``
    distinct configurations are reachable.
    """
    start = tuple(states)
    target_outputs = tuple(map(protocol.output, start))
    order, _, counterexample = _explore(
        protocol,
        start,
        graph,
        max_configurations,
        stop=lambda config: tuple(map(protocol.output, config)) != target_outputs,
    )
    return StabilityVerdict(
        stable=counterexample is None,
        correct=target_outputs.count(LEADER) == 1,
        explored=len(order),
        counterexample=counterexample,
    )


def reachable_configurations(
    protocol: PopulationProtocol,
    states: Sequence[Hashable],
    graph: Graph,
    max_configurations: int = 200_000,
) -> List[Tuple[Hashable, ...]]:
    """All configurations reachable from ``states`` (small instances only)."""
    return _explore(protocol, states, graph, max_configurations)[0]


def certificate_is_sound_on(
    protocol: PopulationProtocol,
    states: Sequence[Hashable],
    graph: Graph,
    max_configurations: int = 200_000,
) -> bool:
    """Check that a certified-stable configuration really is stable.

    Used by tests: whenever ``protocol.is_output_stable_configuration``
    returns ``True`` for a configuration, the exhaustive check must agree.
    Returns ``True`` when either the certificate does not fire or the
    exhaustive check confirms stability and correctness.
    """
    states = _configuration(states, graph)
    if not protocol.is_output_stable_configuration(list(states), graph):
        return True
    verdict = check_stability_by_reachability(
        protocol, states, graph, max_configurations=max_configurations
    )
    return verdict.stable and verdict.correct


def always_reaches_single_leader(
    protocol: PopulationProtocol,
    graph: Graph,
    inputs: Optional[Sequence[Hashable]] = None,
    max_configurations: int = 200_000,
) -> bool:
    """Whether every reachable configuration can still reach a correct stable one.

    This is the "stabilizes with probability 1" property: under the uniform
    random scheduler, a protocol stabilizes almost surely if and only if
    from every reachable configuration some correct, stable configuration
    remains reachable (the stochastic scheduler realises every finite
    schedule with positive probability).  Exponential; tests only.
    """
    return all(_closures(protocol, graph, inputs, max_configurations)[3])


def audit_certificates(
    protocol: PopulationProtocol,
    graph: Graph,
    max_configurations: int = 200_000,
) -> CertificateAudit:
    """Check the protocol's certificate on every reachable configuration.

    Explores from the all-initial configuration (``initial_state(None)``
    on every node) and evaluates the certificate once per reachable
    configuration.  ``unsound == 0`` and ``certified_without_one_leader
    == 0`` together prove that a certificate implies stability with
    exactly one leader; the second alone that the one-leader precheck
    never skips a certificate that would fire.  Exponential; tests and
    the certificate-audit script only.
    """
    order, leaders, unstable, live = _closures(protocol, graph, None, max_configurations)
    certified = [
        i
        for i, config in enumerate(order)
        if protocol.is_output_stable_configuration(list(config), graph)
    ]
    return CertificateAudit(
        reachable=len(order),
        certified=len(certified),
        unsound=sum(1 for i in certified if unstable[i]),
        certified_without_one_leader=sum(1 for i in certified if leaders[i] != 1),
        not_live=live.count(False),
    )
