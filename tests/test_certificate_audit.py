"""Certificates proven by exhaustion on every reachable configuration.

The v6 stack calls a protocol's certificate (``is_output_stable_configuration``)
only where the kernel's leader count is one — and, on the identifier
rule, where every node holds one identifier ``>= 2^k``.  These tests run
:func:`~repro.core.audit_certificates` over the connected graphs of the
networkx atlas and prove, on every configuration reachable from the
all-initial start, that

1. a certificate implies stability (``unsound == 0``) with exactly one
   leader (``certified_without_one_leader == 0``);
2. a certificate implies the precheck passes (one leader and, on the
   identifier rule, one identifier ``>= 2^k``), so every skipped
   certificate call would have returned ``False``;
3. every reachable configuration can still reach a stable one-leader
   configuration where the paper claims it: token, identifier and fast
   on every graph, star on stars.

The pinned totals are the counts of one exploration per graph; the last
tests show that the audit reports a broken certificate and a protocol
that is not live, so zeros above are evidence and not a default.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import sys

import pytest

from repro.core import (
    CertificateAudit,
    always_reaches_single_leader,
    audit_certificates,
    certificate_is_sound_on,
    check_stability_by_reachability,
    reachable_configurations,
)
from repro.graphs import Graph, cycle, path
from repro.protocols import (
    FastLeaderElection,
    IdentifierLeaderElection,
    StarLeaderElection,
    TokenLeaderElection,
)
from repro.protocols.star import LEADER_DONE
from repro.protocols.tokens import BLACK, CANDIDATE, FOLLOWER_ROLE, NO_TOKEN, WHITE

# The CI audit script holds the atlas enumeration and the agreement check.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts"))
from ci_certificate_audit import AgreementCheckingIdentifier, connected_atlas  # noqa: E402


@pytest.fixture(scope="module")
def atlas():
    """The connected atlas graphs on 2 to 5 nodes (30 graphs)."""
    return connected_atlas(2, 5)


def _is_star(graph: Graph) -> bool:
    return graph.n_edges == graph.n_nodes - 1 and graph.max_degree == graph.n_nodes - 1


def _totals(audits):
    """Column sums: (reachable, certified, unsound, without one leader, not live)."""
    return tuple(map(sum, zip(*map(dataclasses.astuple, audits))))


def test_every_bundled_protocol_declares_the_one_leader_precheck():
    for protocol_class in (
        TokenLeaderElection,
        StarLeaderElection,
        IdentifierLeaderElection,
        FastLeaderElection,
    ):
        assert protocol_class.certificate_requires_unique_leader


def test_token_certificate_proven_on_every_graph_up_to_five_nodes(atlas):
    audits = [audit_certificates(TokenLeaderElection(), graph) for graph in atlas]
    assert len(atlas) == 30
    assert _totals(audits) == (12118, 643, 0, 0, 0)


def test_star_certificate_proven_and_live_on_every_star(atlas):
    audits = [audit_certificates(StarLeaderElection(), graph) for graph in atlas]
    assert _totals(audits) == (1931, 762, 0, 0, 590)
    stars = [audit for audit, graph in zip(audits, atlas) if _is_star(graph)]
    assert len(stars) == 4
    assert sum(audit.not_live for audit in stars) == 0


def test_identifier_certificate_proven_on_every_graph_up_to_four_nodes(atlas):
    audits = []
    disagreeing = 0
    for graph in atlas[:9]:
        protocol = AgreementCheckingIdentifier(graph.n_nodes, identifier_bits=2)
        audits.append(audit_certificates(protocol, graph))
        disagreeing += protocol.disagreeing
    assert max(graph.n_nodes for graph in atlas[:9]) == 4
    assert _totals(audits) == (36557, 236, 0, 0, 0)
    assert disagreeing == 0


def test_fast_certificate_proven_on_every_graph_up_to_three_nodes(atlas):
    audits = [
        audit_certificates(FastLeaderElection.practical_for_graph(graph, graph.n_nodes), graph)
        for graph in atlas[:3]
    ]
    assert _totals(audits) == (4352, 1374, 0, 0, 0)


class _OneLeaderDone(StarLeaderElection):
    """Drops the no-fresh-edge condition: fires on unstable configurations."""

    def is_output_stable_configuration(self, states, graph) -> bool:
        return list(states).count(LEADER_DONE) == 1


class _AnyLeaderDone(StarLeaderElection):
    """Also drops uniqueness: fires on stable two-leader configurations too."""

    def is_output_stable_configuration(self, states, graph) -> bool:
        return LEADER_DONE in states


def test_audit_reports_a_broken_certificate():
    graph = path(4)
    # Four certified configurations still hold a fresh-fresh edge.
    assert audit_certificates(_OneLeaderDone(), graph) == CertificateAudit(
        reachable=21, certified=16, unsound=4, certified_without_one_leader=0, not_live=4
    )
    # Four more are stable but hold two leaders.
    assert audit_certificates(_AnyLeaderDone(), graph) == CertificateAudit(
        reachable=21, certified=20, unsound=4, certified_without_one_leader=4, not_live=4
    )


def test_audit_reports_a_protocol_that_is_not_live():
    audit = audit_certificates(StarLeaderElection(), path(4))
    assert audit.not_live > 0
    assert audit.unsound == 0


def test_verdicts_pin_explored_and_counterexample():
    token = TokenLeaderElection()
    follower = (FOLLOWER_ROLE, NO_TOKEN)
    leader = (CANDIDATE, BLACK)
    verdict = check_stability_by_reachability(token, [leader] + [follower] * 3, cycle(4))
    assert (verdict.stable, verdict.explored, verdict.counterexample) == (True, 4, None)
    verdict = check_stability_by_reachability(
        token, [leader, (CANDIDATE, WHITE), follower], path(3)
    )
    assert (verdict.stable, verdict.explored) == (False, 1)
    assert verdict.counterexample == (follower, leader, follower)
    identifier = IdentifierLeaderElection(3, identifier_bits=2)
    verdict = check_stability_by_reachability(
        identifier, [identifier.initial_state(None)] * 3, path(3)
    )
    assert (verdict.stable, verdict.explored) == (False, 5)
    assert verdict.counterexample == ((4, leader), (7, leader), (1, follower))


class _CountingToken(TokenLeaderElection):
    """Counts its transition calls per ordered state pair."""

    def __init__(self) -> None:
        self.calls = collections.Counter()

    def transition(self, initiator, responder):
        self.calls[initiator, responder] += 1
        return super().transition(initiator, responder)


class _UncachedCountingToken(_CountingToken):
    cacheable_transitions = False


def test_exploration_computes_each_state_pair_once_when_cacheable():
    orders = []
    for protocol in (_CountingToken(), _UncachedCountingToken()):
        orders.append(
            reachable_configurations(protocol, [protocol.initial_state(None)] * 4, cycle(4))
        )
        once_per_pair = max(protocol.calls.values()) == 1
        assert once_per_pair == protocol.cacheable_transitions
    assert orders[0] == orders[1]


@pytest.mark.parametrize(
    "check",
    [
        lambda protocol, states, graph: reachable_configurations(protocol, states, graph),
        lambda protocol, states, graph: certificate_is_sound_on(protocol, states, graph),
        lambda protocol, states, graph: always_reaches_single_leader(
            protocol, graph, inputs=[None] * len(states)
        ),
    ],
    ids=["reachable", "sound", "always"],
)
@pytest.mark.parametrize("size", [2, 5])
def test_configurations_of_the_wrong_length_raise(check, size):
    protocol = TokenLeaderElection()
    with pytest.raises(ValueError, match="configuration size"):
        check(protocol, [protocol.initial_state(None)] * size, path(3))
