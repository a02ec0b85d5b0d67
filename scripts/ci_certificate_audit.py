"""Certificate audit: each bundled certificate checked on every reachable configuration.

Runs :func:`repro.core.audit_certificates` on the rows too large for
tier-1 (``tests/test_certificate_audit.py`` holds the small ones) and
prints one counts table:

* fast (``tau = 0.5``, ``h_offset = 1``, ``alpha = 3``, ``B(G) = n``) on
  the 9 connected graphs with 2-4 nodes;
* identifier (``k = 2``) on the 21 connected graphs with 5 nodes.

The graphs are the connected graphs of the networkx atlas.  The script
fails when a row holds an unsound certificate, a certified configuration
that the v6 stack's precheck would skip (a leader count other than one
or, for the identifier rule, identifiers that are not one value
``>= 2^k``), or a reachable configuration that can no longer reach a
stable one-leader configuration, and when a row certifies nothing.

Usage::

    PYTHONPATH=src python scripts/ci_certificate_audit.py
"""

from __future__ import annotations

import dataclasses
import resource
import sys
import time
from typing import Callable, List

import networkx as nx

from repro.core import audit_certificates
from repro.graphs import Graph
from repro.protocols import FastLeaderElection, IdentifierLeaderElection

#: Above the 316,211 configurations of the largest 5-node identifier row.
MAX_CONFIGURATIONS = 400_000


class AgreementCheckingIdentifier(IdentifierLeaderElection):
    """Counts certified configurations whose nodes do not all hold one
    identifier ``>= 2^k`` (the kernel's ``repro_identifier_agreed``)."""

    disagreeing = 0

    def is_output_stable_configuration(self, states, graph) -> bool:
        fired = super().is_output_stable_configuration(states, graph)
        identifiers = {identifier for identifier, _ in states}
        if fired and (len(identifiers) != 1 or min(identifiers) < self.generation_threshold):
            self.disagreeing += 1
        return fired


def connected_atlas(low: int, high: int) -> List[Graph]:
    """The connected atlas graphs with ``low`` to ``high`` nodes."""
    return [
        Graph.from_networkx(nx_graph, name=f"atlas-{index}")
        for index, nx_graph in enumerate(nx.graph_atlas_g())
        if low <= nx_graph.number_of_nodes() <= high and nx.is_connected(nx_graph)
    ]


ROWS = (
    (
        "fast (tau 0.5, h 1, alpha 3, B = n)",
        lambda graph: FastLeaderElection.practical_for_graph(graph, graph.n_nodes),
        (2, 4),
    ),
    (
        "identifier (k = 2)",
        lambda graph: AgreementCheckingIdentifier(graph.n_nodes, identifier_bits=2),
        (5, 5),
    ),
)

COLUMNS = (
    "reachable",
    "certified",
    "unsound",
    "certified_without_one_leader",
    "disagreeing",
    "not_live",
)


def audit_row(make: Callable[[Graph], object], graphs: List[Graph]) -> dict:
    totals = dict.fromkeys(COLUMNS, 0)
    for graph in graphs:
        protocol = make(graph)
        audit = audit_certificates(protocol, graph, max_configurations=MAX_CONFIGURATIONS)
        counts = dataclasses.asdict(audit)
        counts["disagreeing"] = getattr(protocol, "disagreeing", 0)
        for column in COLUMNS:
            totals[column] += counts[column]
    return totals


def main() -> int:
    header = ("protocol", "graphs") + COLUMNS + ("time", "peak RSS")
    print(" | ".join(header))
    failed = False
    for label, make, (low, high) in ROWS:
        graphs = connected_atlas(low, high)
        start = time.perf_counter()
        totals = audit_row(make, graphs)
        seconds = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cells = [label, str(len(graphs))] + [f"{totals[c]:,}" for c in COLUMNS]
        print(" | ".join(cells + [f"{seconds:.1f} s", f"{peak_mb:.0f} MB"]), flush=True)
        # A row that certifies nothing would pass vacuously.
        failed |= totals["certified"] == 0 or any(totals[c] for c in COLUMNS[2:])
    if failed:
        print(
            "certificate audit FAILED: a certificate, the precheck or liveness "
            "does not hold, or a row certified nothing"
        )
        return 1
    print("certificate audit passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
