"""The directed ordered-pair index space (Section 2.2's ``2m`` pairs).

Every sampler and kernel in this package works over the same encoding of
a graph's ordered interaction pairs: index ``r < m`` is edge ``r`` in its
stored orientation ``(u_r, v_r)``, index ``r >= m`` is the reverse
``(v_{r-m}, u_{r-m})``.  A uniform draw over ``[0, 2m)`` is therefore
exactly the population-model scheduler's ordered-pair distribution.

This module is the single home of that encoding.  It provides

* :func:`directed_tables` — the two parallel endpoint tables
  ``(initiators, responders)`` of length ``2m``, views of the graph's
  own ``int32`` endpoint buffer ``[u | v | u]`` (the analytics engine's
  C kernels and the multi-replica protocol kernel decode raw indices
  through them);
* :func:`encode_oriented` — how the population scheduler's two-call draw
  (uniform edge index, then uniform orientation) maps into the index
  space, preserving the historical decode ``initiator = u if oriented
  else v`` bit for bit;
* :func:`decode_pairs` — index arrays back to endpoint arrays.

Everything here is pure array arithmetic; the seeded RNG calls stay in
:mod:`repro.runtime.source`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graphs.graph import Graph


def directed_pair_count(graph: Graph) -> int:
    """Size ``2m`` of the graph's directed ordered-pair index space."""
    return 2 * graph.n_edges


def directed_tables(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """The ``2m`` ordered scheduler pairs as two parallel endpoint tables.

    Index ``r < m`` is edge ``r`` in stored orientation, ``r >= m`` the
    reverse — so a uniform draw over ``[0, 2m)`` is exactly the
    population-model scheduler's ordered-pair distribution (Section 2.2).

    The tables are ``concat(u, v)`` and ``concat(v, u)`` without a copy:
    the first and last ``2m`` words of the graph's endpoint buffer
    ``[u | v | u]``, so they live exactly as long as the graph and hold
    its ``int32`` node ids (the pair indices into them are ``int64``).
    They are the graph's own storage, handed out writable so the
    kernels' address lookup stays on its fast path: never write them.
    """
    m = graph.n_edges
    if m == 0:
        raise ValueError("cannot schedule interactions on an edgeless graph")
    endpoints = graph._endpoints
    return endpoints[: 2 * m], endpoints[m:]


def encode_oriented(
    edge_indices: np.ndarray, orientations: np.ndarray, n_edges: int
) -> np.ndarray:
    """Map the scheduler's ``(edge, orientation)`` draw into pair indices.

    The population scheduler historically decoded ``orientation == 1`` as
    "edge in stored orientation" (initiator ``u``, responder ``v``) and
    ``orientation == 0`` as the reverse.  Under :func:`directed_tables`
    that is index ``edge`` respectively ``edge + m``::

        index = edge + (1 - orientation) * m

    so decoding the returned indices reproduces the historical
    ``np.where(orientation, u, v)`` endpoints exactly.  The result is
    a fresh array; neither input is modified, so callers may keep using
    their edge/orientation draws after encoding.
    """
    reversed_mask = np.subtract(1, orientations)
    reversed_mask *= n_edges
    return np.add(edge_indices, reversed_mask)


def decode_pairs(
    indices: np.ndarray, initiators: np.ndarray, responders: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode pair indices through the directed endpoint tables (node ids
    come out in the tables' ``int32``)."""
    return initiators.take(indices), responders.take(indices)
