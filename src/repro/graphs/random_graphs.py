"""Random graph models used by the paper's average-case results.

Section 7 and the "dense random" rows of Table 1 work with Erdős–Rényi
graphs ``G(n, p)`` for constant ``p``, conditioned on connectivity.  The
regular-graph rows additionally use random regular graphs.  All generators
take an explicit :class:`numpy.random.Generator` (or a seed) so experiments
are reproducible.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from .graph import NODE_DTYPE, Edge, Graph, GraphError

RngLike = Union[int, np.random.Generator, None]


def as_rng(rng: RngLike) -> np.random.Generator:
    """Coerce a seed / generator / ``None`` into a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def erdos_renyi(
    n: int,
    p: float,
    rng: RngLike = None,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> Graph:
    """Sample ``G ~ G(n, p)``, optionally conditioned on being connected.

    The paper's dense-random-graph results assume constant ``p > 0`` and
    condition on connectivity (Theorem 46, Lemma 48).  For constant ``p``
    the graph is connected with probability ``1 - o(1)``, so rejection
    sampling terminates quickly; ``max_attempts`` guards against
    pathological parameters (e.g. ``p`` near zero).
    """
    if n < 1:
        raise GraphError("erdos_renyi requires n >= 1")
    if not (0.0 <= p <= 1.0):
        raise GraphError("edge probability must lie in [0, 1]")
    generator = as_rng(rng)
    for _ in range(max_attempts):
        edges = _sample_gnp_edges(n, p, generator)
        graph = Graph(n, edges, name=f"gnp-{n}-{p:g}", check_connected=False)
        if not require_connected or graph.is_connected():
            return graph
    raise GraphError(
        f"failed to sample a connected G({n}, {p}) in {max_attempts} attempts"
    )


def _sample_gnp_edges(n: int, p: float, generator: np.random.Generator) -> List[Edge]:
    if n < 2 or p <= 0.0:
        return []
    upper_u, upper_v = np.triu_indices(n, k=1)
    mask = generator.random(upper_u.shape[0]) < p
    return list(zip(upper_u[mask].tolist(), upper_v[mask].tolist()))


def random_regular(
    n: int,
    degree: int,
    rng: RngLike = None,
    max_attempts: int = 500,
) -> Graph:
    """Sample a random ``degree``-regular simple connected graph.

    Uses the configuration model (pairing of half-edges) with rejection of
    self-loops, multi-edges and disconnected outcomes.  For constant degree
    ``>= 3`` the acceptance probability is bounded away from zero, so this
    is fast in practice; random regular graphs of degree ``>= 3`` are
    expanders w.h.p., making them the natural "high-conductance regular"
    workload for Table 1.
    """
    if n < 2:
        raise GraphError("random_regular requires n >= 2")
    if degree < 1 or degree >= n:
        raise GraphError("degree must satisfy 1 <= degree < n")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even for a regular graph to exist")
    generator = as_rng(rng)
    for _ in range(max_attempts):
        edges = _configuration_model_attempt(n, degree, generator)
        if edges is None:
            continue
        graph = Graph(n, edges, name=f"random-regular-{n}-{degree}", check_connected=False)
        if graph.is_connected():
            return graph
    raise GraphError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )


def _configuration_model_attempt(
    n: int, degree: int, generator: np.random.Generator
) -> Optional[List[Edge]]:
    stubs = np.repeat(np.arange(n, dtype=NODE_DTYPE), degree)
    generator.shuffle(stubs)
    seen = set()
    edges: List[Edge] = []
    for i in range(0, stubs.shape[0], 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v:
            return None
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return None
        seen.add(key)
        edges.append(key)
    return edges


def random_geometric(
    n: int,
    radius: float,
    rng: RngLike = None,
    max_attempts: int = 200,
) -> Graph:
    """Random geometric graph on the unit square (spatial sensor networks).

    Not used by the paper's theorems, but a natural "spatially structured"
    workload for the example applications: population protocols were
    originally motivated by passively mobile sensor networks.
    """
    if n < 1:
        raise GraphError("random_geometric requires n >= 1")
    if radius <= 0:
        raise GraphError("radius must be positive")
    generator = as_rng(rng)
    for _ in range(max_attempts):
        points = generator.random((n, 2))
        deltas = points[:, None, :] - points[None, :, :]
        dist2 = np.sum(deltas * deltas, axis=-1)
        close = dist2 <= radius * radius
        upper_u, upper_v = np.triu_indices(n, k=1)
        mask = close[upper_u, upper_v]
        edges = list(zip(upper_u[mask].tolist(), upper_v[mask].tolist()))
        graph = Graph(n, edges, name=f"geometric-{n}-{radius:g}", check_connected=False)
        if graph.is_connected():
            return graph
    raise GraphError(
        f"failed to sample a connected geometric graph with n={n}, radius={radius}"
    )


def preferential_attachment(
    n: int,
    attachments: int = 2,
    rng: RngLike = None,
) -> Graph:
    """Barabási–Albert preferential-attachment graph on ``n`` nodes.

    Starts from a clique on ``attachments + 1`` nodes; every later node
    attaches to ``attachments`` distinct existing nodes sampled with
    probability proportional to their current degree (implemented with the
    standard repeated-endpoints trick: sampling a uniform element of the
    edge-endpoint list is exactly degree-proportional sampling).  The
    result is connected by construction and heavy-tailed: a few hubs of
    high degree — the "scale-free" regime between the star and the dense
    random rows of Table 1.
    """
    if n < 2:
        raise GraphError("preferential_attachment requires n >= 2")
    if attachments < 1:
        raise GraphError("attachments must be positive")
    core = min(attachments + 1, n)
    generator = as_rng(rng)
    edges: List[Edge] = [(u, v) for u in range(core) for v in range(u + 1, core)]
    # Flat list of edge endpoints; uniform choice = degree-proportional.
    endpoints: List[int] = [node for edge in edges for node in edge]
    for new_node in range(core, n):
        targets: set = set()
        want = min(attachments, new_node)
        while len(targets) < want:
            targets.add(endpoints[int(generator.integers(0, len(endpoints)))])
        for target in sorted(targets):
            edges.append((target, new_node))
            endpoints.append(target)
            endpoints.append(new_node)
    return Graph(n, edges, name=f"pref-attach-{n}-{attachments}")


def connected_gnp_threshold(n: int) -> float:
    """The connectivity threshold ``ln(n) / n`` for ``G(n, p)``.

    Useful when choosing the smallest ``p`` for which conditioning on
    connectivity is cheap.
    """
    if n < 2:
        return 1.0
    return float(np.log(n) / n)
