"""Deterministic graph families used throughout the paper.

Table 1 evaluates leader election on cliques, stars, regular graphs (cycles,
tori, hypercubes, random regular graphs) and dense random graphs; Section 6
additionally uses paths, lollipops and barbells as building blocks for the
renitent constructions.  Every constructor returns a :class:`~repro.graphs.graph.Graph`
with a descriptive name so the experiment harness can label result rows.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

import numpy as np

from .graph import NODE_DTYPE, Edge, Graph, GraphError


def clique(n: int) -> Graph:
    """Complete graph ``K_n`` — the classic population-protocol setting."""
    if n < 1:
        raise GraphError("clique requires n >= 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, name=f"clique-{n}")


def cycle(n: int) -> Graph:
    """Cycle ``C_n``; the canonical low-conductance regular graph."""
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, name=f"cycle-{n}")


def path(n: int) -> Graph:
    """Path ``P_n`` on ``n`` nodes."""
    if n < 1:
        raise GraphError("path requires n >= 1")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, name=f"path-{n}")


def star(n: int) -> Graph:
    """Star graph: node 0 is the centre, nodes ``1..n-1`` are leaves.

    The paper uses stars to show that leader election can be ``O(1)`` even
    though broadcast takes ``Θ(n log n)`` steps (Section 6.3).
    """
    if n < 2:
        raise GraphError("star requires n >= 2")
    edges = [(0, i) for i in range(1, n)]
    return Graph(n, edges, name=f"star-{n}")


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph ``K_{a,b}``."""
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph requires both sides non-empty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, name=f"complete-bipartite-{a}-{b}")


def torus(rows: int, cols: int) -> Graph:
    """2-dimensional toroidal grid (4-regular when both sides ``>= 3``).

    Toroidal grids are the paper's example of ``Ω(n^{1+1/k})``-renitent
    regular graphs (Section 6.2).
    """
    if rows < 3 or cols < 3:
        raise GraphError("torus requires both dimensions >= 3")

    # Vectorised build (a million-node torus has four million endpoints;
    # the historical per-cell Python loop cost gigabytes of transient
    # tuples).  The seeded pair streams index edges by position, so the
    # order is the historical ``sorted({(min(u, v), max(u, v)), ...})``,
    # emitted directly instead of sorted: row ``r``'s edges are one row
    # pattern shifted by ``r * cols``, and only the first and last rows
    # have patterns of their own.  The row blocks are written straight
    # into the graph's endpoint buffer, where the edge pass finds them
    # strictly increasing and needs no duplicate sort.  The patterns are
    # built in ``fill``, after the node count is checked, so every id
    # fits the buffer's ``int32``.
    def fill(low: np.ndarray, high: np.ndarray) -> None:
        first = _torus_row(rows, cols, down=True, up_wrap=True)
        middle = _torus_row(rows, cols, down=True, up_wrap=False)
        last = _torus_row(rows, cols, down=False, up_wrap=False)
        shifts = np.arange(cols, (rows - 1) * cols, cols, dtype=NODE_DTYPE)[:, None]
        for out, top, inner, bottom in zip((low, high), first, middle, last):
            body_end = top.size + shifts.size * inner.size
            out[: top.size] = top
            np.add(inner, shifts, out=out[top.size : body_end].reshape(shifts.size, inner.size))
            np.add(bottom, (rows - 1) * cols, out=out[body_end:])

    return Graph._from_filled_endpoints(
        rows * cols, 2 * rows * cols, fill, name=f"torus-{rows}x{cols}"
    )


def _torus_row(rows: int, cols: int, down: bool, up_wrap: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Row 0's torus edges ``(low, high)`` in key order, under one row type.

    Each cell ``c`` lists its higher neighbours in increasing order (with
    ``rows, cols >= 3`` no two coincide): right, unless ``c`` is the last
    column; left-wrap, from column 0 only; down, unless the row is the
    last; up-wrap, from row 0 only.
    """
    c = np.arange(cols, dtype=NODE_DTYPE)
    candidates = (
        (c + 1, c < cols - 1),  # right
        (c + cols - 1, c == 0),  # left-wrap
        (c + cols, np.full(cols, down)),  # down
        (c + (rows - 1) * cols, np.full(cols, up_wrap)),  # up-wrap
    )
    high = np.stack([neighbour for neighbour, _ in candidates], axis=1)
    keep = np.stack([present for _, present in candidates], axis=1)
    return np.broadcast_to(c[:, None], high.shape)[keep], high[keep]


def grid(rows: int, cols: int) -> Graph:
    """2-dimensional grid (no wraparound)."""
    if rows < 1 or cols < 1:
        raise GraphError("grid requires positive dimensions")
    n = rows * cols

    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
    return Graph(n, edges, name=f"grid-{rows}x{cols}")


def hypercube(dimension: int) -> Graph:
    """Boolean hypercube ``Q_d`` on ``2^d`` nodes (d-regular expander-ish)."""
    if dimension < 1:
        raise GraphError("hypercube requires dimension >= 1")
    n = 1 << dimension
    edges = []
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return Graph(n, edges, name=f"hypercube-{dimension}")


def lollipop(clique_size: int, tail_length: int) -> Graph:
    """Lollipop graph: a clique with a path attached.

    Classic worst case for random-walk hitting times (``H(G) ∈ Θ(n^3)``),
    exercised by the Theorem 16 benchmarks.
    """
    if clique_size < 2 or tail_length < 1:
        raise GraphError("lollipop requires clique_size >= 2 and tail_length >= 1")
    n = clique_size + tail_length
    edges = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
    previous = clique_size - 1
    for i in range(tail_length):
        edges.append((previous, clique_size + i))
        previous = clique_size + i
    return Graph(n, edges, name=f"lollipop-{clique_size}-{tail_length}")


def barbell(clique_size: int, bridge_length: int) -> Graph:
    """Two cliques joined by a path — a canonical low-conductance graph."""
    if clique_size < 2 or bridge_length < 0:
        raise GraphError("barbell requires clique_size >= 2 and bridge_length >= 0")
    n = 2 * clique_size + bridge_length
    edges: List[Edge] = []
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            edges.append((u, v))
    offset = clique_size + bridge_length
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            edges.append((offset + u, offset + v))
    chain = [clique_size - 1] + list(range(clique_size, clique_size + bridge_length)) + [offset]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    return Graph(n, edges, name=f"barbell-{clique_size}-{bridge_length}")


def cycle_with_chords(n: int, chord_step: int) -> Graph:
    """Cycle augmented with chords connecting nodes at distance ``chord_step``.

    Gives a tunable family between the cycle (no chords) and a dense
    circulant graph, used by the "general graphs" benchmark row.
    """
    if n < 5:
        raise GraphError("cycle_with_chords requires n >= 5")
    if not (2 <= chord_step <= n // 2):
        raise GraphError("chord_step must lie in [2, n // 2]")
    edges = set((i, (i + 1) % n) for i in range(n))
    for i in range(n):
        j = (i + chord_step) % n
        if i != j:
            edges.add((min(i, j), max(i, j)))
    normalised = set((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n, sorted(normalised), name=f"cycle-chords-{n}-{chord_step}")


def circulant(n: int, offsets: Sequence[int]) -> Graph:
    """Circulant graph: node ``i`` is adjacent to ``i ± o`` for each offset."""
    if n < 3:
        raise GraphError("circulant requires n >= 3")
    cleaned = sorted(set(int(o) % n for o in offsets) - {0})
    if not cleaned:
        raise GraphError("circulant requires at least one non-zero offset")
    edges = set()
    for i in range(n):
        for o in cleaned:
            j = (i + o) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges), name=f"circulant-{n}-{'_'.join(map(str, cleaned))}")


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (root at node 0)."""
    if depth < 0:
        raise GraphError("binary tree depth must be non-negative")
    n = (1 << (depth + 1)) - 1
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        edges.append((parent, child))
    return Graph(n, edges, name=f"binary-tree-{depth}")


def double_star(left_leaves: int, right_leaves: int) -> Graph:
    """Two star centres joined by an edge, with the given leaf counts."""
    if left_leaves < 1 or right_leaves < 1:
        raise GraphError("double star requires at least one leaf on each side")
    n = 2 + left_leaves + right_leaves
    edges = [(0, 1)]
    for i in range(left_leaves):
        edges.append((0, 2 + i))
    for i in range(right_leaves):
        edges.append((1, 2 + left_leaves + i))
    return Graph(n, edges, name=f"double-star-{left_leaves}-{right_leaves}")


def disjoint_union_with_path(parts: Sequence[Graph], path_length: int) -> Graph:
    """Join copies of graphs in a ring via paths of the given length.

    This is the combinator behind the renitent construction of Lemma 38:
    take copies of a base graph and connect designated nodes by long paths.
    The ``i``-th part's node 0 is joined to the ``(i+1)``-th part's node 0
    through a fresh path with ``path_length`` edges.
    """
    if len(parts) < 2:
        raise GraphError("need at least two parts to join")
    if path_length < 1:
        raise GraphError("path_length must be >= 1")
    offsets = []
    total = 0
    edges: List[Edge] = []
    for part in parts:
        offsets.append(total)
        for u, v in part.edges():
            edges.append((u + total, v + total))
        total += part.n_nodes
    k = len(parts)
    for i in range(k):
        source = offsets[i]
        target = offsets[(i + 1) % k]
        previous = source
        for _ in range(path_length - 1):
            edges.append((previous, total))
            previous = total
            total += 1
        edges.append((previous, target))
    return Graph(total, edges, name=f"ring-of-{k}-parts")


def all_named_families() -> List[str]:
    """Names of the deterministic families exposed by this module."""
    return [
        "clique",
        "cycle",
        "path",
        "star",
        "complete_bipartite",
        "torus",
        "grid",
        "hypercube",
        "lollipop",
        "barbell",
        "cycle_with_chords",
        "circulant",
        "binary_tree",
        "double_star",
    ]
