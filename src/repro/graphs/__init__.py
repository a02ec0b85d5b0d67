"""Graph substrate for the population-protocol reproduction.

Everything the paper assumes about interaction graphs lives here: the core
:class:`~repro.graphs.graph.Graph` type, deterministic and random graph
families, structural properties (expansion, conductance, diameter), spectral
quantities and the renitent-graph constructions of Section 6.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "graph": (
            "Edge",
            "Graph",
            "GraphError",
        ),
        "families": (
            "barbell",
            "binary_tree",
            "circulant",
            "clique",
            "complete_bipartite",
            "cycle",
            "cycle_with_chords",
            "double_star",
            "grid",
            "hypercube",
            "lollipop",
            "path",
            "star",
            "torus",
        ),
        "properties": (
            "ExpansionEstimate",
            "conductance",
            "edge_expansion_estimate",
            "edge_expansion_exact",
            "summarize",
        ),
        "random_graphs": (
            "erdos_renyi",
            "preferential_attachment",
            "random_geometric",
            "random_regular",
        ),
        "renitent": (
            "RenitentConstruction",
            "cycle_cover",
            "four_copies_construction",
            "renitent_family_graph",
            "torus_cover",
        ),
        "spectral": (
            "cheeger_bounds",
            "normalized_laplacian_spectral_gap",
            "normalized_laplacian_spectrum",
        ),
    },
)
