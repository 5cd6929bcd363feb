"""repro — reproduction of *Dual Failure Resilient BFS Structure* (Parter, PODC 2015).

The library builds sparse subgraphs ``H ⊆ G`` that preserve exact
BFS/shortest-path distances from a source (or source set) under up to
``f`` edge failures, implements the paper's matching lower-bound graph
family and its O(log n) approximation algorithm, and ships the
structural-analysis toolkit (detours, kernels, path classes) behind the
``O(n^{5/3})`` size proof.

Quick start::

    from repro import erdos_renyi, build_cons2ftbfs, verify_structure

    g = erdos_renyi(60, 0.1, seed=1)
    h = build_cons2ftbfs(g, source=0)
    verify_structure(h)           # exhaustive check over all fault pairs
    print(h.size, "of", g.m, "edges retained")

Every restricted search funnels through one traversal substrate with
two interchangeable lex-canonical engines (pick with ``engine=`` or
the CLI's ``--engine``): ``lex-csr`` (default; pooled flat-array
kernel, running in the optional compiled C kernel whenever it loads)
and ``lex`` (legacy layered reference).  The package needs only the
standard library.  Feasibility point queries are batch-first:
builders plan them against a :class:`PointQueryBatch`
(:mod:`repro.core.query_batch`), which deduplicates them and answers
the misses on the snapshot's kernel tier — one cross-query C
multi-pair call whenever the C kernel loads, else tree-repair mini
searches and a pooled python loop, grouped by fault set —
bit-identically to per-pair queries.  Repeated feasibility checks are
memoized in a process-wide snapshot cache
(:mod:`repro.core.snapshot_cache`) shared across builders and oracles,
weight-capped so vector memos stay bounded, and invalidated by graph
mutation.

See ``docs/architecture.md`` for the full system inventory and
``docs/benchmarks.md`` for the reproduced tables/figures.
"""

from repro.analysis import (
    PowerLawFit,
    StretchProfile,
    sparsify_by_stretch,
    stretch_profile,
    structure_stretch,
    detour_census,
    fit_power_law,
    format_table,
    normalized_series,
    path_class_census,
    per_vertex_new_edges,
)
from repro.core import (
    DEFAULT_ENGINE,
    BFSTree,
    CSRGraph,
    CSRLexShortestPaths,
    DistanceOracle,
    Edge,
    Graph,
    GraphError,
    LegacyQueryBatch,
    LexShortestPaths,
    PointQueryBatch,
    Path,
    PathError,
    PerturbedShortestPaths,
    PythonDistanceOracle,
    ReproError,
    VerificationError,
    bfs_distance,
    bfs_distances,
    csr_of,
    graph_from_edges,
    make_engine,
    multi_source_distances,
    normalize_edge,
    normalize_edges,
    shared_cache,
)
from repro.core.io import (
    load_graph,
    load_structure,
    save_graph,
    save_structure,
)
from repro.ftbfs import (
    DualFaultDistanceOracle,
    FTQueryOracle,
    SingleFaultDistanceOracle,
    VertexFTQueryOracle,
    build_generic_vertex_ftbfs,
    build_single_vertex_ftbfs,
    verify_vertex_structure,
    FTStructure,
    build_approx_ftmbfs,
    build_cons2ftbfs,
    build_dense_union,
    build_dual_ftbfs_simple,
    build_ft_mbfs,
    build_generic_ftbfs,
    build_single_ftbfs,
    edge_is_necessary,
    find_violation,
    ft_diameter,
    is_ft_mbfs,
    new_edge_profile,
    observation_1_6_bound,
    optimum_bounds,
    prune_to_minimal,
    verify_structure,
    verify_structure_sampled,
)
from repro.generators import (
    barbell_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    gnm_random,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_regularish,
    random_tree,
    torus_graph,
    tree_plus_chords,
)
from repro.lowerbound import (
    LowerBoundInstance,
    build_gadget,
    build_lower_bound_graph,
    check_witness,
    forced_edge_witnesses,
    theoretical_lower_bound,
)
from repro.replacement import SourceContext, TripleClass, build_triple_ftbfs

__version__ = "1.0.0"

__all__ = [
    "BFSTree",
    "CSRGraph",
    "CSRLexShortestPaths",
    "DEFAULT_ENGINE",
    "DistanceOracle",
    "DualFaultDistanceOracle",
    "Edge",
    "FTQueryOracle",
    "FTStructure",
    "Graph",
    "GraphError",
    "LexShortestPaths",
    "LowerBoundInstance",
    "Path",
    "PathError",
    "PerturbedShortestPaths",
    "PowerLawFit",
    "PythonDistanceOracle",
    "ReproError",
    "SingleFaultDistanceOracle",
    "SourceContext",
    "StretchProfile",
    "TripleClass",
    "VerificationError",
    "VertexFTQueryOracle",
    "barbell_graph",
    "bfs_distance",
    "bfs_distances",
    "build_approx_ftmbfs",
    "build_cons2ftbfs",
    "build_dense_union",
    "build_dual_ftbfs_simple",
    "build_ft_mbfs",
    "build_gadget",
    "build_generic_ftbfs",
    "build_generic_vertex_ftbfs",
    "build_lower_bound_graph",
    "build_single_ftbfs",
    "build_single_vertex_ftbfs",
    "build_triple_ftbfs",
    "check_witness",
    "complete_bipartite",
    "complete_graph",
    "csr_of",
    "cycle_graph",
    "detour_census",
    "edge_is_necessary",
    "erdos_renyi",
    "find_violation",
    "fit_power_law",
    "forced_edge_witnesses",
    "format_table",
    "ft_diameter",
    "gnm_random",
    "graph_from_edges",
    "grid_graph",
    "hypercube_graph",
    "is_ft_mbfs",
    "load_graph",
    "load_structure",
    "make_engine",
    "multi_source_distances",
    "new_edge_profile",
    "normalize_edge",
    "normalize_edges",
    "normalized_series",
    "observation_1_6_bound",
    "optimum_bounds",
    "path_class_census",
    "path_graph",
    "per_vertex_new_edges",
    "prune_to_minimal",
    "save_graph",
    "save_structure",
    "shared_cache",
    "sparsify_by_stretch",
    "stretch_profile",
    "structure_stretch",
    "random_regularish",
    "random_tree",
    "theoretical_lower_bound",
    "torus_graph",
    "tree_plus_chords",
    "verify_structure",
    "verify_structure_sampled",
    "verify_vertex_structure",
]
