"""Core substrate: graphs, paths, canonical shortest paths, BFS trees.

Point queries come in two shapes: scalar (``DistanceOracle.distance``)
and batch-first (``DistanceOracle.distances_bulk`` and the
:class:`~repro.core.query_batch.PointQueryBatch` planner from
``DistanceOracle.batch()``), which plans many feasibility probes,
deduplicates them against the process-wide snapshot cache and answers
the misses on the snapshot's kernel tier: one C multi-pair call
whenever the compiled kernel loads, else tree repair and the pooled
python loop, grouped by frozen fault set.  Builders that issue many
probes should plan-then-execute; see :mod:`repro.core.query_batch`.
"""

from repro.core.canonical import (
    DEFAULT_ENGINE,
    INF,
    UNREACHABLE,
    UNREACHED,
    CSRLexShortestPaths,
    DistanceOracle,
    LexShortestPaths,
    PerturbedShortestPaths,
    PythonDistanceOracle,
    SearchResult,
    bfs_distance,
    bfs_distances,
    eccentricity,
    make_engine,
    multi_source_distances,
    normalize_distance,
    normalize_distances,
)
from repro.core.csr import CSRGraph, csr_of
from repro.core.query_batch import LegacyQueryBatch, PointQueryBatch
from repro.core.snapshot_cache import SnapshotCache, shared_cache
from repro.core.errors import (
    ConstructionError,
    DisconnectedError,
    GraphError,
    PathError,
    ReproError,
    VerificationError,
)
from repro.core.io import (
    graph_from_text,
    graph_to_text,
    load_graph,
    load_structure,
    save_graph,
    save_structure,
    structure_from_json,
    structure_to_json,
)
from repro.core.graph import Edge, Graph, graph_from_edges, normalize_edge, normalize_edges
from repro.core.paths import Path, path_from_parents
from repro.core.scenario import (
    Blueprint,
    Scenario,
    assert_identical_reports,
    expand_blueprint,
    load_blueprint,
    report_signature,
    strip_volatile,
    sweep_blueprint,
)
from repro.core.topology import (
    Topology,
    load_edge_list,
    load_graphml,
    load_topology,
    topology_from_spec,
)
from repro.core.tree import BFSTree

__all__ = [
    "DEFAULT_ENGINE",
    "INF",
    "UNREACHABLE",
    "UNREACHED",
    "BFSTree",
    "Blueprint",
    "CSRGraph",
    "CSRLexShortestPaths",
    "ConstructionError",
    "DisconnectedError",
    "DistanceOracle",
    "Edge",
    "Graph",
    "GraphError",
    "LegacyQueryBatch",
    "LexShortestPaths",
    "Path",
    "PathError",
    "PerturbedShortestPaths",
    "PointQueryBatch",
    "PythonDistanceOracle",
    "ReproError",
    "Scenario",
    "SearchResult",
    "SnapshotCache",
    "Topology",
    "VerificationError",
    "assert_identical_reports",
    "bfs_distance",
    "bfs_distances",
    "csr_of",
    "eccentricity",
    "expand_blueprint",
    "graph_from_edges",
    "graph_from_text",
    "graph_to_text",
    "load_blueprint",
    "load_edge_list",
    "load_graph",
    "load_graphml",
    "load_structure",
    "load_topology",
    "make_engine",
    "multi_source_distances",
    "normalize_distance",
    "normalize_distances",
    "normalize_edge",
    "normalize_edges",
    "path_from_parents",
    "report_signature",
    "save_graph",
    "save_structure",
    "shared_cache",
    "strip_volatile",
    "structure_from_json",
    "structure_to_json",
    "sweep_blueprint",
    "topology_from_spec",
]
