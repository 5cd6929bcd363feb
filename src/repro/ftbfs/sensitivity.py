"""Single-source distance *sensitivity oracles* (the [5, 2, 8] lineage).

The paper situates FT-BFS structures next to *f-sensitivity distance
oracles*: data structures answering ``dist(s, v, G \\ F)`` queries
quickly after polynomial preprocessing.  This module implements the
single-source flavors the introduction discusses:

* :class:`SingleFaultDistanceOracle` — exact 1-sensitivity queries in
  ``O(1)`` after ``O(n · m)`` preprocessing: one BFS per tree edge,
  tabulating the replacement distances (non-tree faults never change
  single-source distances).
* :class:`DualFaultDistanceOracle` — 2-sensitivity queries answered
  from a *sparse* dual-failure FT-BFS structure: preprocessing builds
  ``Cons2FTBFS`` once; each query is one BFS over ``H`` (cheaper than
  over ``G`` exactly when the structure is sparse), with the 0/1-fault
  fast paths delegated to the table oracle.

Both are exact and are validated against brute force in the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import parallel
from repro.core.canonical import (
    INF,
    UNREACHED,
    DistanceOracle,
    make_engine,
    normalize_distance,
)
from repro.core.errors import GraphError
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.tree import BFSTree
from repro.ftbfs.cons2ftbfs import build_cons2ftbfs
from repro.ftbfs.structures import FTStructure


def _sensitivity_shard(payload, chunk):
    """Pool task: replacement-distance vectors for a chunk of tree edges.

    ``payload`` is ``((n, edge_list), source, engine_name)`` — the
    graph fragment arrives pre-pickled
    (:func:`repro.core.parallel.graph_payload`); the worker
    rebuilds the graph, selects the same oracle family the serial path
    would (the engine's declared ``oracle_class``) and tabulates one
    full restricted BFS per fault edge.  Distance vectors are integer
    lists, so reassembly by edge index is trivially bit-identical.
    """
    (n, edge_list), source, engine_name = payload
    graph = Graph(n, edge_list)
    parallel.worker_counters_begin()
    engine = make_engine(graph, engine_name) if engine_name else make_engine(graph)
    oracle_cls = getattr(engine, "oracle_class", DistanceOracle)
    oracle = oracle_cls(graph)
    tables = [
        list(oracle.distances_from(source, banned_edges=(e,))) for e in chunk
    ]
    return tables, parallel.worker_counters_end(graph)


class SingleFaultDistanceOracle:
    """O(1) exact ``dist(s, v, G \\ {e})`` queries after O(n·m) preprocessing.

    Space is ``O(n)`` per tree edge (``O(n^2)`` total) — the classic
    tabulation trade-off of the single-failure sensitivity oracles the
    paper cites.
    """

    def __init__(self, graph: Graph, source: int, engine=None, jobs=None) -> None:
        self.graph = graph
        self.source = source
        self.tree = BFSTree(graph, source, engine)
        oracle_cls = getattr(self.tree.engine, "oracle_class", DistanceOracle)
        oracle = oracle_cls(graph)
        self._base = oracle.distances_from(source)
        self._tables: Dict[Edge, List[int]] = {}
        fault_edges = sorted(self.tree.edges())
        njobs = parallel.effective_jobs(jobs, items=len(fault_edges))
        if njobs > 1 and len(fault_edges) > 1 and (
            engine is None or isinstance(engine, str)
        ):
            # The per-edge tabulation sweep is embarrassingly parallel:
            # shard the fault edges across a process pool and zip the
            # returned vectors back in edge order (bit-identical to the
            # serial loop; see tests/test_parallel.py).
            payload = (parallel.graph_payload(graph), source, engine)
            tables = parallel.run_sharded(
                _sensitivity_shard,
                fault_edges,
                payload=payload,
                jobs=njobs,
                label="sensitivity-tables",
            )
            self._tables = dict(zip(fault_edges, tables))
        else:
            for e in fault_edges:
                self._tables[e] = oracle.distances_from(source, banned_edges=(e,))
        # per-target sets of pi-edges for the O(1) relevance test
        self._pi_edges: List[Optional[set]] = [None] * graph.n
        for v in self.tree.vertices():
            self._pi_edges[v] = self.tree.pi(v).edge_set()

    @property
    def preprocessing_tables(self) -> int:
        """Number of tabulated fault scenarios (== tree edges)."""
        return len(self._tables)

    def distance(self, v: int, fault: Optional[Sequence[int]] = None) -> float:
        """``dist(s, v, G \\ {fault})`` (``inf`` when disconnected)."""
        if not self.graph.has_vertex(v):
            raise GraphError(f"invalid vertex {v}")
        base = self._base[v]
        if base == UNREACHED:
            return INF
        if fault is None:
            return base
        e = normalize_edge(fault[0], fault[1])
        pi_edges = self._pi_edges[v]
        if pi_edges is None or e not in pi_edges:
            # fault off the canonical shortest path: distance unchanged
            return base
        return normalize_distance(self._tables[e][v])


class DualFaultDistanceOracle:
    """Exact 2-sensitivity queries from a sparse FT-BFS structure.

    Preprocessing builds (or accepts) a dual-failure FT-BFS structure
    ``H``; two-fault queries BFS over ``H \\ F`` (correct because ``H``
    preserves all ≤2-fault distances), zero/one-fault queries use the
    O(1) table oracle.
    """

    def __init__(
        self,
        graph: Graph,
        source: int,
        structure: Optional[FTStructure] = None,
        engine=None,
    ) -> None:
        self.graph = graph
        self.source = source
        if structure is None:
            structure = build_cons2ftbfs(graph, source, engine)
        if structure.max_faults < 2:
            raise GraphError(
                f"need an f>=2 structure, got f={structure.max_faults}"
            )
        if source not in structure.sources:
            raise GraphError(f"structure does not cover source {source}")
        self.structure = structure
        self._single = SingleFaultDistanceOracle(graph, source, engine)
        self._h_oracle = DistanceOracle(structure.subgraph())

    @property
    def structure_size(self) -> int:
        """``|E(H)|`` — the per-query BFS workload."""
        return self.structure.size

    def distance(self, v: int, faults: Sequence[Sequence[int]] = ()) -> float:
        """``dist(s, v, G \\ F)`` for ``|F| ≤ 2``."""
        faults = [normalize_edge(f[0], f[1]) for f in faults]
        if len(faults) > 2:
            raise GraphError(f"{len(faults)} faults exceed the oracle's budget")
        if not faults:
            return self._single.distance(v)
        if len(faults) == 1:
            return self._single.distance(v, faults[0])
        return self._h_oracle.distance(self.source, v, banned_edges=faults)

    def batch(self, queries: Sequence[Tuple[int, Sequence]]) -> List[float]:
        """Answer ``(v, faults)`` queries in bulk (plan-then-execute).

        Two-fault queries are planned against ``H``'s distance oracle
        and resolved in one batched execution — deduplicated, then the
        misses in one C multi-pair call where the C kernel loads, or
        grouped by frozen fault set on the python kernel
        (:mod:`repro.core.query_batch`) — while 0/1-fault queries keep
        the O(1) table fast path.  Values are element-for-element
        identical to per-query :meth:`distance` calls.
        """
        planner = self._h_oracle.batch()
        # Per query: its planner slot and None, or -1 and its table value.
        pending: List[Tuple[int, Optional[float]]] = []
        for v, faults in queries:
            fs = [normalize_edge(f[0], f[1]) for f in faults]
            if len(fs) > 2:
                raise GraphError(
                    f"{len(fs)} faults exceed the oracle's budget"
                )
            if len(fs) == 2:
                pending.append((planner.add(self.source, v, fs), None))
            else:
                pending.append((-1, self._single.distance(v, *fs)))
        hops = planner.execute()
        return [
            value if slot < 0 else INF if hops[slot] == UNREACHED else hops[slot]
            for slot, value in pending
        ]
