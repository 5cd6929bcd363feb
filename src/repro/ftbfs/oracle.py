"""Query interface over a stored fault-tolerant structure.

Once an FT-BFS structure ``H`` has been purchased/leased (the paper's
network-design motivation), routing queries are answered *from H alone*:
``dist(s, v, H \\ F)`` equals ``dist(s, v, G \\ F)`` for any fault set
within budget, and shortest surviving routes can be extracted without
consulting the full graph.  :class:`FTQueryOracle` packages that usage
mode and is the subject of experiment E10.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.canonical import DistanceOracle, make_engine
from repro.core.errors import GraphError
from repro.core.graph import Edge, Graph
from repro.core.paths import Path
from repro.ftbfs.structures import FTStructure


class FTQueryOracle:
    """Distance/path queries against a stored structure ``H``.

    Parameters
    ----------
    structure:
        Any :class:`~repro.ftbfs.structures.FTStructure`.
    engine:
        Canonical engine for route extraction: an instance, a
        registered name (``"lex-csr"``, ``"lex"``, ``"perturbed"``),
        or ``None`` for the default CSR-backed engine.  The distance
        oracle follows the engine's declared family, so queries run on
        the pooled flat-array kernel by default, and repeated queries
        are memoized in the process-wide snapshot cache.
    subgraph:
        A pre-materialized ``H`` to query instead of calling
        ``structure.subgraph()``.  The serving layer
        (:mod:`repro.core.artifact`) passes the graph whose CSR
        snapshot was adopted from a mmap-backed artifact, so the
        engine binds to the preloaded arrays instead of rebuilding
        them.  The caller guarantees it equals ``structure``'s edge
        set — artifacts do by construction.

    Notes
    -----
    Queries with more faults than the structure's budget are refused
    (:class:`GraphError`) — beyond budget the equality with ``G`` is
    not guaranteed and silently wrong answers would be worse than an
    error.  So are targets outside ``[0, n)``, which would otherwise
    read as unreachable (or, negative, alias a real vertex), and faults
    that are not an edge of the host graph ``G``, which would otherwise
    be answered as if nothing had failed.  A fault in ``G \\ H`` is
    legitimate: it removes nothing from ``H``.
    """

    def __init__(self, structure: FTStructure, engine=None, subgraph=None) -> None:
        self.structure = structure
        self._h = subgraph if subgraph is not None else structure.subgraph()
        if engine is None:
            engine = make_engine(self._h)
        elif isinstance(engine, str):
            engine = make_engine(self._h, engine)
        self._paths = engine
        oracle_cls = getattr(engine, "oracle_class", DistanceOracle)
        self._dist = oracle_cls(self._h)

    @property
    def max_faults(self) -> int:
        """The fault budget ``f`` of the underlying structure."""
        return self.structure.max_faults

    def apply_delta(
        self,
        adds: Iterable[Sequence[int]] = (),
        removes: Iterable[Sequence[int]] = (),
    ) -> Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]:
        """Absorb a topology delta into the served structure ``H``.

        The long-lived serving path (``repro serve``'s ``delta`` op):
        edges are added to / removed from the *served subgraph* in
        place via :meth:`~repro.core.graph.Graph.apply_delta`, so the
        next query sees an incrementally patched CSR snapshot
        (:class:`~repro.core.csr.DeltaCSRGraph`) and every cached
        answer the survival certificates of :mod:`repro.core.delta`
        admit — preseeded caches included — carries over instead of
        being dropped.  ``self.structure`` is replaced (it is frozen)
        with the updated edge set; budget, sources and builder
        metadata are unchanged.  Added edges are mirrored into the
        structure's host graph when absent, preserving the ``H ⊆ G``
        invariant that :meth:`~repro.ftbfs.structures.FTStructure
        .subgraph` and re-saving rely on (removals only shrink ``H`` —
        the host keeps the edge).  Post-delta answers are bit-identical
        to a fresh oracle over the mutated edge set.

        Returns the normalized ``(added, removed)`` edge tuples.
        Refused for the ``perturbed`` engine, which freezes its CSR
        snapshot at construction and would silently keep answering
        from the pre-delta topology.
        """
        if getattr(self._paths, "name", "") == "perturbed":
            raise GraphError(
                "the perturbed engine snapshots its graph at construction "
                "and cannot absorb deltas; rebuild the oracle instead"
            )
        added, removed = self._h.apply_delta(adds=adds, removes=removes)
        host = self.structure.graph
        if host is not self._h:
            missing = [e for e in added if not host.has_edge(*e)]
            if missing:
                # Carry the stored weight along (1 for unit edges, where
                # add_edge keeps the weight table untouched) so H ⊆ G
                # holds for weights too, not just the edge set.
                host.apply_delta(
                    adds=[(u, v, self._h.weight(u, v)) for (u, v) in missing]
                )
        edges = (set(self.structure.edges) | set(added)) - set(removed)
        self.structure = dataclasses.replace(
            self.structure, edges=frozenset(edges)
        )
        return added, removed

    def _check(
        self,
        source: int,
        faults: Sequence[Sequence[int]],
        targets: Sequence[int] = (),
    ) -> None:
        if source not in self.structure.sources:
            raise GraphError(
                f"{source} is not a source of this structure "
                f"(sources: {self.structure.sources})"
            )
        if len(faults) > self.max_faults:
            raise GraphError(
                f"{len(faults)} faults exceed the structure's budget "
                f"f={self.max_faults}"
            )
        host = self.structure.graph
        for fault in faults:
            try:
                u, v = fault
                known = host.has_edge(u, v)
            except (TypeError, ValueError):
                known = False
            if not known:
                raise GraphError(
                    f"fault {fault!r} is not an edge of the host graph"
                )
        n = self._h.n
        for target in targets:
            if not 0 <= target < n:
                raise GraphError(
                    f"target {target} is not a vertex of this structure "
                    f"(n={n})"
                )

    def distance(
        self, source: int, target: int, faults: Sequence[Sequence[int]] = ()
    ) -> float:
        """``dist(source, target, H \\ F)`` (``inf`` when disconnected)."""
        self._check(source, faults, (target,))
        return self._dist.distance(source, target, banned_edges=faults)

    def path(
        self, source: int, target: int, faults: Sequence[Sequence[int]] = ()
    ) -> Path:
        """A shortest surviving route inside ``H`` under ``F``."""
        self._check(source, faults, (target,))
        return self._paths.canonical_path(source, target, banned_edges=faults)

    def batch_distances(
        self, source: int, faults: Sequence[Sequence[int]] = ()
    ) -> list:
        """Distances from ``source`` to every vertex under ``F``."""
        self._check(source, faults)
        return self._dist.distances_from(source, banned_edges=faults)

    def distances_bulk(
        self,
        source: int,
        targets: Sequence[int],
        faults: Sequence[Sequence[int]] = (),
    ) -> list:
        """``dist(source, t, H \\ F)`` for many targets in one execution.

        The batch-first sibling of :meth:`distance` for serving-side
        workloads: one fault-set normalization and ban stamping for the
        whole group, answers shared with the scalar path's memo, and
        one C multi-pair call for the pairs the tree repair leaves.
        Values align with ``targets`` (``inf`` where ``F`` cuts the
        pair) and are element-for-element identical to per-target
        :meth:`distance` calls.
        """
        self._check(source, faults, targets)
        return self._dist.distances_bulk(
            [(source, t) for t in targets], banned_edges=faults
        )

    def query_batch(self):
        """A point-query planner over ``H`` for heterogeneous fault sets.

        See :class:`repro.core.query_batch.PointQueryBatch`: plan
        ``(source, target, faults)`` probes across *different* fault
        sets, then execute once — grouped by frozen fault set.  The
        caller is responsible for staying within the structure's fault
        budget (:meth:`distance` checks per query; the raw planner does
        not).
        """
        return self._dist.batch()
