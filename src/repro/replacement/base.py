"""Shared per-source computation context.

Every construction in the paper fixes a source ``s`` and repeatedly
needs the same objects: the canonical BFS tree ``T0(s)``, the paths
``π(s, v)``, a fast distance oracle for feasibility checks, and a
canonical shortest-path engine for extracting chosen paths.
:class:`SourceContext` bundles them so the algorithm modules stay free
of plumbing.

Engine/oracle pairing: the context instantiates the oracle family the
engine declares (``engine.oracle_class``), so the default CSR engine
runs on the pooled flat-array kernel of :mod:`repro.core.csr` (engine,
oracle and tree share one snapshot and scratch pool via the graph's
CSR cache; its searches run in the C kernel whenever it loads), and
the legacy ``lex`` engine reproduces the pre-kernel system end to end
for reference benchmarking.

The CSR-backed oracles and engines memoize through the process-wide
:mod:`repro.core.snapshot_cache`, keyed on the graph's CSR snapshot and
the frozen fault set — so two contexts (or two different builders)
probing the same graph answer each other's repeated feasibility checks
instead of re-running identical restricted searches.  The per-instance
``fault_distances`` table below is a thin fast path over that shared
layer.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.core.canonical import DistanceOracle, make_engine, normalize_distance
from repro.core.errors import GraphError
from repro.core.graph import Graph, normalize_edge
from repro.core.paths import Path
from repro.core.tree import BFSTree


class SourceContext:
    """Graph + source + canonical engine + distance oracle + BFS tree.

    Parameters
    ----------
    graph:
        The host graph ``G`` (treated as immutable from here on).
    source:
        The source vertex ``s``.
    engine:
        Canonical shortest-path engine: an instance, a registered
        engine name (``"lex-csr"``, ``"lex"``, ``"perturbed"``), or
        ``None`` for the default CSR-backed lexicographic engine.
    """

    def __init__(self, graph: Graph, source: int, engine=None) -> None:
        if not graph.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        graph.finalize()
        self.graph = graph
        self.source = source
        if engine is None:
            engine = make_engine(graph)
        elif isinstance(engine, str):
            engine = make_engine(graph, engine)
        self.engine = engine
        oracle_cls = getattr(engine, "oracle_class", DistanceOracle)
        self.oracle = oracle_cls(graph)
        self.tree = BFSTree(graph, source, self.engine)
        # Per-fault full distance vectors (G \ {e}), shared by every
        # target below the failing edge; see fault_distances().
        self._fault_dist: dict = {}

    # ------------------------------------------------------------------
    # convenience wrappers
    # ------------------------------------------------------------------
    def absorb_delta(self, added=(), removed=()) -> dict:
        """Re-sync the context after ``self.graph.apply_delta``.

        The caller has already applied the delta to the graph (and
        passes the normalized ``(added, removed)`` edge lists that
        :meth:`~repro.core.graph.Graph.apply_delta` returned); this
        repairs the per-source state instead of discarding it:

        * **Damage estimate** — seeded from the delta frontier against
          the *old* tree: each removed tree arc dirties the subtree
          below its child endpoint, each inserted depth-gap edge the
          subtree below its deeper endpoint (same O(1) subtree-size
          rejection idea as the tree-repair executor strategy of
          :mod:`repro.core.query_batch`).  Edges the survival
          certificates of :mod:`repro.core.delta` prove inert (non-tree
          deletions, same-depth insertions) contribute nothing.
        * **mode ``"noop"``** — zero damage: the stored search result
          is provably identical to a fresh one, so the tree object
          (π cache included) is kept as-is and only the per-fault
          vectors are pruned by certificate.
        * **mode ``"repair"``** — damage at most
          :data:`repro.core.delta.DELTA_MAX_DAMAGE` (fraction of
          ``n``): the canonical tree is re-derived (one search —
          typically a snapshot-cache hit via the migration
          certificates) and each cached
          ``fault_distances`` vector survives iff its certificate
          holds, saving one full restricted BFS per survivor.
        * **mode ``"rebuild"``** — past the threshold (or an insertion
          reaches an unreached vertex, where certificates cannot
          compose): fresh tree, per-fault table cleared.

        Returns ``{"mode", "damage", "fault_kept", "fault_dropped"}``.
        Results after any mode are bit-identical to building a fresh
        context on the mutated graph (property-tested per engine).
        """
        from repro.core.delta import DELTA_MAX_DAMAGE, _vec_survives

        old = self.tree
        index = old.index
        added = [normalize_edge(u, v) for u, v in added]
        removed = [normalize_edge(u, v) for u, v in removed]
        rebuild = False
        roots: Set[int] = set()
        for u, v in removed:
            c = index.child(u, v)
            if c >= 0:
                roots.add(c)
        for u, v in added:
            ru, rv = old.reached(u), old.reached(v)
            if not (ru and rv):
                if ru or rv:
                    # Reachability expansion: the new region's labels
                    # cannot be derived from the old tree, and further
                    # delta edges may compose through it.
                    rebuild = True
                continue
            du, dv = old.depth(u), old.depth(v)
            if du != dv:
                roots.add(v if dv > du else u)
        n = self.graph.n
        if rebuild:
            damage = 1.0
        else:
            # tout - tin: a subtree's size
            damage = sum(index.tout[r] - index.tin[r] for r in roots) / max(n, 1)
        if rebuild or damage > DELTA_MAX_DAMAGE:
            self.tree = BFSTree(self.graph, self.source, self.engine)
            dropped = len(self._fault_dist)
            self._fault_dist.clear()
            return {
                "mode": "rebuild",
                "damage": damage,
                "fault_kept": 0,
                "fault_dropped": dropped,
            }
        mode = "noop"
        if roots:
            mode = "repair"
            self.tree = BFSTree(self.graph, self.source, self.engine)
        removed_pairs = [(e, -1) for e in removed]
        kept: dict = {}
        dropped = 0
        for e, vec in self._fault_dist.items():
            if not self.graph.has_edge(*e):
                dropped += 1  # the fault edge itself was removed
                continue
            # The entry bans e; a delta edge equal to e cannot occur
            # (removals of e are caught above, adds of an existing
            # edge are rejected by apply_delta), so empty ban sets
            # are exact here.
            if _vec_survives(vec, frozenset(), frozenset(), added, removed_pairs):
                kept[e] = vec
            else:
                dropped += 1
        self._fault_dist = kept
        return {
            "mode": mode,
            "damage": damage,
            "fault_kept": len(kept),
            "fault_dropped": dropped,
        }

    def pi(self, v: int) -> Path:
        """``π(s, v)``."""
        return self.tree.pi(v)

    def depth(self, v: int) -> float:
        """``depth(v) = dist(s, v, G)``."""
        return self.tree.depth(v)

    def distance(self, target: int, banned_edges=(), banned_vertices=()) -> float:
        """``dist(s, target, G')`` under a restriction (``inf`` if cut)."""
        return self.oracle.distance(self.source, target, banned_edges, banned_vertices)

    def query_batch(self):
        """A point-query planner bound to this context's oracle.

        The plan-then-execute entry point for the feasibility loops of
        the builders (:mod:`repro.core.query_batch`): plan probes for
        many fault sets, execute once, read each answer by the slot
        ``add`` returned.  Every oracle family answers the same planner
        surface, so ``--engine lex`` runs converted consumers scalar
        while the kernel engines dedupe and send the misses to one C
        multi-pair call (tree repair and the pooled loop on the python
        kernel).
        """
        return self.oracle.batch()

    def distances_bulk(self, targets, banned_edges=(), banned_vertices=()) -> list:
        """``dist(s, t, G')`` for many targets under one restriction.

        One ban normalization/stamping for the whole group; identical
        values to per-target :meth:`distance` calls.
        """
        return self.oracle.distances_bulk(
            [(self.source, t) for t in targets], banned_edges, banned_vertices
        )

    def fault_distances(self, fault: Sequence[int]):
        """``dist(s, ·, G \\ {e})`` as a full vector, cached per fault edge.

        Every target below a failing tree edge asks for its replacement
        distance under the same single fault; one full BFS per fault
        amortizes those point queries across the whole subtree.
        Entries are raw hops (``-1`` = unreachable); do not mutate.
        """
        e = normalize_edge(fault[0], fault[1])
        tbl = self._fault_dist.get(e)
        if tbl is None:
            tbl = self.oracle.distances_from(self.source, banned_edges=(e,))
            self._fault_dist[e] = tbl
        return tbl

    def fault_distance(self, target: int, fault: Sequence[int]) -> float:
        """``dist(s, target, G \\ {e})`` from the cached per-fault vector."""
        return normalize_distance(self.fault_distances(fault)[target])

    def canonical_path(self, target: int, banned_edges=(), banned_vertices=()) -> Path:
        """``SP(s, target, G', W)`` under a restriction."""
        return self.engine.canonical_path(
            self.source, target, banned_edges, banned_vertices
        )

    def pi_segment_interior_ban(
        self, pi_path: Path, from_vertex: int, to_vertex: int
    ) -> Set[int]:
        """Vertex ban realizing ``G(u_k, u_l)`` of Eq. (3).

        Returns ``V(π[u_k, u_l]) \\ {u_k, v}`` where ``v`` is the path
        target — i.e. the interior of the π-segment to mask out, keeping
        the divergence anchor ``u_k`` (and the target, which Eq. (3)
        always retains).
        """
        # Slice the vertex sequence directly instead of materializing a
        # Path: this runs once per feasibility probe of every binary
        # search, and Path construction (dict index build) dominated it.
        i = pi_path.position(from_vertex)
        j = pi_path.position(to_vertex)
        if i > j:
            i, j = j, i
        banned = set(pi_path.vertices[i : j + 1])
        banned.discard(from_vertex)
        banned.discard(pi_path.target)
        return banned
