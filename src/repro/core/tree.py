"""Canonical BFS trees ``T0(s)``, the paths ``π(s, v)`` and their index.

Algorithm ``Cons2FTBFS`` starts from the BFS tree
``T0 = ⋃_v π(s, v)`` where ``π(s, v) = SP(s, v, G, W)`` is the canonical
shortest path.  :class:`BFSTree` wraps one canonical search result and
serves the per-vertex paths, depths, tree edges and subtree queries the
constructions need.  :class:`TreeIndex` derives the tree's structure
once — children, preorder, Euler intervals, the region below a set of
tree edges and an exact search over it — for ``BFSTree``, step 3's
depth rule, the python planner tier's tree repair and
``SourceContext.absorb_delta``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.canonical import UNREACHED, SearchResult, make_engine
from repro.core.errors import GraphError
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.paths import Path


class TreeIndex:
    """The structure of one shortest-path tree, derived once from a
    full search's raw ``dist`` / ``parent`` vectors (``-1`` =
    unreached, the root its own parent; held, not copied).

    ``children[v]`` lists the children of ``v`` in ascending order;
    ``order`` is the preorder of the reached vertices, root first.  The
    Euler intervals ``tin`` / ``tout`` make the subtree of ``v`` the
    slice ``order[tin[v]:tout[v]]``, of ``tout[v] - tin[v]`` vertices
    (``-1`` in both for an unreached ``v``).  ``depth`` and ``parent``
    are the input vectors.  The lists are shared; do not mutate them.
    """

    __slots__ = (
        "depth",
        "parent",
        "children",
        "order",
        "tin",
        "tout",
        "_mark",
        "_label",
        "_gen",
    )

    def __init__(
        self, source: int, dist: Sequence[int], parent: Sequence[int]
    ) -> None:
        n = len(dist)
        kids: List[List[int]] = [[] for _ in range(n)]
        for w, p in enumerate(parent):
            if p >= 0 and p != w:
                kids[p].append(w)  # ascending w: each list comes out sorted
        tin = [-1] * n
        tout = [-1] * n
        order: List[int] = []
        stack = [source]
        while stack:
            u = stack.pop()
            tin[u] = len(order)
            order.append(u)
            stack.extend(reversed(kids[u]))
        # A subtree ends where its last child's subtree ends.
        for u in reversed(order):
            c = kids[u]
            tout[u] = tout[c[-1]] if c else tin[u] + 1
        self.depth = dist
        self.parent = parent
        self.children = kids
        self.order = order
        self.tin = tin
        self.tout = tout
        self._mark = self._label = None  # scratch, allocated on first search
        self._gen = 0

    def child(self, a: int, b: int) -> int:
        """The child endpoint of tree edge ``(a, b)``, ``-1`` if it is
        no tree edge.  Both endpoints must lie in ``[0, n)``."""
        parent = self.parent
        if parent[b] == a != b:
            return b
        if parent[a] == b != a:
            return a
        return -1

    def region(self, roots: Iterable[int]) -> List[int]:
        """The vertices of the subtrees below ``roots``, each once.

        Concatenates the preorder slices of the outermost roots; a root
        inside another root's subtree adds nothing, and so does an
        unreached root.
        """
        tin, tout, order = self.tin, self.tout, self.order
        out: List[int] = []
        end = 0
        for lo, r in sorted((tin[r], r) for r in roots):
            if lo >= end:
                end = tout[r]
                out += order[lo:end]
        return out

    def region_search(
        self, arcs, region: List[int], banned: Tuple[int, ...], targets: Sequence[int]
    ) -> List[int]:
        """``dist(s, t, G \\ banned)`` per target: a seeded bucketed
        mini-BFS over ``region``, which must hold the subtree below
        every tree edge in ``banned`` (:meth:`region`).

        ``arcs[w]`` yields ``(neighbour, edge id)`` pairs (a CSR
        snapshot's ``arcs``) and ``banned`` holds edge ids.  Outside the
        region every tree path survives, so a target keeps its depth;
        region labels are seeded across the boundary with
        ``depth(u) + 1`` (exact: every path enters through such an arc).
        Exact raw hops, ``-1`` where the restriction cuts a vertex off.
        """
        depth = self.depth
        mark = self._mark
        if mark is None:
            mark = self._mark = [0] * len(depth)
            self._label = [0] * len(depth)
        gen = self._gen + 1
        self._gen = gen
        for w in region:
            mark[w] = gen
        if all(mark[t] != gen for t in targets):
            return [depth[t] for t in targets]
        label = self._label
        # Boundary seeds: cheapest entry arc per region vertex; labels
        # are exact entry distances, relaxed below by a bucketed BFS
        # (unit weights, so per-distance frontier lists suffice).
        seeds: Dict[int, List[int]] = {}
        for w in region:
            best = -1
            for u, e in arcs[w]:
                if mark[u] == gen or e in banned:
                    continue
                du = depth[u]
                if du != UNREACHED and (best < 0 or du + 1 < best):
                    best = du + 1
            label[w] = best
            if best >= 0:
                seeds.setdefault(best, []).append(w)
        if seeds:
            d = min(seeds)
            frontier = seeds.pop(d)
            while frontier or seeds:
                if not frontier:
                    d = min(seeds)
                    frontier = seeds.pop(d)
                    continue
                nd = d + 1
                nxt_frontier: List[int] = []
                for w in frontier:
                    if label[w] != d:
                        continue  # relabeled cheaper since queued
                    for u, e in arcs[w]:
                        if mark[u] != gen or e in banned:
                            continue
                        lu = label[u]
                        if lu < 0 or lu > nd:
                            label[u] = nd
                            nxt_frontier.append(u)
                pend = seeds.pop(nd, None)
                if pend is not None:
                    nxt_frontier.extend(pend)
                frontier = nxt_frontier
                d = nd
        return [(label[t] if mark[t] == gen else depth[t]) for t in targets]


class BFSTree:
    """The canonical BFS tree rooted at ``s`` (``T0(s)`` in the paper).

    Parameters
    ----------
    graph:
        Host graph ``G``.
    source:
        Root ``s``.
    engine:
        A canonical shortest-path engine instance or registered engine
        name (defaults to the CSR-backed lexicographic engine,
        :class:`~repro.core.canonical.CSRLexShortestPaths`).

    Notes
    -----
    Unreachable vertices are simply absent from the tree; ``depth``
    reports ``inf`` for them and ``pi`` raises
    :class:`~repro.core.errors.DisconnectedError`.  Every per-vertex
    accessor rejects a vertex outside ``[0, n)`` with ``GraphError``.
    """

    def __init__(self, graph: Graph, source: int, engine=None) -> None:
        if not graph.has_vertex(source):
            raise GraphError(f"invalid source {source}")
        self.graph = graph
        self.source = source
        if engine is None or isinstance(engine, str):
            engine = make_engine(graph, engine) if engine else make_engine(graph)
        self.engine = engine
        self._result: SearchResult = self.engine.search(source)
        self._idx: Optional[TreeIndex] = None
        self._pi_cache: Dict[int, Path] = {}

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def reached(self, v: int) -> bool:
        """True iff ``v`` is in the tree (reachable from the root)."""
        return self._result.reached(v)

    def depth(self, v: int) -> float:
        """``depth(s, v) = dist(s, v, G)`` (``inf`` if unreachable)."""
        return self._result.dist(v)

    def parent(self, v: int) -> int:
        """Tree parent of ``v`` (root's parent is itself; ``-1`` unreached)."""
        return self._result.parent(v)

    def pi(self, v: int) -> Path:
        """``π(s, v)``: the canonical shortest path from the root to ``v``."""
        path = self._pi_cache.get(v)
        if path is None:
            path = self._result.path(v)
            self._pi_cache[v] = path
        return path

    def vertices(self) -> List[int]:
        """All vertices in the tree."""
        return self._result.reachable_vertices()

    def edges(self) -> FrozenSet[Edge]:
        """The tree edge set ``E(T0)``."""
        idx = self.index
        parent = idx.parent
        return frozenset(normalize_edge(parent[v], v) for v in idx.order[1:])

    def height(self) -> int:
        """Depth of the deepest reachable vertex (the BFS tree depth ``D``)."""
        ds = [d for d in self._result.distances() if d != UNREACHED]
        return max(ds) if ds else 0

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def index(self) -> TreeIndex:
        """The tree's :class:`TreeIndex`, derived on first use."""
        idx = self._idx
        if idx is None:
            res = self._result
            idx = TreeIndex(self.source, res.distances(), res.parents())
            self._idx = idx
        return idx

    def children(self, v: int) -> List[int]:
        """Children of ``v`` in the tree, sorted."""
        self._result._check(v)
        return self.index.children[v]

    def euler_intervals(self) -> Tuple[List[int], List[int]]:
        """Entry and exit times ``(tin, tout)`` of a preorder walk of the tree.

        ``u`` lies in the subtree of ``a`` — equivalently, ``a`` lies on
        ``π(s, u)`` — iff ``tin[a] <= tin[u] < tout[a]``.  Unreached
        vertices carry ``-1`` in both lists, so they lie in no subtree
        and no vertex lies in theirs.  The lists are shared; do not
        mutate them.
        """
        idx = self.index
        return idx.tin, idx.tout

    def subtree(self, v: int) -> List[int]:
        """All vertices in the subtree rooted at ``v`` (including ``v``),
        in preorder; ``[v]`` for an unreached ``v``."""
        self._result._check(v)
        idx = self.index
        lo = idx.tin[v]
        return idx.order[lo : idx.tout[v]] if lo >= 0 else [v]

    def subtree_below_edge(self, e: Sequence[int]) -> List[int]:
        """Vertices strictly below tree edge ``e`` (the deeper endpoint's subtree).

        These are exactly the targets whose ``π(s, v)`` uses ``e``, i.e.
        the vertices affected by the failure of ``e``.
        """
        u, v = e
        child = self.index.child(u, v) if self.reached(u) and self.reached(v) else -1
        if child < 0:
            raise GraphError(f"{tuple(e)} is not an edge of the BFS tree")
        return self.subtree(child)

    def edge_depth(self, e: Sequence[int]) -> int:
        """``dist(s, e)`` for a tree edge: the depth of its lower endpoint."""
        u, v = e
        du, dv = self._result.dist(u), self._result.dist(v)
        if du == float("inf") or dv == float("inf") or abs(du - dv) != 1:
            raise GraphError(f"{tuple(e)} does not join consecutive BFS layers")
        return int(max(du, dv))

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff ``a`` lies on ``π(s, v)`` (every vertex is its own
        ancestor); O(1) on the Euler intervals."""
        if not (self.reached(a) and self.reached(v)):
            return False
        tin, tout = self.euler_intervals()
        return tin[a] <= tin[v] < tout[a]

    def __repr__(self) -> str:
        return (
            f"BFSTree(source={self.source}, n={self.graph.n}, "
            f"height={self.height()})"
        )
