"""Canonical BFS trees ``T0(s)`` and the paths ``π(s, v)``.

Algorithm ``Cons2FTBFS`` starts from the BFS tree
``T0 = ⋃_v π(s, v)`` where ``π(s, v) = SP(s, v, G, W)`` is the canonical
shortest path.  :class:`BFSTree` wraps one canonical search result and
serves the per-vertex paths, depths, tree edges and subtree queries the
constructions need.  Its Euler intervals make "does ``π(s, v)`` pass
through ``a``" an O(1) test (:meth:`BFSTree.is_ancestor`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.canonical import UNREACHED, SearchResult, make_engine
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Edge, Graph, normalize_edge
from repro.core.paths import Path


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
    :class:`~repro.core.errors.DisconnectedError`.
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
        self._children: Optional[List[List[int]]] = None
        self._euler: Optional[Tuple[List[int], List[int]]] = None
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
        out: Set[Edge] = set()
        for v in self._result.reachable_vertices():
            p = self._result.parent(v)
            if p != v:
                out.add(normalize_edge(p, v))
        return frozenset(out)

    def height(self) -> int:
        """Depth of the deepest reachable vertex (the BFS tree depth ``D``)."""
        ds = [d for d in self._result.distances() if d != UNREACHED]
        return max(ds) if ds else 0

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _index(self) -> None:
        """Build the children table and the Euler intervals, once."""
        n = self.graph.n
        res = self._result
        kids: List[List[int]] = [[] for _ in range(n)]
        for w in res.reachable_vertices():
            p = res.parent(w)
            if p != w:
                kids[p].append(w)
        for lst in kids:
            lst.sort()
        # Preorder numbering: a subtree is a contiguous run of entry
        # times, so tout[v] = tin[v] + |subtree(v)|.
        tin = [-1] * n
        tout = [-1] * n
        order: List[int] = []
        stack = [self.source]
        while stack:
            u = stack.pop()
            tin[u] = len(order)
            order.append(u)
            stack.extend(reversed(kids[u]))
        size = [1] * n
        for u in reversed(order):
            if u != self.source:
                size[res.parent(u)] += size[u]
            tout[u] = tin[u] + size[u]
        self._children = kids
        self._euler = (tin, tout)

    def children(self, v: int) -> List[int]:
        """Children of ``v`` in the tree, sorted."""
        if self._children is None:
            self._index()
        return self._children[v]

    def euler_intervals(self) -> Tuple[List[int], List[int]]:
        """Entry and exit times ``(tin, tout)`` of a preorder walk of the tree.

        ``u`` lies in the subtree of ``a`` — equivalently, ``a`` lies on
        ``π(s, u)`` — iff ``tin[a] <= tin[u] < tout[a]``.  Unreached
        vertices carry ``-1`` in both lists, so they lie in no subtree
        and no vertex lies in theirs.  The lists are shared; do not
        mutate them.
        """
        if self._euler is None:
            self._index()
        return self._euler

    def subtree(self, v: int) -> List[int]:
        """All vertices in the subtree rooted at ``v`` (including ``v``)."""
        out = [v]
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.children(u):
                out.append(w)
                stack.append(w)
        return out

    def subtree_below_edge(self, e: Sequence[int]) -> List[int]:
        """Vertices strictly below tree edge ``e`` (the deeper endpoint's subtree).

        These are exactly the targets whose ``π(s, v)`` uses ``e``, i.e.
        the vertices affected by the failure of ``e``.
        """
        u, v = e
        du, dv = self._result.dist(u), self._result.dist(v)
        child = v if dv > du else u
        parent = u if child == v else v
        if self._result.parent(child) != parent:
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
