"""Independent correctness reference: plain stdlib BFS over edge lists.

Nothing here imports the package under test.  Graphs are adjacency
lists built from normalized ``(u, v)`` edge tuples with ``u < v``;
distances are hop counts with ``-1`` for unreachable vertices, the
same convention the server's ``hops`` field uses.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def norm(u: int, v: int) -> Edge:
    """The normalized form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges: Iterable[Edge]) -> List[List[int]]:
    """Sorted adjacency lists of the graph on ``range(n)``."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def bfs(adj: List[List[int]], source: int, banned: FrozenSet[Edge] = frozenset()) -> List[int]:
    """Hop distances from ``source`` avoiding the ``banned`` edges."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0 and (not banned or norm(u, w) not in banned):
                dist[w] = du
                queue.append(w)
    return dist


def bfs_tree_edges(
    adj: List[List[int]], source: int, banned: FrozenSet[Edge] = frozenset()
) -> List[Edge]:
    """Edges of the first-discoverer BFS tree from ``source`` avoiding
    the ``banned`` edges."""
    seen = [False] * len(adj)
    seen[source] = True
    queue = deque([source])
    tree: List[Edge] = []
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w] and (not banned or norm(u, w) not in banned):
                seen[w] = True
                tree.append(norm(u, w))
                queue.append(w)
    return tree


class DistanceReference:
    """Memoized ``dist(source, ·, graph \\ F)`` vectors of one graph."""

    def __init__(self, n: int, edges: Iterable[Edge], source: int = 0) -> None:
        self.edges = frozenset(norm(u, v) for u, v in edges)
        self.adj = adjacency(n, self.edges)
        self.source = source
        self._memo: Dict[FrozenSet[Edge], List[int]] = {}

    def dists(self, faults: Iterable[Sequence[int]] = ()) -> List[int]:
        """The distance vector under fault set ``faults``."""
        key = frozenset(norm(u, v) for u, v in faults)
        vec = self._memo.get(key)
        if vec is None:
            vec = bfs(self.adj, self.source, key)
            self._memo[key] = vec
        return vec


def check_structure(
    n: int,
    g_edges: Iterable[Edge],
    h_edges: Iterable[Edge],
    fault_sets: Sequence[Sequence[Edge]],
    source: int = 0,
) -> Tuple[int, List[str]]:
    """Compare ``dist(s, ·, H \\ F)`` with ``dist(s, ·, G \\ F)``.

    Every target is compared for every fault set.  Returns
    ``(checked fault sets, mismatch descriptions)``; an ``H`` edge
    missing from ``G`` is a mismatch too.
    """
    g_set = frozenset(norm(u, v) for u, v in g_edges)
    h_set = frozenset(norm(u, v) for u, v in h_edges)
    problems: List[str] = []
    stray = sorted(h_set - g_set)
    if stray:
        problems.append(f"H holds {len(stray)} edges not in G, e.g. {stray[0]}")
    g_adj = adjacency(n, g_set)
    h_adj = adjacency(n, h_set)
    for faults in fault_sets:
        banned = frozenset(norm(u, v) for u, v in faults)
        want = bfs(g_adj, source, banned)
        got = bfs(h_adj, source, banned)
        if got != want:
            bad = next(v for v in range(n) if got[v] != want[v])
            problems.append(
                f"F={sorted(banned)}: dist(H\\F, {bad})={got[bad]} "
                f"!= dist(G\\F, {bad})={want[bad]}"
            )
    return len(fault_sets), problems


def check_path(
    vertices: Optional[Sequence[int]],
    hops: int,
    source: int,
    target: int,
    edges: FrozenSet[Edge],
    faults: Iterable[Sequence[int]],
    expected: int,
) -> Optional[str]:
    """Why a served ``path`` reply is wrong, or ``None`` if it is right.

    The reply must report the reference distance and, when reachable,
    be a walk from ``source`` to ``target`` over surviving ``edges``
    whose length is the reported hop count.
    """
    if hops != expected:
        return f"path to {target}: hops {hops} != reference {expected}"
    if expected < 0:
        return None if vertices is None else f"path to {target}: vertices for a cut pair"
    if not vertices or vertices[0] != source or vertices[-1] != target:
        return f"path to {target}: endpoints {vertices[:1]}..{vertices[-1:]}"
    if len(vertices) - 1 != hops:
        return f"path to {target}: {len(vertices) - 1} edges but hops={hops}"
    banned = frozenset(norm(u, v) for u, v in faults)
    for a, b in zip(vertices, vertices[1:]):
        e = norm(a, b)
        if e not in edges or e in banned:
            return f"path to {target}: edge {e} is not a surviving edge"
    return None
