"""Path algebra used throughout the paper.

The paper manipulates paths constantly: ``LastE(P)`` (the last edge of a
path), ``P[v_i, v_j]`` (subpaths), ``P1 ∘ P2`` (concatenation), lengths,
divergence points, and detour segments.  :class:`Path` packages a vertex
sequence with exactly those operations.

A :class:`Path` is a sequence of **distinct** vertices; edges are implied
between consecutive vertices.  Lengths are counted in edges, matching
``|P|`` in the paper.  Paths are immutable and hashable so they can live
in sets and dict keys.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import PathError
from repro.core.graph import Edge, normalize_edge


class Path:
    """An oriented simple path, stored as its vertex sequence.

    The orientation matters: paths are "directed away from the source"
    as in the paper, even though the underlying graph is undirected.
    """

    __slots__ = ("_vertices", "_pos")

    def __init__(self, vertices: Sequence[int]) -> None:
        vs = tuple(vertices)
        if not vs:
            raise PathError("a path must contain at least one vertex")
        if len(set(vs)) != len(vs):
            seen: Set[int] = set()
            for v in vs:
                if v in seen:
                    raise PathError(f"vertex {v} repeats in path {list(vs)}")
                seen.add(v)
        self._vertices: Tuple[int, ...] = vs
        # vertex -> position, built on first use (see _index): a path
        # that is only read as a vertex sequence never pays for it.
        self._pos: Optional[Dict[int, int]] = None

    @property
    def _index(self) -> Dict[int, int]:
        """The vertex → position map, built on first use."""
        pos = self._pos
        if pos is None:
            pos = self._pos = {v: i for i, v in enumerate(self._vertices)}
        return pos

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        """First vertex of the path."""
        return self._vertices[0]

    @property
    def target(self) -> int:
        """Last vertex of the path."""
        return self._vertices[-1]

    @property
    def vertices(self) -> Tuple[int, ...]:
        """The vertex sequence."""
        return self._vertices

    def __len__(self) -> int:
        """``|P|``: the number of *edges* on the path."""
        return len(self._vertices) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __contains__(self, item) -> bool:
        """Vertex membership for ints, *undirected* edge membership for pairs."""
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(item[0], item[1])
        return item in self._index

    def __getitem__(self, i):
        return self._vertices[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        if len(self._vertices) <= 8:
            body = "-".join(map(str, self._vertices))
        else:
            head = "-".join(map(str, self._vertices[:3]))
            tail = "-".join(map(str, self._vertices[-3:]))
            body = f"{head}-...-{tail}"
        return f"Path({body}; len={len(self)})"

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def edges(self) -> List[Edge]:
        """All edges of the path, normalized, in path order."""
        vs = self._vertices
        return [normalize_edge(a, b) for a, b in zip(vs, vs[1:])]

    def edge_set(self) -> Set[Edge]:
        """The edges of the path as a set."""
        return set(self.edges())

    def directed_edges(self) -> List[Tuple[int, int]]:
        """Edges in traversal orientation (not normalized)."""
        vs = self._vertices
        return list(zip(vs, vs[1:]))

    def last_edge(self) -> Optional[Edge]:
        """``LastE(P)``: the last edge, or ``None`` for a single vertex."""
        if len(self._vertices) < 2:
            return None
        return normalize_edge(self._vertices[-2], self._vertices[-1])

    def first_edge(self) -> Optional[Edge]:
        """The first edge, or ``None`` for a single vertex."""
        if len(self._vertices) < 2:
            return None
        return normalize_edge(self._vertices[0], self._vertices[1])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` lies on the path."""
        index = self._index
        iu = index.get(u)
        iv = index.get(v)
        if iu is None or iv is None:
            return False
        return abs(iu - iv) == 1

    # ------------------------------------------------------------------
    # positions, subpaths, concatenation
    # ------------------------------------------------------------------
    def position(self, v: int) -> int:
        """Index of vertex ``v`` along the path (0-based)."""
        try:
            return self._index[v]
        except KeyError:
            raise PathError(f"vertex {v} not on {self!r}") from None

    def edge_position(self, e: Sequence[int]) -> int:
        """``dist(source, e, P)``: 1-based depth of edge ``e`` along ``P``.

        Matches the paper's ``dist(s, e)`` convention: the edge between
        positions ``i-1`` and ``i`` has depth ``i``.
        """
        u, v = e
        index = self._index
        iu = index.get(u)
        iv = index.get(v)
        if iu is None or iv is None or abs(iu - iv) != 1:
            raise PathError(f"edge {tuple(e)} not on {self!r}")
        return max(iu, iv)

    def subpath(self, u: int, v: int) -> "Path":
        """``P[u, v]``: the segment of the path from ``u`` to ``v``.

        The orientation follows vertex order on the path, so ``u`` may
        appear after ``v`` (yielding the reversed segment), matching the
        paper's free use of ``D[w, y]`` in either direction.
        """
        iu = self.position(u)
        iv = self.position(v)
        if iu <= iv:
            return Path(self._vertices[iu : iv + 1])
        return Path(self._vertices[iv : iu + 1][::-1])

    def prefix(self, v: int) -> "Path":
        """``P[source, v]``."""
        return Path(self._vertices[: self.position(v) + 1])

    def suffix(self, v: int) -> "Path":
        """``P[v, target]``."""
        return Path(self._vertices[self.position(v) :])

    def reversed(self) -> "Path":
        """The same path traversed in the opposite direction."""
        return Path(self._vertices[::-1])

    def concat(self, other: "Path") -> "Path":
        """``P1 ∘ P2``: concatenation, requiring ``P1.target == P2.source``.

        The junction vertex appears once in the result.  Raises
        :class:`PathError` if the result would revisit a vertex.
        """
        if self.target != other.source:
            raise PathError(
                f"cannot concatenate: {self!r} ends at {self.target}, "
                f"{other!r} starts at {other.source}"
            )
        return Path(self._vertices + other._vertices[1:])

    # ------------------------------------------------------------------
    # relations with other paths
    # ------------------------------------------------------------------
    def common_vertices(self, other: "Path") -> Set[int]:
        """``V(P1) ∩ V(P2)``."""
        if len(self._vertices) > len(other._vertices):
            self, other = other, self
        index = other._index
        return {v for v in self._vertices if v in index}

    def is_internally_disjoint(self, other: "Path", ignore: Iterable[int] = ()) -> bool:
        """True iff the paths share no vertices outside ``ignore``."""
        ignore_set = set(ignore)
        return not (self.common_vertices(other) - ignore_set)

    def first_common_vertex(self, other: "Path") -> Optional[int]:
        """``First(P1, P2)``: first vertex on *this* path also on ``other``."""
        index = other._index
        for v in self._vertices:
            if v in index:
                return v
        return None

    def last_common_vertex(self, other: "Path") -> Optional[int]:
        """``Last(P1, P2)``: last vertex on *this* path also on ``other``."""
        index = other._index
        for v in reversed(self._vertices):
            if v in index:
                return v
        return None

    def divergence_point(self, other: "Path") -> Optional[int]:
        """First divergence point of this path from ``other``.

        Per the paper (Sec. 2): a vertex ``w`` on both paths such that
        the successor of ``w`` on *this* path is not on ``other``.
        Returns the first such vertex in path order, or ``None``.
        """
        vs = self._vertices
        index = other._index
        for i, w in enumerate(vs[:-1]):
            if w in index and vs[i + 1] not in index:
                return w
        return None

    def divergence_points(self, other: "Path") -> List[int]:
        """All divergence points of this path from ``other``, in order."""
        vs = self._vertices
        index = other._index
        out = []
        for i, w in enumerate(vs[:-1]):
            if w in index and vs[i + 1] not in index:
                out.append(w)
        return out


def path_from_parents(parents: Sequence[int], target: int) -> Path:
    """Reconstruct a path from a parent array produced by a BFS.

    ``parents[source] == source`` by convention; entries of ``-1`` mean
    unreached.  Raises :class:`PathError` if ``target`` was not reached.
    """
    if parents[target] == -1:
        raise PathError(f"vertex {target} unreachable (parent == -1)")
    out = [target]
    v = target
    while parents[v] != v:
        v = parents[v]
        if v == -1 or len(out) > len(parents):
            raise PathError("corrupt parent array")
        out.append(v)
    out.reverse()
    return Path(out)
