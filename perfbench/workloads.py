"""Seeded inputs of the four workloads.

The graphs are fixed (the package's own generators with their default
seed), so ``structure_edges`` must repeat exactly from run to run; the
run seed drives everything else: the fault sets sampled to check a
built structure, the request streams of the serve workloads and the
delta script of ``serve-churn``.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from reference import Edge, adjacency, bfs_tree_edges, norm

SOURCE = 0

#: ``repro build --graph`` spec of ``make_graph("er")``, whose structure
#: the serve workloads serve.
ER_SPEC = "er:n=1000,p=0.008"

#: ``serve-read`` mix: op shares, and the size of one ``batch`` request.
READ_MIX = (("point", 0.85), ("path", 0.10), ("batch", 0.05))
BATCH_SIZE = 64
#: Closed-loop connections of ``serve-read`` (and of the warm-up).
READ_CONNS = 2
#: ``serve-churn`` cycle: this many ``point`` reads, then one ``delta``.
CHURN_READS = 20
#: Forward deltas per churn period; the next as many undo them in
#: reverse order, so the served structure is periodic and the workload
#: stays stationary however many deltas a run completes.
CHURN_FORWARD = 128
#: Fault sets sampled per built structure (plus the fault-free one).
BUILD_CHECK_PAIRS = 120


def make_graph(name: str):
    """Generate a workload graph with the package's generators."""
    from repro.generators import erdos_renyi, tree_plus_chords

    if name == "chords":
        return tree_plus_chords(1000, 300)
    if name == "er":
        return erdos_renyi(1000, 0.008)
    raise ValueError(f"unknown graph {name!r}")


def graph_edges(graph) -> List[Edge]:
    """Sorted normalized edge list of a package graph."""
    return sorted(norm(u, v) for u, v in graph.edges())


def build_fault_sets(seed: int, n: int, g_edges: Sequence[Edge]) -> List[List[Edge]]:
    """Fault sets checked on every built structure.

    The empty set, then dual-fault pairs whose first fault ``e1`` is a
    ``T0`` edge.  Half of the second faults lie on the BFS tree of
    ``G \\ {e1}`` (the replacement routes, where a missing ``H`` edge
    shows), the other half are uniform ``G`` edges.
    """
    rng = random.Random(f"build-check:{seed}")
    adj = adjacency(n, g_edges)
    tree = bfs_tree_edges(adj, SOURCE)
    sets: List[List[Edge]] = [[]]
    for _ in range(BUILD_CHECK_PAIRS):
        e1 = tree[rng.randrange(len(tree))]
        if rng.random() < 0.5:
            pool = bfs_tree_edges(adj, SOURCE, frozenset([e1]))
        else:
            pool = [e for e in g_edges if e != e1]
        sets.append([e1, pool[rng.randrange(len(pool))]])
    return sets


def split_tree(n: int, h_edges: Sequence[Edge]) -> Tuple[List[Edge], List[Edge]]:
    """``(T0 edges, other H edges)`` of a structure, both sorted."""
    tree = sorted(bfs_tree_edges(adjacency(n, h_edges), SOURCE))
    tree_set = set(tree)
    return tree, sorted(e for e in h_edges if e not in tree_set)


class FaultMix:
    """0/1/2 faults w.p. 1/4, 1/4, 1/2; each fault is a ``T0`` edge or
    another ``H`` edge with equal odds."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def draw(self, tree: Sequence[Edge], other: Sequence[Edge]) -> List[List[int]]:
        """One fault list in wire form (``[[u, v], ...]``)."""
        rng = self.rng
        r = rng.random()
        k = 0 if r < 0.25 else (1 if r < 0.5 else 2)
        faults: List[Edge] = []
        while len(faults) < k:
            pool = tree if (rng.random() < 0.5 or not other) else other
            e = pool[rng.randrange(len(pool))]
            if e not in faults:
                faults.append(e)
        return [list(e) for e in faults]


class ReadStream:
    """The seeded ``serve-read`` request stream of one connection."""

    def __init__(self, seed: int, conn: int, n: int, tree, other) -> None:
        self.rng = random.Random(f"serve-read:{seed}:{conn}")
        self.faults = FaultMix(self.rng)
        self.n = n
        self.tree = tree
        self.other = other

    def _query(self) -> dict:
        return {
            "source": SOURCE,
            "target": self.rng.randrange(1, self.n),
            "faults": self.faults.draw(self.tree, self.other),
        }

    def point(self) -> Tuple[str, dict]:
        """One ``point`` request."""
        return "point", self._query()

    def next(self) -> Tuple[str, dict]:
        """The next ``(op, fields)`` request of the mix."""
        r = self.rng.random()
        if r < READ_MIX[0][1]:
            return self.point()
        if r < READ_MIX[0][1] + READ_MIX[1][1]:
            return "path", self._query()
        return "batch", {"queries": [self._query() for _ in range(BATCH_SIZE)]}


def delta_script(seed: int, h_edges: Sequence[Edge], g_edges: Sequence[Edge]) -> List[Tuple[Edge, Edge]]:
    """``(removed H edge, added G \\ H edge)`` per delta, one full period.

    ``CHURN_FORWARD`` random swaps, then the same swaps undone in
    reverse order: ``|H|`` stays constant, ``H ⊆ G`` holds throughout,
    and the structure returns to its start at the end of the period.
    """
    rng = random.Random(f"serve-churn-script:{seed}")
    h = set(h_edges)
    outside = sorted(set(g_edges) - h)
    inside = sorted(h)
    forward: List[Tuple[Edge, Edge]] = []
    for _ in range(CHURN_FORWARD):
        drop = inside.pop(rng.randrange(len(inside)))
        add = outside.pop(rng.randrange(len(outside)))
        inside.append(add)
        outside.append(drop)
        forward.append((drop, add))
    return forward + [(add, drop) for drop, add in reversed(forward)]


def churn_phases(h_edges: Sequence[Edge], script: Sequence[Tuple[Edge, Edge]]) -> List[frozenset]:
    """The served edge set before each delta of the period."""
    phases = []
    h = set(h_edges)
    for drop, add in script:
        phases.append(frozenset(h))
        h.discard(drop)
        h.add(add)
    if h != set(h_edges):
        raise ValueError("a churn period must restore the structure")
    return phases


class ChurnStream:
    """The seeded ``serve-churn`` cycle: ``CHURN_READS`` reads, one delta.

    ``phase`` is the index of the delta the server has absorbed last
    plus one (mod the period): reads are drawn from, and checked
    against, ``phases[phase]``.
    """

    def __init__(self, seed: int, n: int, phases: Sequence[frozenset], script) -> None:
        self.rng = random.Random(f"serve-churn:{seed}")
        self.faults = FaultMix(self.rng)
        self.n = n
        self.script = script
        self.splits = [split_tree(n, sorted(p)) for p in phases]
        self.phase = 0
        self.step = 0

    def next(self) -> Tuple[str, dict, int]:
        """The next ``(op, fields, phase the reply reflects)``."""
        if self.step < CHURN_READS:
            self.step += 1
            tree, other = self.splits[self.phase]
            fields = {
                "source": SOURCE,
                "target": self.rng.randrange(1, self.n),
                "faults": self.faults.draw(tree, other),
            }
            return "point", fields, self.phase
        self.step = 0
        drop, add = self.script[self.phase]
        self.phase = (self.phase + 1) % len(self.script)
        return "delta", {"adds": [list(add)], "removes": [list(drop)]}, self.phase
