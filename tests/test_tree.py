"""Tests for canonical BFS trees and their :class:`TreeIndex`."""

import random

import pytest

from repro.core.canonical import INF, PythonDistanceOracle
from repro.core.csr import csr_of
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Graph
from repro.core.tree import BFSTree
from repro.generators import grid_graph, path_graph

from tests.zoo import zoo_params

ENGINES = ["lex-csr", "lex", "perturbed"]


@zoo_params()
def test_tree_is_shortest_path_tree(name, graph):
    tree = BFSTree(graph, 0)
    for v in graph.vertices():
        if not tree.reached(v):
            continue
        pi = tree.pi(v)
        assert pi.source == 0 and pi.target == v
        assert len(pi) == tree.depth(v)


@zoo_params()
def test_tree_edge_count(name, graph):
    tree = BFSTree(graph, 0)
    reachable = len(tree.vertices())
    assert len(tree.edges()) == reachable - 1


@zoo_params()
def test_parent_depth_relation(name, graph):
    tree = BFSTree(graph, 0)
    for v in tree.vertices():
        p = tree.parent(v)
        if v == 0:
            assert p == 0
        else:
            assert tree.depth(p) == tree.depth(v) - 1
            assert graph.has_edge(p, v)


def test_pi_cached(small_er):
    tree = BFSTree(small_er, 0)
    assert tree.pi(5) is tree.pi(5)


def test_children_and_subtree():
    g = path_graph(5)
    tree = BFSTree(g, 0)
    assert tree.children(0) == [1]
    assert tree.children(4) == []
    assert tree.subtree(2) == [2, 3, 4]


def test_subtree_below_edge():
    g = grid_graph(2, 3)
    tree = BFSTree(g, 0)
    e = (0, 1)
    below = set(tree.subtree_below_edge(e))
    assert 1 in below
    assert 0 not in below
    # every vertex below uses the edge on its pi-path
    for v in below:
        assert (0, 1) in tree.pi(v).edge_set()


def test_subtree_below_edge_rejects_nontree():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tree = BFSTree(g, 0)
    non_tree = set(g.edges()) - tree.edges()
    for e in non_tree:
        with pytest.raises(GraphError):
            tree.subtree_below_edge(e)


def test_edge_depth():
    g = path_graph(4)
    tree = BFSTree(g, 0)
    assert tree.edge_depth((0, 1)) == 1
    assert tree.edge_depth((2, 3)) == 3
    # An intra-layer edge does not join consecutive BFS layers.
    cyc = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(GraphError):
        BFSTree(cyc, 0).edge_depth((2, 3))


def test_is_ancestor():
    g = path_graph(5)
    tree = BFSTree(g, 0)
    assert tree.is_ancestor(1, 4)
    assert tree.is_ancestor(4, 4)
    assert not tree.is_ancestor(4, 1)


def below(tree, r):
    """``{u : r on π(s, u)}``, straight from the paths."""
    return {u for u in tree.vertices() if r in tree.pi(u).vertices}


@zoo_params()
def test_euler_intervals_match_tree_paths(name, graph):
    """The O(1) interval test is "a lies on π(s, v)", vertex for vertex,
    and each interval spans exactly the vertices whose π passes
    through its root."""
    for source in (0, graph.n - 1):
        tree = BFSTree(graph, source)
        tin, tout = tree.euler_intervals()
        for v in graph.vertices():
            on_pi = set(tree.pi(v).vertices)
            for a in graph.vertices():
                assert tree.is_ancestor(a, v) == (a in on_pi)
            sub = tree.subtree(v)
            members = below(tree, v)
            assert sub[0] == v and len(sub) == len(set(sub))
            assert set(sub) == members
            assert tout[v] - tin[v] == len(members)


@pytest.mark.parametrize("engine", ENGINES)
@zoo_params()
def test_index_child_names_tree_edges(name, graph, engine):
    tree = BFSTree(graph, 0, engine)
    index = tree.index
    tree_edges = tree.edges()
    for a, b in graph.edges():
        if (a, b) in tree_edges:
            deeper = a if tree.depth(a) > tree.depth(b) else b
            assert index.child(a, b) == index.child(b, a) == deeper
            assert tree.subtree_below_edge((b, a)) == tree.subtree(deeper)
        else:
            assert index.child(a, b) == index.child(b, a) == -1


@zoo_params()
def test_index_region_is_union_of_subtrees(name, graph):
    tree = BFSTree(graph, 0)
    index = tree.index
    rng = random.Random(graph.n * 7 + graph.m)
    vertices = tree.vertices()
    for k in (0, 1, 2, 3, len(vertices)):
        for _ in range(5):
            roots = rng.sample(vertices, k)
            region = index.region(roots)
            assert len(region) == len(set(region))
            assert set(region) == set().union(*(below(tree, r) for r in roots))


@pytest.mark.parametrize("engine", ENGINES)
@zoo_params()
def test_index_region_search_is_exact(name, graph, engine):
    """Over the region below a fault set's tree edges, the seeded search
    gives every target its exact ``dist(s, t, G \\ F)``, on any
    engine's shortest-path tree."""
    index = BFSTree(graph, 0, engine).index
    csr = csr_of(graph)
    reference = PythonDistanceOracle(graph)
    edges = sorted(graph.edges())
    targets = list(graph.vertices())
    rng = random.Random(graph.n * 31 + graph.m)
    for _ in range(30):
        faults = rng.sample(edges, rng.randrange(3))
        roots = [index.child(a, b) for a, b in faults]
        region = index.region(r for r in roots if r >= 0)
        banned = tuple(csr.edge_index[e] for e in faults)
        got = index.region_search(csr.arcs, region, banned, targets)
        want = [reference.distance(0, t, faults) for t in targets]
        assert [INF if d == -1 else d for d in got] == want, faults


def test_out_of_range_vertices_rejected():
    """Negative vertices do not alias ``n + v``, and large ones raise
    the typed error, on every structural accessor."""
    tree = BFSTree(path_graph(5), 0)
    for v in (-2, -1, 5, 7):
        with pytest.raises(GraphError):
            tree.children(v)
        with pytest.raises(GraphError):
            tree.subtree(v)
    for e in ((-1, 4), (4, -1), (-1, 0), (4, 5), (3, 9)):
        with pytest.raises(GraphError):
            tree.subtree_below_edge(e)


def test_unreached_vertex_structure():
    tree = BFSTree(Graph(4, [(0, 1), (2, 3)]), 0)
    assert tree.children(2) == [] and tree.subtree(2) == [2]
    assert tree.edges() == {(0, 1)}
    assert tree.index.region([2, 3]) == []
    with pytest.raises(GraphError):
        tree.subtree_below_edge((2, 3))


def test_unreachable_vertices():
    g = Graph(4, [(0, 1)])
    tree = BFSTree(g, 0)
    assert not tree.reached(3)
    assert tree.depth(3) == INF
    with pytest.raises(DisconnectedError):
        tree.pi(3)
    assert 3 not in tree.vertices()
    assert not tree.is_ancestor(0, 3)


def test_height():
    assert BFSTree(path_graph(6), 0).height() == 5
    assert BFSTree(path_graph(6), 3).height() == 3


def test_invalid_source():
    with pytest.raises(GraphError):
        BFSTree(path_graph(3), 7)


def test_repr():
    assert "BFSTree" in repr(BFSTree(path_graph(3), 0))
