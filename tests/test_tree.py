"""Tests for canonical BFS trees."""

import pytest

from repro.core.canonical import INF
from repro.core.errors import DisconnectedError, GraphError
from repro.core.graph import Graph
from repro.core.tree import BFSTree
from repro.generators import erdos_renyi, grid_graph, path_graph

from tests.zoo import zoo_params


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


@zoo_params()
def test_euler_intervals_match_tree_paths(name, graph):
    """The O(1) interval test is "a lies on π(s, v)", vertex for vertex,
    and each interval spans exactly its subtree."""
    for source in (0, graph.n - 1):
        tree = BFSTree(graph, source)
        tin, tout = tree.euler_intervals()
        for v in graph.vertices():
            on_pi = set(tree.pi(v).vertices)
            for a in graph.vertices():
                assert tree.is_ancestor(a, v) == (a in on_pi)
            assert tout[v] - tin[v] == len(tree.subtree(v))


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
