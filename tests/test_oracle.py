"""Tests for the FT query oracle."""

import pytest

from repro.core.canonical import INF, DistanceOracle
from repro.core.errors import GraphError
from repro.ftbfs import FTQueryOracle, build_cons2ftbfs, build_single_ftbfs
from repro.generators import all_fault_sets, erdos_renyi, sample_queries


def test_oracle_matches_ground_truth_exhaustive():
    g = erdos_renyi(12, 0.25, seed=1)
    h = build_cons2ftbfs(g, 0)
    oracle = FTQueryOracle(h)
    truth = DistanceOracle(g)
    for faults in [()] + list(all_fault_sets(g, 2)):
        for v in range(g.n):
            assert oracle.distance(0, v, faults) == truth.distance(
                0, v, banned_edges=faults
            )


def test_oracle_paths_valid():
    g = erdos_renyi(14, 0.25, seed=2)
    h = build_cons2ftbfs(g, 0)
    oracle = FTQueryOracle(h)
    truth = DistanceOracle(g)
    for v, faults in sample_queries(g, 2, 30, seed=3):
        d = truth.distance(0, v, banned_edges=faults)
        if d == INF or v == 0:
            continue
        p = oracle.path(0, v, faults)
        assert len(p) == d
        assert p.source == 0 and p.target == v
        assert not (set(p.edges()) & {tuple(f) for f in faults})
        for e in p.edges():
            assert e in h.edges


def test_oracle_batch_distances():
    g = erdos_renyi(12, 0.3, seed=4)
    h = build_cons2ftbfs(g, 0)
    oracle = FTQueryOracle(h)
    truth = DistanceOracle(g)
    faults = sorted(g.edges())[:2]
    assert oracle.batch_distances(0, faults) == truth.distances_from(
        0, banned_edges=faults
    )


def test_oracle_rejects_over_budget():
    g = erdos_renyi(10, 0.3, seed=5)
    h = build_single_ftbfs(g, 0)
    oracle = FTQueryOracle(h)
    edges = sorted(g.edges())
    with pytest.raises(GraphError):
        oracle.distance(0, 3, edges[:2])


def test_oracle_rejects_foreign_source():
    g = erdos_renyi(10, 0.3, seed=6)
    oracle = FTQueryOracle(build_cons2ftbfs(g, 0))
    with pytest.raises(GraphError):
        oracle.distance(1, 3)


def test_oracle_rejects_out_of_range_target():
    g = erdos_renyi(40, 0.12, seed=9)
    oracle = FTQueryOracle(build_cons2ftbfs(g, 0))
    for target in (g.n, 999, -1):
        with pytest.raises(GraphError, match="not a vertex"):
            oracle.distance(0, target)
        with pytest.raises(GraphError, match="not a vertex"):
            oracle.path(0, target)
        with pytest.raises(GraphError, match="not a vertex"):
            oracle.distances_bulk(0, [1, target])
    assert oracle.distance(0, g.n - 1) < INF


def test_oracle_max_faults_property():
    g = erdos_renyi(10, 0.3, seed=7)
    assert FTQueryOracle(build_cons2ftbfs(g, 0)).max_faults == 2
    assert FTQueryOracle(build_single_ftbfs(g, 0)).max_faults == 1
