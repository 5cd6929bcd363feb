"""White-box tests for Algorithm Cons2FTBFS's internal steps."""

import random
from collections import Counter

import pytest

from repro.core.canonical import INF
from repro.core.graph import Graph
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs.cons2ftbfs import (
    _DepthRule,
    _fault_pairs,
    _incident_tree_edges,
    build_cons2ftbfs,
    feasibility_probes,
    new_edge_profile,
)
from repro.generators import erdos_renyi, path_graph, tree_plus_chords
from repro.replacement.base import SourceContext

from tests.zoo import CONS2_SHAPES, graph_zoo


class TestIncidentTreeEdges:
    def test_root_and_leaf(self):
        g = path_graph(4)
        ctx = SourceContext(g, 0)
        assert _incident_tree_edges(ctx.tree, 1) == {(0, 1), (1, 2)}
        assert _incident_tree_edges(ctx.tree, 3) == {(2, 3)}

    def test_branching(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        ctx = SourceContext(g, 0)
        assert _incident_tree_edges(ctx.tree, 1) == {(0, 1), (1, 2), (1, 3)}


class TestAccounting:
    @pytest.fixture(scope="class")
    def run(self):
        g = tree_plus_chords(24, 12, seed=41)
        return g, build_cons2ftbfs(g, 0, keep_records=True)

    def test_phase_counts_sum_to_new_edges(self, run):
        g, h = run
        for rec in h.stats["records"]:
            total = rec.new_from_single + rec.new_from_pipi + rec.new_from_pid
            assert total == len(rec.new_edges)

    def test_new_edges_are_incident_to_vertex(self, run):
        g, h = run
        for rec in h.stats["records"]:
            for e in rec.new_edges:
                assert rec.vertex in e

    def test_new_edges_not_in_tree(self, run):
        g, h = run
        tree_edges = SourceContext(g, 0).tree.edges()
        for rec in h.stats["records"]:
            incident_tree = _incident_tree_edges(
                SourceContext(g, 0).tree, rec.vertex
            )
            assert not (rec.new_edges & incident_tree)

    def test_structure_is_union_of_tree_and_new(self, run):
        g, h = run
        tree_edges = SourceContext(g, 0).tree.edges()
        rebuilt = set(tree_edges)
        for rec in h.stats["records"]:
            rebuilt |= rec.new_edges
        assert rebuilt == set(h.edges)

    def test_new_ending_counts_match_pid_phase(self, run):
        g, h = run
        for rec in h.stats["records"]:
            # every new pid edge comes from a new-ending record
            assert rec.new_from_pid <= len(rec.new_ending)

    def test_profile_sorted(self, run):
        g, h = run
        profile = new_edge_profile(h)
        assert profile == sorted(profile, reverse=True)
        assert sum(profile) == sum(h.stats["new_edges_per_vertex"].values())


class TestStep3Ordering:
    def test_pairs_enumerated_deepest_first(self):
        """The shared step-2/3 pair walk is complete and in the paper's
        order: step-2 pairs top to bottom, upper π-edge first; step-3
        ``(e, t)`` pairs by decreasing depth of ``e`` on π, then of
        ``t`` on the detour of ``e``."""
        g = tree_plus_chords(18, 9, seed=42)
        ctx = SourceContext(g, 0)
        from repro.replacement.single import all_single_replacements

        walked = 0
        for v in list(ctx.tree.vertices())[1:8]:
            pi_path = ctx.pi(v)
            singles = all_single_replacements(ctx, v)
            reps = [rep for rep in singles.values() if rep is not None]
            pipi, pid = _fault_pairs(singles)
            assert len(pipi) == len(reps) * (len(reps) - 1) // 2
            assert len(pid) == sum(len(rep.detour) for rep in reps)
            keys = [
                (pi_path.edge_position(u.fault), pi_path.edge_position(w.fault))
                for u, w in pipi
            ]
            assert all(a < b for a, b in keys) and keys == sorted(keys)
            keys = [
                (-pi_path.edge_position(rep.fault), -rep.detour.edge_position(t))
                for rep, t in pid
            ]
            assert keys == sorted(set(keys))
            walked += len(pid)
        assert walked


#: The zoo plus the Cons2FTBFS build shapes, as graph factories; a
#: shape is big enough that the rule must decide both ways.
STEP3_CASES = [
    pytest.param(lambda g=g: g, False, id=name) for name, g in graph_zoo()
] + [
    pytest.param(make, True, id="cons2" + ("-" + key.rstrip("-") if key else ""))
    for key, make in CONS2_SHAPES.items()
]


@pytest.mark.parametrize("engine", ["lex", "lex-csr"])
@pytest.mark.parametrize("make_graph,big", STEP3_CASES)
def test_depth_rule_agrees_with_point_query(make_graph, big, engine):
    """Wherever the T0-depth rule decides a step-3 pair, its answer is
    the point query's: ``dist(s, v, G \\ B) == target`` for
    ``B = F ∪ (E(v) \\ collected)``.  The proof holds for any
    collected subset of E(v), so besides the start state (the tree
    edges at v) the check draws E(v) itself and random subsets."""
    g = make_graph()
    shared_cache().clear()
    ctx = SourceContext(g, 0, engine)
    rule = _DepthRule(ctx.tree)
    rng = random.Random(g.n * 131 + g.m)
    answers = Counter()
    for v, faults, certs in feasibility_probes(ctx):
        if certs is not None:
            continue  # a step-2 probe
        target = ctx.distance(v, banned_edges=faults)
        if target == INF:
            continue
        incident = set(g.incident_edges(v))
        for collected in (
            _incident_tree_edges(ctx.tree, v),
            incident,
            {e for e in incident if rng.random() < 0.5},
        ):
            entries = [rule.entry(v, e) for e in collected]
            answer = rule.decide(entries, faults, target)
            answers[answer] += 1
            if answer is None:
                continue
            ban = (incident - collected) | set(faults)
            probe = ctx.distance(v, banned_edges=ban) == target
            assert answer == probe, (v, faults, sorted(collected))
    if big:
        assert answers[True] and answers[False], answers


class TestDeterminism:
    def test_rebuild_identical(self):
        g = erdos_renyi(20, 0.18, seed=44)
        a = build_cons2ftbfs(g, 0)
        b = build_cons2ftbfs(g, 0)
        assert a.edges == b.edges
        assert a.stats["new_edges_per_vertex"] == b.stats["new_edges_per_vertex"]

    def test_engine_choice_changes_little(self):
        from repro.core.canonical import PerturbedShortestPaths

        g = erdos_renyi(18, 0.2, seed=45)
        lex = build_cons2ftbfs(g, 0)
        per = build_cons2ftbfs(g, 0, engine=PerturbedShortestPaths(g, seed=1))
        # both valid; sizes within a small factor of each other
        assert abs(lex.size - per.size) <= max(lex.size, per.size) * 0.25


def test_pipi_phase_fires_on_adversarial_graph():
    """Step 2 genuinely contributes new edges on G*_2 (class A of E9)."""
    from repro.lowerbound import build_lower_bound_graph

    inst = build_lower_bound_graph(92, 2)
    h = build_cons2ftbfs(inst.graph, inst.sources[0], keep_records=True)
    assert h.stats["new_edges_by_phase"]["pipi"] >= 1
    pipi_records = [
        r for rec in h.stats["records"] for r in rec.pipi_records
    ]
    assert pipi_records
    for r in pipi_records:
        assert r.kind == "pipi"
