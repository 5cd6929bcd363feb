"""Scenario subsystem tests: topologies, blueprints, differential replay.

The headline here is the corpus conformance suite: every checked-in
blueprint under ``benchmarks/topologies/`` is replayed across all
canonical engines this host can run and both execution modes
(fresh-build vs ``apply_delta``) via :mod:`tests.diffcheck`, asserting
bit-identical deterministic report bodies — plus seed-determinism
guarantees across repeated expansion and ``REPRO_JOBS>1`` pool runs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.canonical import UNREACHABLE, normalize_distance, normalize_distances
from repro.core.errors import GraphError, VerificationError
from repro.core.scenario import (
    Scenario,
    assert_identical_reports,
    blueprint_from_dict,
    expand_blueprint,
    load_blueprint,
    report_signature,
    strip_volatile,
    sweep_blueprint,
)
from repro.core.topology import (
    fat_tree,
    load_edge_list,
    load_graphml,
    load_topology,
    ring_topology,
    topology_from_spec,
    torus_topology,
)
from tests.diffcheck import (
    CORPUS_DIR,
    WEIGHTED_ENGINES,
    available_engines,
    corpus_blueprints,
    replay_blueprint,
)


class TestSentinel:
    def test_normalize_distance(self):
        assert normalize_distance(-1) == UNREACHABLE
        assert normalize_distance(float("inf")) == UNREACHABLE
        assert normalize_distance(None) == UNREACHABLE
        assert normalize_distance(3) == 3
        assert normalize_distance(4.0) == 4
        assert isinstance(normalize_distance(4.0), int)

    def test_normalize_distances(self):
        assert normalize_distances([0, 2, -1]) == [0, 2, UNREACHABLE]


class TestTopologyLoaders:
    def test_graphml_abilene(self):
        topo = load_graphml(CORPUS_DIR / "abilene.graphml")
        assert (topo.n, topo.m) == (11, 14)
        # ids are assigned by sorting labels: stable naming map
        assert topo.names == tuple(sorted(topo.names))
        assert topo.names[0] == "ATLA"
        assert topo.vertex("NYCM") == topo.names.index("NYCM")
        e = topo.edge(("ATLA", "WASH"))
        assert topo.graph.has_edge(*e)
        assert topo.edge_name(e) == "ATLA-WASH"

    def test_graphml_errors(self, tmp_path):
        bad_xml = tmp_path / "bad.graphml"
        bad_xml.write_text("<graphml><graph><node id='a'>")
        with pytest.raises(GraphError) as err:
            load_graphml(bad_xml)
        assert "bad.graphml" in str(err.value)
        dangling = tmp_path / "dangling.graphml"
        dangling.write_text(
            "<graphml><graph>"
            "<node id='a'/><node id='b'/>"
            "<edge source='a' target='zz'/>"
            "</graph></graphml>"
        )
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            load_graphml(dangling)
        not_graphml = tmp_path / "x.xml"
        not_graphml.write_text("<svg></svg>")
        with pytest.raises(GraphError, match="not <graphml>"):
            load_graphml(not_graphml)

    def test_edge_list_named(self):
        topo = load_edge_list(CORPUS_DIR / "nsfnet.edges")
        assert (topo.n, topo.m) == (14, 21)
        assert topo.names == tuple(sorted(topo.names))
        assert topo.vertex("Seattle") == topo.names.index("Seattle")

    def test_edge_list_integer(self, tmp_path):
        path = tmp_path / "ints.edges"
        path.write_text("# n=5\n0 1\n1 2\n")
        topo = load_edge_list(path)
        assert (topo.n, topo.m) == (5, 2)
        assert topo.names == ("0", "1", "2", "3", "4")

    def test_edge_list_errors(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\nlonely\n")
        with pytest.raises(GraphError, match=r"bad\.edges:2"):
            load_edge_list(path)
        path.write_text("a a\n")
        with pytest.raises(GraphError, match="self loop"):
            load_edge_list(path)
        path.write_text("# only comments\n")
        with pytest.raises(GraphError, match="no edges"):
            load_edge_list(path)

    def test_fat_tree(self):
        topo = fat_tree(4)
        assert (topo.n, topo.m) == (20, 32)
        # every edge switch links to every aggregation switch in-pod
        e = topo.edge(("pod0_agg0", "pod0_edge1"))
        assert topo.graph.has_edge(*e)
        with pytest.raises(GraphError, match="even"):
            fat_tree(3)

    def test_ring_and_torus(self):
        assert (ring_topology(16).n, ring_topology(16).m) == (16, 16)
        torus = torus_topology(3, 4)
        assert (torus.n, torus.m) == (12, 24)
        with pytest.raises(GraphError):
            ring_topology(2)
        with pytest.raises(GraphError):
            torus_topology(2, 4)

    def test_spec_parsing(self):
        assert topology_from_spec("fattree:k=4").n == 20
        assert topology_from_spec("ring:n=5").m == 5
        assert topology_from_spec("torus:rows=3,cols=3").n == 9
        for bad in (
            "martian:k=4",          # unknown family
            "fattree",              # no args at all
            "fattree:k=x",          # malformed value
            "fattree:q=4",          # unknown argument
            "torus:rows=3",         # missing argument
        ):
            with pytest.raises(GraphError):
                topology_from_spec(bad)

    def test_load_topology_dispatch(self):
        assert load_topology("abilene.graphml", base_dir=CORPUS_DIR).n == 11
        assert load_topology("nsfnet.edges", base_dir=CORPUS_DIR).n == 14
        assert load_topology("ring:n=7").m == 7
        with pytest.raises(GraphError, match="not found"):
            load_topology("missing.graphml", base_dir=CORPUS_DIR)
        with pytest.raises(GraphError, match="cannot resolve"):
            load_topology("what-is-this")

    def test_vertex_resolution_errors(self):
        topo = ring_topology(4)
        with pytest.raises(GraphError, match="unknown vertex name"):
            topo.vertex("nope")
        with pytest.raises(GraphError, match="out of range"):
            topo.vertex(99)
        with pytest.raises(GraphError, match="not present"):
            topo.edge(("r0", "r2"))


def _tiny_blueprint(**overrides):
    """A small in-memory blueprint over the ring:n=8 topology."""
    doc = {
        "format": "repro-scenario-blueprint",
        "version": 1,
        "name": "tiny",
        "seed": 5,
        "topology": "ring:n=8",
        "scenarios": [
            {"kind": "single_link", "count": 3},
            {"kind": "dual_link", "count": 2},
            {"kind": "maintenance", "waves": 2, "wave_size": 2},
        ],
    }
    doc.update(overrides)
    return blueprint_from_dict(doc)


class TestBlueprints:
    def test_corpus_blueprints_load(self):
        names = set()
        for path in corpus_blueprints():
            blueprint = load_blueprint(path)
            names.add(blueprint.name)
            scenarios = expand_blueprint(blueprint)
            assert scenarios, f"{path.name} expands to nothing"
        assert "abilene-single-link" in names

    def test_validation_errors(self):
        base = {
            "format": "repro-scenario-blueprint",
            "version": 1,
            "name": "x",
            "seed": 1,
            "topology": "ring:n=5",
            "scenarios": [{"kind": "single_link"}],
        }
        cases = [
            ({"format": "nope"}, "not a repro-scenario-blueprint"),
            ({"version": 99}, "unsupported blueprint version"),
            ({"name": ""}, "missing 'name'"),
            ({"seed": "seven"}, "integer 'seed'"),
            ({"seed": True}, "integer 'seed'"),
            ({"topology": ""}, "missing 'topology'"),
            ({"scenarios": []}, "non-empty list"),
            ({"scenarios": [{"kind": "meteor"}]}, "unknown scenario kind"),
            ({"scenarios": [{"kind": "srlg"}]}, "'groups' or sampled"),
            (
                {"scenarios": [{"kind": "srlg", "size": 2}]},
                "both 'size' and 'count'",
            ),
            (
                {"scenarios": [{"kind": "single_link", "count": 0}]},
                "positive integer",
            ),
            ({"extra_key": 1}, "unknown blueprint key"),
            ({"builder": {"name": "martian"}}, "unknown builder"),
            ({"builder": {"name": "cons2", "x": 1}}, "unknown builder key"),
            ({"sources": []}, "'sources' must be"),
        ]
        for override, match in cases:
            doc = dict(base)
            doc.update(override)
            with pytest.raises(GraphError, match=match):
                blueprint_from_dict(doc)

    def test_load_blueprint_bad_json_names_path_and_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "format": oops\n}\n')
        with pytest.raises(GraphError) as err:
            load_blueprint(path)
        assert f"{path}:2" in str(err.value)
        with pytest.raises(GraphError, match="cannot read"):
            load_blueprint(tmp_path / "missing.json")

    def test_expansion_shapes(self):
        blueprint = _tiny_blueprint()
        scenarios = expand_blueprint(blueprint)
        by_kind = {}
        for s in scenarios:
            by_kind.setdefault(s.kind, []).append(s)
        assert len(by_kind["single_link"]) == 3
        assert len(by_kind["dual_link"]) == 2
        (maint,) = by_kind["maintenance"]
        # rolling waves: each later step re-adds the previous wave
        assert len(maint.steps) == 2
        assert maint.steps[0][1] == ()
        assert maint.steps[1][1] == maint.steps[0][0]
        assert maint.max_concurrent_faults == 2
        assert maint.delta_edits == 6
        for s in by_kind["dual_link"]:
            assert len(s.fault_edges) == 2

    def test_expansion_is_deterministic(self):
        a = expand_blueprint(_tiny_blueprint())
        b = expand_blueprint(_tiny_blueprint())
        assert [(s.sid, s.kind, s.steps) for s in a] == [
            (s.sid, s.kind, s.steps) for s in b
        ]

    def test_expansion_oversubscription_fails(self):
        blueprint = _tiny_blueprint(
            scenarios=[{"kind": "maintenance", "waves": 5, "wave_size": 2}]
        )
        with pytest.raises(GraphError, match="exceed"):
            expand_blueprint(blueprint)
        blueprint = _tiny_blueprint(
            scenarios=[{"kind": "dual_link", "count": 10_000}]
        )
        with pytest.raises(GraphError, match="cannot draw"):
            expand_blueprint(blueprint)

    def test_default_sources_are_seeded(self):
        blueprint = _tiny_blueprint()
        topo = blueprint.topology()
        assert blueprint.resolve_sources(topo) == blueprint.resolve_sources(topo)
        named = _tiny_blueprint(sources=["r0", 3])
        assert named.resolve_sources(topo) == (0, 3)


class TestSweep:
    def test_fresh_and_delta_agree(self):
        blueprint = _tiny_blueprint()
        fresh = sweep_blueprint(blueprint, mode="fresh")
        delta = sweep_blueprint(blueprint, mode="delta")
        assert strip_volatile(fresh) == strip_volatile(delta)
        assert report_signature(fresh) == report_signature(delta)

    def test_ring_disconnection_metrics(self):
        # On a ring, one cut only stretches routes; two cuts isolate an
        # arc, which must surface as disconnected pairs, not distances.
        blueprint = _tiny_blueprint(
            scenarios=[
                {"kind": "single_link", "count": 2},
                {"kind": "dual_link", "count": 3},
            ]
        )
        report = strip_volatile(sweep_blueprint(blueprint))
        for entry in report["scenarios"]:
            if entry["kind"] == "single_link":
                assert entry["disconnected_pairs"] == 0
                assert entry["max_stretch"] is not None
            else:
                assert entry["disconnected_pairs"] >= 0

    def test_cross_check_runs_in_fresh_mode(self):
        report = sweep_blueprint(_tiny_blueprint(), mode="fresh")
        counters = report["run"]["worker_counters"]
        assert counters["scenario_sweep"]["cross_checked_pairs"] > 0

    def test_builder_block_verifies(self):
        blueprint = _tiny_blueprint(builder={"name": "single"})
        report = sweep_blueprint(blueprint)
        builder = report["builder"]
        assert builder["name"] == "single"
        assert builder["budget"] == 1
        assert builder["verified_steps"] > 0
        digests = {s["edge_digest"] for s in builder["structures"].values()}
        assert all(len(d) == 64 for d in digests)

    def test_bad_mode_rejected(self):
        with pytest.raises(GraphError, match="unknown sweep mode"):
            sweep_blueprint(_tiny_blueprint(), mode="warp")

    def test_assert_identical_reports_diagnoses(self):
        a = sweep_blueprint(_tiny_blueprint())
        b = json.loads(json.dumps(a))
        b["scenarios"][0]["affected_pairs"] += 1
        with pytest.raises(VerificationError, match="diverges .* at "):
            assert_identical_reports([a, b], ["good", "tampered"])

    def test_scenario_repr_and_properties(self):
        s = Scenario("x", "single_link", [(((0, 1),), ())])
        assert "x" in repr(s)
        assert s.fault_edges == ((0, 1),)


class TestSeedDeterminism:
    def test_report_identical_across_job_counts(self, monkeypatch):
        blueprint = _tiny_blueprint()
        serial = sweep_blueprint(blueprint, jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        pooled = sweep_blueprint(blueprint)  # jobs resolved from env
        assert json.dumps(strip_volatile(serial), sort_keys=True) == json.dumps(
            strip_volatile(pooled), sort_keys=True
        )

    def test_corpus_blueprint_bytes_identical_across_processes(self):
        # Expansion uses string-seeded random.Random, so a subprocess
        # (fresh interpreter, different hash seed) must produce the
        # exact same scenario list.
        import subprocess
        import sys

        path = corpus_blueprints()[0]
        code = (
            "import json, sys\n"
            "from repro.core.scenario import load_blueprint, expand_blueprint\n"
            "bp = load_blueprint(sys.argv[1])\n"
            "scens = [(s.sid, s.kind, s.steps) for s in expand_blueprint(bp)]\n"
            "print(json.dumps(scens))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code, str(path)],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("0", "12345")
        ]
        assert runs[0] == runs[1]
        here = load_blueprint(path)
        local = [
            [s.sid, s.kind, [[list(map(list, r)), list(map(list, a))]
                             for r, a in s.steps]]
            for s in expand_blueprint(here)
        ]
        assert json.loads(runs[0]) == local


class TestDifferentialCorpus:
    """The standing conformance suite: replay every corpus scenario
    across all available engines and both execution modes."""

    @pytest.mark.parametrize(
        "path", corpus_blueprints(), ids=lambda p: p.stem
    )
    def test_corpus_replay_bit_identical(self, path):
        body, reports = replay_blueprint(path)
        assert len(reports) >= 2  # at least one engine x two modes
        assert body["scenarios"]
        # every step carries a cross-engine-comparable vector digest
        for scenario in body["scenarios"]:
            for step in scenario["steps"]:
                assert len(step["signature"]) == 64

    def test_engine_ladder_is_exercised(self):
        engines = available_engines()
        # lex and lex-csr are always registered; the vectorized tier
        # joins wherever numpy imports.
        assert "lex" in engines and "lex-csr" in engines


class TestWeightedDifferentialCorpus:
    """Corpus replay under the weighted engine family.

    The weighted engines form their own differential group: within the
    family, fresh, delta and independently rebuilt sweeps must produce
    bit-identical report bodies on every corpus blueprint — weighted
    topologies (Abilene delays) and unweighted ones alike.
    """

    @pytest.mark.parametrize(
        "path", corpus_blueprints(), ids=lambda p: p.stem
    )
    def test_weighted_corpus_replay_bit_identical(self, path):
        body, reports = replay_blueprint(
            path, engines=list(WEIGHTED_ENGINES)
        )
        assert len(reports) == len(WEIGHTED_ENGINES) * 2  # x fresh/delta
        assert body["scenarios"]
        # rebuild arm: an independent sweep from a fresh blueprint load
        # must reproduce the exact body (nothing leaked from the first
        # replay's caches or graph mutations)
        again = sweep_blueprint(
            load_blueprint(path), engine="wlex-csr", mode="fresh"
        )
        assert strip_volatile(again) == body

    def test_weighted_abilene_blueprint_uses_delays(self):
        blueprint = load_blueprint(CORPUS_DIR / "abilene_weighted.json")
        topo = blueprint.topology()
        assert topo.graph.weighted
        assert topo.graph.weight(*topo.edge(("HSTN", "LOSA"))) == 20
        weighted = strip_volatile(sweep_blueprint(blueprint, engine="wlex"))
        hop = strip_volatile(sweep_blueprint(blueprint, engine="lex-csr"))
        # delays actually shape the metrics: the weighted body must
        # differ from the hop body on this topology
        assert weighted != hop

    def test_uniform_weights_reproduce_hop_body(self):
        # On an unweighted topology the weighted engines degrade to the
        # BFS lex order, so even the *report bodies* are bit-identical
        # to the hop engines' (the tie-break contract, observed
        # end-to-end through the sweep pipeline).
        blueprint = _tiny_blueprint()
        weighted = strip_volatile(sweep_blueprint(blueprint, engine="wlex-csr"))
        hop = strip_volatile(sweep_blueprint(blueprint, engine="lex-csr"))
        assert weighted == hop

    def test_builder_block_skipped_under_weighted_engine(self):
        blueprint = _tiny_blueprint(builder={"name": "single"})
        report = sweep_blueprint(blueprint, engine="wlex")
        assert report["builder"] == {
            "name": "single",
            "budget": 1,
            "skipped": "weighted-engine",
        }
        # and the skip marker is itself part of the deterministic body
        again = sweep_blueprint(blueprint, engine="wlex-csr", mode="delta")
        assert strip_volatile(again) == strip_volatile(report)
