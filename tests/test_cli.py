"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_faults, parse_graph_spec
from repro.core.errors import GraphError
from repro.core.io import load_structure, save_graph
from repro.generators import erdos_renyi


class TestParsing:
    def test_graph_specs(self):
        g = parse_graph_spec("er:n=20,p=0.2,seed=3")
        assert g.n == 20
        assert parse_graph_spec("grid:rows=3,cols=4").n == 12
        assert parse_graph_spec("torus:rows=3,cols=4").n == 12
        assert parse_graph_spec("chords:n=10,chords=3,seed=1").n == 10

    def test_graph_spec_file(self, tmp_path):
        g = erdos_renyi(9, 0.3, seed=1)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        assert parse_graph_spec(f"file:{path}") == g

    def test_bad_specs(self):
        for bad in ("er", "martian:n=3", "er:n=3", "er:p", "grid:rows=2"):
            with pytest.raises(GraphError):
                parse_graph_spec(bad)

    def test_parse_faults(self):
        assert parse_faults("0-1,2-5") == [(0, 1), (2, 5)]
        assert parse_faults("") == []
        assert parse_faults(None) == []
        with pytest.raises(GraphError):
            parse_faults("3")


class TestCommands:
    def test_build_verify_info_query(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = main([
            "build", "--graph", "er:n=18,p=0.2,seed=2",
            "--builder", "cons2", "--source", "0", "--out", str(out),
        ])
        assert rc == 0
        structure = load_structure(out)
        assert structure.builder == "cons2ftbfs"

        assert main(["verify", str(out), "--exhaustive"]) == 0
        assert "OK" in capsys.readouterr().out.splitlines()[-1]

        assert main(["info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "cons2ftbfs" in info and "|E(H)|" in info

        assert main(["query", str(out), "--target", "5"]) == 0
        assert "dist(0 -> 5" in capsys.readouterr().out

    def test_query_with_faults(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        main([
            "build", "--graph", "er:n=16,p=0.25,seed=4",
            "--builder", "cons2", "--out", str(out),
        ])
        structure = load_structure(out)
        e1, e2 = sorted(structure.edges)[:2]
        faults = f"{e1[0]}-{e1[1]},{e2[0]}-{e2[1]}"
        capsys.readouterr()
        assert main(["query", str(out), "--target", "7", "--faults", faults]) == 0
        assert "dist(" in capsys.readouterr().out

    def test_verify_detects_invalid(self, tmp_path, capsys):
        import json

        out = tmp_path / "h.json"
        main([
            "build", "--graph", "er:n=14,p=0.25,seed=5",
            "--builder", "cons2", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        # keep only a spanning-tree-sized prefix: almost surely invalid
        payload["structure_edges"] = payload["structure_edges"][:13]
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["verify", str(out), "--exhaustive"])
        assert rc in (0, 1)  # 1 expected; 0 only if prefix is magically valid
        assert rc == 1

    def test_builders_all_runnable(self, tmp_path):
        for builder, f in [("single", 1), ("simple", 2), ("generic", 2), ("approx", 1)]:
            out = tmp_path / f"{builder}.json"
            rc = main([
                "build", "--graph", "er:n=12,p=0.25,seed=6",
                "--builder", builder, "--f", str(f), "--out", str(out),
            ])
            assert rc == 0
            structure = load_structure(out)
            assert structure.size > 0

    def test_lowerbound_command(self, capsys):
        rc = main(["lowerbound", "--n", "90", "--f", "1", "--check", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forced bipartite edges" in out
        assert "10/10 hold" in out

    def test_error_reporting(self, capsys):
        rc = main(["build", "--graph", "martian:x=1", "--out", "/tmp/x.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEngineSelection:
    def test_build_with_each_engine_agrees(self, tmp_path):
        sizes = {}
        for engine in ("lex", "lex-csr"):
            out = tmp_path / f"{engine}.json"
            rc = main([
                "build", "--graph", "er:n=16,p=0.25,seed=4",
                "--builder", "cons2", "--engine", engine, "--out", str(out),
            ])
            assert rc == 0
            sizes[engine] = sorted(load_structure(out).edges)
        assert sizes["lex"] == sizes["lex-csr"]

    def test_default_engine_is_csr(self, capsys, tmp_path):
        out = tmp_path / "h.json"
        rc = main([
            "build", "--graph", "er:n=12,p=0.3,seed=1",
            "--builder", "single", "--out", str(out),
        ])
        assert rc == 0
        assert "engine=lex-csr" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_all_engines(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--graph", "er:n=14,p=0.25,seed=2",
            "--builder", "single", "--rounds", "1", "--json", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "lex-csr" in text and "vs lex" in text
        import json

        payload = json.loads(out.read_text())
        engines = {r["engine"] for r in payload["results"]}
        assert {"lex", "lex-csr", "perturbed"} <= engines
        for r in payload["results"]:
            assert r["seconds"] > 0
            assert r["kernel_tier"]  # which tier actually served the arm

    def test_bench_rejects_engine_agnostic_builder(self, capsys):
        rc = main([
            "bench", "--graph", "er:n=10,p=0.3,seed=1",
            "--builder", "approx", "--f", "1", "--rounds", "1",
        ])
        assert rc == 2
        assert "ignores the canonical engine" in capsys.readouterr().err

    def test_bench_single_engine(self, capsys):
        rc = main([
            "bench", "--graph", "er:n=10,p=0.3,seed=3",
            "--builder", "cons2", "--engine", "lex-csr", "--rounds", "1",
        ])
        assert rc == 0
        assert "lex-csr" in capsys.readouterr().out


class TestExperimentCommand:
    def test_unknown_id(self, capsys):
        rc = main(["experiment", "e99"])
        assert rc == 2
        assert "no benchmark matches" in capsys.readouterr().err


class TestArtifactCommands:
    def test_build_artifact_info_query_verify(self, tmp_path, capsys):
        out = tmp_path / "h.bin"
        rc = main([
            "build", "--graph", "er:n=18,p=0.2,seed=2",
            "--builder", "cons2", "--source", "0", "--out", str(out),
        ])
        assert rc == 0
        assert "(artifact)" in capsys.readouterr().out
        from repro.core.artifact import is_artifact

        assert is_artifact(out)

        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "artifact:" in text and "sha256:" in text

        assert main(["query", str(out), "--target", "5"]) == 0
        assert "dist(" in capsys.readouterr().out

        assert main(["verify", str(out), "--samples", "20"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_format_flag_overrides_suffix(self, tmp_path, capsys):
        from repro.core.artifact import is_artifact

        as_json = tmp_path / "h.bin"
        rc = main([
            "build", "--graph", "er:n=12,p=0.3,seed=1", "--builder", "single",
            "--out", str(as_json), "--format", "json",
        ])
        assert rc == 0 and not is_artifact(as_json)
        load_structure(as_json)  # plain structure JSON despite .bin

        as_artifact = tmp_path / "h.json"
        rc = main([
            "build", "--graph", "er:n=12,p=0.3,seed=1", "--builder", "single",
            "--out", str(as_artifact), "--format", "artifact",
        ])
        assert rc == 0 and is_artifact(as_artifact)
        capsys.readouterr()

    def test_artifact_and_json_queries_agree(self, tmp_path, capsys):
        art = tmp_path / "h.bin"
        js = tmp_path / "h.json"
        spec = ["--graph", "er:n=18,p=0.2,seed=2", "--builder", "cons2",
                "--source", "0"]
        assert main(["build", *spec, "--out", str(art)]) == 0
        assert main(["build", *spec, "--out", str(js)]) == 0
        capsys.readouterr()
        assert main(["query", str(art), "--target", "7"]) == 0
        art_out = capsys.readouterr().out
        assert main(["query", str(js), "--target", "7"]) == 0
        assert capsys.readouterr().out == art_out

    def test_build_redirects_through_results_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.chdir(tmp_path)
        rc = main([
            "build", "--graph", "er:n=12,p=0.3,seed=1",
            "--builder", "single", "--out", "h.bin",
        ])
        assert rc == 0
        assert (tmp_path / "results" / "h.bin").exists()
        assert not (tmp_path / "h.bin").exists()
        assert main(["info", "h.bin"]) == 0  # resolve_in redirect
        capsys.readouterr()

    def test_bench_json_redirects_through_results_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.chdir(tmp_path)
        rc = main([
            "bench", "--graph", "er:n=12,p=0.3,seed=2", "--builder", "single",
            "--engine", "lex-csr", "--rounds", "1", "--json", "bench.json",
        ])
        assert rc == 0
        assert (tmp_path / "results" / "bench.json").exists()
        capsys.readouterr()


class TestTopologySpecs:
    def test_topo_graph_spec_generators(self):
        assert parse_graph_spec("topo:ring:n=6").n == 6
        assert parse_graph_spec("topo:fattree:k=4").n == 20

    def test_topo_graph_spec_corpus_file(self):
        import pathlib

        corpus = pathlib.Path(__file__).parent.parent / "benchmarks" / "topologies"
        g = parse_graph_spec(f"topo:{corpus / 'abilene.graphml'}")
        assert (g.n, len(g.edges())) == (11, 14)

    def test_malformed_graphml_reports_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "broken.graphml"
        path.write_text("<graphml><graph><node id='a'>")
        rc = main([
            "build", "--graph", f"topo:{path}",
            "--out", str(tmp_path / "h.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "broken.graphml:1" in err

    def test_malformed_edge_list_reports_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("a b\nc\n")
        rc = main([
            "build", "--graph", f"topo:{path}",
            "--out", str(tmp_path / "h.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.edges:2" in err


class TestScenariosCommand:
    def _blueprint(self, tmp_path):
        import json

        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "format": "repro-scenario-blueprint",
            "version": 1,
            "name": "cli-tiny",
            "seed": 2,
            "topology": "ring:n=6",
            "scenarios": [{"kind": "single_link", "count": 2}],
            "builder": {"name": "single"},
        }))
        return path

    def test_scenarios_end_to_end(self, tmp_path, capsys):
        rc = main([
            "scenarios", "--blueprint", str(self._blueprint(tmp_path)),
            "--engine", "lex-csr",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blueprint cli-tiny" in out
        assert "single_link" in out
        assert "builder single (budget 1)" in out
        assert "differential: 2 arm(s) bit-identical" in out

    def test_scenarios_engine_all_and_json(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        rc = main([
            "scenarios", "--blueprint", str(self._blueprint(tmp_path)),
            "--engine", "all", "--mode", "fresh", "--json", str(json_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        import json

        payload = json.loads(json_out.read_text())
        assert payload["blueprint"]["name"] == "cli-tiny"
        assert len(payload["runs"]) >= 2
        assert payload["scenarios"]

    def test_scenarios_missing_blueprint(self, capsys):
        rc = main(["scenarios", "--blueprint", "/nonexistent/x.json"])
        assert rc == 2
        assert "cannot read blueprint" in capsys.readouterr().err

    def test_scenarios_malformed_blueprint(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "format": broken\n}\n')
        rc = main(["scenarios", "--blueprint", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.json:2" in err

    def test_scenarios_invalid_blueprint_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "schema.json"
        path.write_text(json.dumps({
            "format": "repro-scenario-blueprint",
            "version": 1,
            "name": "x",
            "seed": 1,
            "topology": "ring:n=5",
            "scenarios": [{"kind": "meteor"}],
        }))
        rc = main(["scenarios", "--blueprint", str(path)])
        assert rc == 2
        assert "unknown scenario kind" in capsys.readouterr().err
