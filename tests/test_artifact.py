"""Tests for persistent oracle artifacts (repro.core.artifact)."""

import json
import os
import threading

import pytest

from repro.core import artifact as artifact_mod
from repro.core.artifact import (
    MAGIC,
    is_artifact,
    load_artifact,
    load_or_build,
    save_artifact,
)
from repro.core.canonical import ENGINES
from repro.core.csr import csr_of
from repro.core.errors import GraphError
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs import FTQueryOracle, build_cons2ftbfs, verify_structure
from repro.generators import erdos_renyi


def sample_structure(n=24, p=0.18, seed=6):
    return build_cons2ftbfs(erdos_renyi(n, p, seed=seed), 0)


def engine_or_skip(name):
    """Skip the test unless the engine is registered (lex-bulk needs numpy)."""
    if name not in ENGINES:
        pytest.skip(f"engine {name!r} unavailable on this host")
    return name


def sample_faults(structure, k=2):
    """k structure edges not incident to the source (keeps 0 connected)."""
    return [e for e in sorted(structure.edges) if 0 not in e][:k]


class TestRoundTrip:
    def test_structure_roundtrip(self, tmp_path):
        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        with load_artifact(path) as art:
            back = art.structure()
            assert back.graph == s.graph
            assert back.edges == s.edges
            assert back.sources == s.sources
            assert back.max_faults == s.max_faults
            assert back.builder == s.builder
            verify_structure(back)

    def test_is_artifact(self, tmp_path):
        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        assert is_artifact(path)
        other = tmp_path / "not.bin"
        other.write_text("{}")
        assert not is_artifact(other)
        assert not is_artifact(tmp_path / "missing.bin")

    def test_content_hash_is_deterministic(self, tmp_path):
        s = sample_structure()
        a = save_artifact(s, tmp_path / "a.bin")
        b = save_artifact(s, tmp_path / "b.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_adopted_csr_matches_rebuilt(self, tmp_path):
        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        with load_artifact(path) as art:
            adopted = csr_of(art.subgraph())
            rebuilt = csr_of(s.subgraph())
            assert list(adopted.indptr) == list(rebuilt.indptr)
            assert list(adopted.nbr) == list(rebuilt.nbr)
            assert list(adopted.arc_eid) == list(rebuilt.arc_eid)
            assert adopted.edge_index == rebuilt.edge_index

    @pytest.mark.parametrize("engine", ["lex", "lex-csr", "lex-bulk"])
    def test_oracle_identical_to_inprocess(self, tmp_path, engine):
        engine_or_skip(engine)
        s = sample_structure()
        fresh = FTQueryOracle(s, engine=engine)
        path = save_artifact(s, tmp_path / "h.bin")
        shared_cache().clear()
        with load_artifact(path) as art:
            served = art.oracle(engine=engine)
            faults = sample_faults(s)
            for t in range(s.graph.n):
                for f in ((), faults[:1], faults):
                    assert served.distance(0, t, f) == fresh.distance(0, t, f)
                d = served.distance(0, t)
                if d != float("inf"):
                    assert (
                        served.path(0, t).vertices == fresh.path(0, t).vertices
                    )

    def test_preseed_serves_unfaulted_queries_from_cache(self, tmp_path):
        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        shared_cache().clear()
        shared_cache().reset_stats()
        with load_artifact(path) as art:
            oracle = art.oracle()
            before = shared_cache().stats()["misses"]
            for t in range(s.graph.n):
                oracle.distance(0, t)
            after = shared_cache().stats()
            assert after["misses"] == before
            assert after["hits"] >= s.graph.n


class TestValidation:
    def test_corrupt_payload_raises(self, tmp_path):
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(GraphError, match="hash mismatch"):
            load_artifact(path)

    def test_verify_env_knob_skips_checksum_only(self, tmp_path, monkeypatch):
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(blob)
        monkeypatch.setenv("REPRO_ARTIFACT_VERIFY", "0")
        art = load_artifact(path)  # checksum skipped: loads
        art.close()
        with pytest.raises(GraphError):  # explicit verify still wins
            load_artifact(path, verify=True)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(GraphError, match="bad magic"):
            load_artifact(path)

    def test_truncated_file_raises(self, tmp_path):
        full = save_artifact(sample_structure(), tmp_path / "h.bin")
        cut = tmp_path / "cut.bin"
        cut.write_bytes(full.read_bytes()[:-128])
        with pytest.raises(GraphError, match="truncated"):
            load_artifact(cut)

    def test_format_version_mismatch_raises(self, tmp_path, monkeypatch):
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        monkeypatch.setattr(artifact_mod, "FORMAT_VERSION", 999)
        with pytest.raises(GraphError, match="format version"):
            load_artifact(path)

    def test_abi_version_mismatch_raises(self, tmp_path, monkeypatch):
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        monkeypatch.setattr(artifact_mod, "ABI_VERSION", 999)
        with pytest.raises(GraphError, match="ABI version"):
            load_artifact(path)

    def test_garbage_edge_ids_fail_loudly_even_unverified(self, tmp_path):
        # Flip a structure_eids entry to an out-of-range id and disable
        # the checksum: materialization must still refuse.
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        blob = bytearray(path.read_bytes())
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(bytes(blob[16 : 16 + hlen]))
        payload_off = (16 + hlen + 63) & ~63
        sec = header["arrays"]["structure_eids"]
        pos = payload_off + sec["offset"]
        blob[pos : pos + 8] = (10**9).to_bytes(8, "little")
        path.write_bytes(blob)
        art = load_artifact(path, verify=False)
        with pytest.raises(GraphError, match="out of range"):
            art.structure()


class TestLoadOrBuild:
    def test_missing_file_builds_and_saves(self, tmp_path):
        path = tmp_path / "h.bin"
        calls = []

        def build():
            calls.append(1)
            return sample_structure()

        art, rebuilt = load_or_build(path, build)
        assert rebuilt and calls and path.exists()
        art.close()
        art2, rebuilt2 = load_or_build(path, build)
        assert not rebuilt2 and len(calls) == 1
        art2.close()

    def test_corrupt_file_is_repaired(self, tmp_path):
        path = save_artifact(sample_structure(), tmp_path / "h.bin")
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(blob)
        art, rebuilt = load_or_build(path, sample_structure)
        assert rebuilt
        art.close()
        load_artifact(path).close()  # repaired in place

    def test_readonly_target_falls_back_to_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "h.bin"

        def refuse(structure, out):
            if str(out).startswith(str(tmp_path)):
                raise OSError(30, "Read-only file system", str(out))
            return real_save(structure, out)

        real_save = save_artifact
        monkeypatch.setattr(artifact_mod, "save_artifact", refuse)
        art, rebuilt = load_or_build(path, sample_structure)
        assert rebuilt and not path.exists()
        assert art.oracle().distance(0, 0) == 0.0  # still usable
        art.close()


class TestResultsDirRouting:
    def test_relative_paths_redirect(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.chdir(tmp_path)
        s = sample_structure()
        out = save_artifact(s, "redirected.bin")
        assert out == tmp_path / "results" / "redirected.bin"
        assert not (tmp_path / "redirected.bin").exists()
        with load_artifact("redirected.bin") as art:  # resolve_in redirect
            assert art.structure().edges == s.edges

    def test_absolute_paths_bypass_redirect(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        out = save_artifact(sample_structure(), tmp_path / "abs.bin")
        assert out == tmp_path / "abs.bin"


def test_concurrent_loads_share_one_file(tmp_path):
    """Eight threads each mmap-load and query the same artifact file."""
    s = sample_structure()
    path = save_artifact(s, tmp_path / "h.bin")
    fresh = FTQueryOracle(s)
    expected = [fresh.distance(0, t) for t in range(s.graph.n)]
    errors = []

    def load_and_query():
        try:
            with load_artifact(path) as art:
                oracle = art.oracle(preseed=False)
                got = [oracle.distance(0, t) for t in range(s.graph.n)]
                assert got == expected
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=load_and_query) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_magic_is_stable():
    """The on-disk magic is part of the format spec (docs/serving.md)."""
    assert MAGIC == b"RPROART\n"
    assert len(MAGIC) == 8


def test_artifact_verify_default_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_ARTIFACT_VERIFY", raising=False)
    assert artifact_mod._verify_default()
    for off in ("0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_ARTIFACT_VERIFY", off)
        assert not artifact_mod._verify_default()
    monkeypatch.setenv("REPRO_ARTIFACT_VERIFY", "on")
    assert artifact_mod._verify_default()
    assert os.environ["REPRO_ARTIFACT_VERIFY"] == "on"


class TestWeightedArtifacts:
    """ABI v2: the edge_weight section (docs/weighted.md)."""

    def _weighted_structure(self):
        import random

        g = erdos_renyi(20, 0.22, seed=8)
        rng = random.Random("artifact-weights")
        out = type(g)(g.n)
        for i, (u, v) in enumerate(sorted(g.edges())):
            # Mix exact ints and fractional floats: both must round-trip
            # through the float64 section without drifting type or value.
            out.add_edge(u, v, rng.randint(1, 9) if i % 3 else 2.5)
        return build_cons2ftbfs(out, 0)

    def test_weighted_roundtrip_restores_exact_weights(self, tmp_path):
        s = self._weighted_structure()
        path = save_artifact(s, tmp_path / "w.bin")
        with load_artifact(path) as art:
            back = art.structure()
            assert back.graph.weighted
            assert back.graph.weighted_edges() == s.graph.weighted_edges()
            # Integer weights come back as int, floats as float — Dial
            # eligibility and bit-identity depend on the exact types.
            for (_, _, w0), (_, _, w1) in zip(
                s.graph.weighted_edges(), back.graph.weighted_edges()
            ):
                assert type(w0) is type(w1)
            verify_structure(back)

    def test_weighted_oracle_identical_to_inprocess(self, tmp_path):
        s = self._weighted_structure()
        path = save_artifact(s, tmp_path / "w.bin")
        fresh = FTQueryOracle(s, engine="wlex-csr")
        with load_artifact(path) as art:
            served = FTQueryOracle(art.structure(), engine="wlex-csr")
            faults = sample_faults(s)
            for t in range(s.graph.n):
                assert served.distance(0, t) == fresh.distance(0, t)
                assert served.distance(0, t, faults) == fresh.distance(
                    0, t, faults
                )

    def test_unweighted_artifacts_stay_unweighted(self, tmp_path):
        s = sample_structure()
        path = save_artifact(s, tmp_path / "h.bin")
        with load_artifact(path) as art:
            back = art.structure()
            assert not back.graph.weighted
            assert back.graph == s.graph
