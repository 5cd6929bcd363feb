"""Process-pool sharding: bit-identity + safety.

The contract of :mod:`repro.core.parallel` is that parallelism is
*pure optimization*:

* every sharded entry point — multi-source FT-MBFS builds, the
  sensitivity-oracle tabulation, stretch sweeps — must produce
  **bit-identical** output at any job count, under every engine;
* any pool/worker failure must degrade to a serial run with a
  :class:`RuntimeWarning`, never a wrong answer or a crash.
"""

import os

import pytest

from repro.core import parallel
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs.cons2ftbfs import build_cons2ftbfs
from repro.ftbfs.generic import build_ft_mbfs
from repro.ftbfs.sensitivity import SingleFaultDistanceOracle
from repro.analysis.stretch import structure_stretch
from repro.generators import erdos_renyi, tree_plus_chords

#: Every canonical hop engine arm, kernel ladder order.
ENGINE_ARMS = ["lex", "lex-csr"]


# ----------------------------------------------------------------------
# effective_jobs resolution
# ----------------------------------------------------------------------
def test_effective_jobs_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert parallel.effective_jobs() == 1
    assert parallel.effective_jobs(3) == 3
    assert parallel.effective_jobs("4") == 4
    assert parallel.effective_jobs("auto") == (os.cpu_count() or 1)
    assert parallel.effective_jobs(0) == (os.cpu_count() or 1)
    assert parallel.effective_jobs("garbage") == 1
    assert parallel.effective_jobs(-2) == 1
    # the env var is the default, an explicit argument wins
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert parallel.effective_jobs() == 5
    assert parallel.effective_jobs(2) == 2
    # items cap: no more workers than items
    assert parallel.effective_jobs(8, items=3) == 3
    assert parallel.effective_jobs(8, items=0) == 1


def test_chunk_bounds_cover_items_exactly():
    for nitems in (1, 2, 7, 16):
        for nchunks in (1, 2, 3, 8):
            bounds = parallel._chunk_bounds(nitems, nchunks)
            covered = []
            for lo, hi in bounds:
                assert lo < hi
                covered.extend(range(lo, hi))
            assert covered == list(range(nitems))


# ----------------------------------------------------------------------
# run_sharded: parallel execution, order, degradation
# ----------------------------------------------------------------------
def test_run_sharded_order_and_stats():
    items = list(range(17))
    out = parallel.run_sharded(
        parallel._selftest_task,
        items,
        payload={"fail_on": None},
        jobs=2,
        label="selftest",
    )
    assert out == [i * i for i in items]
    stats = parallel.last_run_stats()
    assert stats["parallel"] is True
    assert stats["effective_jobs"] == 2
    assert stats["items"] == 17
    assert stats["degraded"] is None


def test_run_sharded_serial_when_jobs_1():
    items = [3, 1, 2]
    out = parallel.run_sharded(
        parallel._selftest_task, items, payload={"fail_on": None}, jobs=1
    )
    assert out == [9, 1, 4]
    assert parallel.last_run_stats()["parallel"] is False


def test_worker_failure_degrades_to_serial_with_warning():
    """One worker raising must yield a RuntimeWarning + correct results.

    ``_selftest_task`` raises only when it sees item 5 *inside a pool
    worker*, so the inline fallback the degradation runs cannot fail
    the same way — exactly the shape of a resource-starved worker.
    """
    items = list(range(8))
    with pytest.warns(RuntimeWarning, match="degraded to serial"):
        out = parallel.run_sharded(
            parallel._selftest_task,
            items,
            payload={"fail_on": 5},
            jobs=2,
            label="fault-injection",
        )
    assert out == [i * i for i in items]
    stats = parallel.last_run_stats()
    assert stats["effective_jobs"] == 1
    assert stats["degraded"] is not None and "injected" in stats["degraded"]


# ----------------------------------------------------------------------
# bit-identity of the sharded preprocessing entry points, per engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINE_ARMS)
def test_mbfs_parallel_bit_identity(engine):
    g = erdos_renyi(40, 0.12, seed=9)
    sources = [0, 3, 7, 11]
    shared_cache().clear()
    serial = build_ft_mbfs(
        g, sources, 2, builder=build_cons2ftbfs, jobs=1, engine=engine
    )
    shared_cache().clear()
    sharded = build_ft_mbfs(
        g, sources, 2, builder=build_cons2ftbfs, jobs=2, engine=engine
    )
    assert sharded.edges == serial.edges
    assert sharded.sources == serial.sources
    assert sharded.max_faults == serial.max_faults
    assert sharded.builder == serial.builder
    assert sharded.stats == serial.stats
    stats = parallel.last_run_stats()
    assert stats["effective_jobs"] == 2 or stats["degraded"] is not None
    # worker-side counters surfaced through the merge
    assert "counters" in stats


def test_mbfs_default_builder_parallel_bit_identity():
    g = tree_plus_chords(36, 14, seed=4)
    sources = [0, 5, 9]
    serial = build_ft_mbfs(g, sources, 1, jobs=1)
    sharded = build_ft_mbfs(g, sources, 1, jobs=2)
    assert sharded.edges == serial.edges
    assert sharded.stats == serial.stats


def test_mbfs_lambda_builder_falls_back_to_serial():
    g = erdos_renyi(24, 0.15, seed=3)
    serial = build_ft_mbfs(
        g, [0, 2], 2, builder=lambda gr, s, engine=None: build_cons2ftbfs(gr, s),
        jobs=1,
    )
    sharded = build_ft_mbfs(
        g, [0, 2], 2, builder=lambda gr, s, engine=None: build_cons2ftbfs(gr, s),
        jobs=2,
    )
    assert sharded.edges == serial.edges


@pytest.mark.parametrize("engine", [None, "lex-csr"])
def test_sensitivity_oracle_parallel_bit_identity(engine):
    g = erdos_renyi(40, 0.1, seed=11)
    serial = SingleFaultDistanceOracle(g, 0, engine=engine, jobs=1)
    sharded = SingleFaultDistanceOracle(g, 0, engine=engine, jobs=2)
    assert set(sharded._tables) == set(serial._tables)
    for e, tab in serial._tables.items():
        assert list(sharded._tables[e]) == list(tab)
    edges = sorted(serial._tables)
    for v in range(g.n):
        assert sharded.distance(v, edges[0]) == serial.distance(v, edges[0])


def test_stretch_profile_parallel_bit_identity():
    g = erdos_renyi(30, 0.15, seed=7)
    h = build_cons2ftbfs(g, 0)
    serial = structure_stretch(h, 2, jobs=1)
    sharded = structure_stretch(h, 2, jobs=2)
    # dataclass equality covers the float fields: the parallel sweep
    # must accumulate in exactly the serial order, not merely close
    assert sharded == serial
