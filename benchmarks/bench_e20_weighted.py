"""E20 — weighted engine family: engine ladder + weighted Abilene sweep.

PR 10 added the weighted + ECMP engine family (``wlex`` / ``wlex-csr``,
see ``docs/weighted.md``).  This benchmark persists two things:

* **Dial-or-reference ladder** — full-search wall time per engine arm
  on random weighted graphs under each weighting kind: tie-heavy small
  integers (``wlex-csr`` runs its Dial bucket queue), big integers and
  floats (``wlex-csr`` runs the reference heap search inside its
  memo).  Every arm's search results are asserted bit-identical before
  any timing is trusted.
* **Weighted Abilene sweep** — the ``abilene_weighted.json`` corpus
  blueprint (real Abilene link delays) swept per weighted engine and
  execution mode (fresh vs delta), report bodies asserted
  bit-identical across all four arms.

Environment knobs (used by CI's smoke run):

``REPRO_E20_SIZES``
    Comma list of ``n:p`` ER rungs for the ladder (default
    ``200:0.035,400:0.02``).
``REPRO_E20_SOURCES``
    Sources searched per timed arm (default 24, capped at n).
``REPRO_BENCH_ROUNDS``
    Best-of rounds per timed arm (default 2).
"""

import os
import sys
import time

from repro.core.scenario import (
    assert_identical_reports,
    load_blueprint,
    report_signature,
    strip_volatile,
    sweep_blueprint,
)
from repro.core.snapshot_cache import SnapshotCache
from repro.core.weighted import (
    CSRWeightedShortestPaths,
    WeightedLexShortestPaths,
)
from repro.generators import erdos_renyi

from _common import TOPOLOGIES_DIR, emit, emit_json, table

# The weighted graph generators live in tests/zoo.py (shared with the
# weighted differential suites); make the repo root importable.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from tests.zoo import reweight  # noqa: E402

KINDS = ("tie-int", "big-int", "float")
MODES = ("fresh", "delta")
WEIGHTED_ENGINES = ("wlex", "wlex-csr")


def _sizes():
    spec = os.environ.get("REPRO_E20_SIZES", "200:0.035,400:0.02")
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        n, p = item.split(":")
        out.append((int(n), float(p)))
    return out


def _rounds():
    return max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "2")))


def _source_count():
    return max(1, int(os.environ.get("REPRO_E20_SOURCES", "24")))


def _arm_factories(graph):
    """Per-arm engine factories for one rung.

    Factories, not instances: every timed round gets a *fresh* engine
    with a *private* cache, so the ladder times the queues — a reused
    CSR engine would answer round two from its snapshot-cache memo
    while the reference arm recomputes, fabricating a huge "speedup".
    """
    return {
        "wlex": lambda: WeightedLexShortestPaths(graph),
        "wlex-csr": lambda: CSRWeightedShortestPaths(
            graph, cache=SnapshotCache()
        ),
    }


def _time_arm(factory, sources, rounds):
    best = float("inf")
    for _ in range(rounds):
        engine = factory()  # construction (CSR bind) outside the clock
        t0 = time.perf_counter()
        for s in sources:
            engine.search(s)
        best = min(best, time.perf_counter() - t0)
    return best


def test_e20_weighted_family(benchmark):
    rounds = _rounds()
    rows = []
    ladder = []
    for n, p in _sizes():
        base = erdos_renyi(n, p, seed=20)
        step = max(1, n // _source_count())
        sources = list(range(0, n, step))[: _source_count()]
        for kind in KINDS:
            graph = reweight(base, seed=n, kind=kind)
            factories = _arm_factories(graph)
            # Identity before speed: every arm must produce the same
            # distances (the differential contract of the family).
            reference = factories["wlex"]()
            baseline = {
                s: list(reference.search(s).distances()) for s in sources
            }
            for label, factory in factories.items():
                if label == "wlex":
                    continue
                engine = factory()
                for s in sources:
                    got = list(engine.search(s).distances())
                    assert got == baseline[s], (
                        f"{label} diverges from wlex at n={n} kind={kind} "
                        f"source={s}"
                    )
            timings = {}
            for label, factory in factories.items():
                timings[label] = _time_arm(factory, sources, rounds)
            csr = CSRWeightedShortestPaths(graph, cache=SnapshotCache())
            queue = "dial" if csr._use_dial else "reference"
            for label, seconds in timings.items():
                rows.append([
                    f"er n={n}",
                    kind,
                    label,
                    queue if label == "wlex-csr" else "-",
                    f"{1000.0 * seconds:.1f}",
                    f"{timings['wlex'] / seconds:.2f}x" if seconds else "n/a",
                ])
            ladder.append({
                "workload": f"er:{n}:{p}",
                "kind": kind,
                "sources": len(sources),
                "csr_queue": queue,
                "seconds": timings,
                "csr_vs_reference": (
                    timings["wlex"] / timings["wlex-csr"]
                    if timings["wlex-csr"] else None
                ),
            })

    # Weighted Abilene sweep: the real-delay corpus blueprint across
    # both weighted engines and both execution modes.
    blueprint = load_blueprint(TOPOLOGIES_DIR / "abilene_weighted.json")
    reports, labels, sweep_arms = [], [], {}
    for engine in WEIGHTED_ENGINES:
        sweep_arms[engine] = {}
        for mode in MODES:
            best = float("inf")
            report = None
            for _ in range(rounds):
                t0 = time.perf_counter()
                report = sweep_blueprint(blueprint, engine=engine, mode=mode)
                best = min(best, time.perf_counter() - t0)
            sweep_arms[engine][mode] = best
            reports.append(report)
            labels.append(f"{engine}/{mode}")
    assert_identical_reports(reports, labels)
    body = strip_volatile(reports[0])
    for engine in WEIGHTED_ENGINES:
        fresh, delta = sweep_arms[engine]["fresh"], sweep_arms[engine]["delta"]
        rows.append([
            blueprint.name,
            "delays",
            engine,
            "-",
            f"{1000.0 * fresh:.1f}",
            f"{fresh / delta:.2f}x delta" if delta else "n/a",
        ])

    body_txt = table(
        ["workload", "weights", "engine", "queue", "ms", "speedup"],
        rows,
    )
    body_txt += (
        "\nladder: full searches from the source set, best-of rounds, every"
        "\narm asserted bit-identical to wlex first; queue = what wlex-csr"
        "\nran (Dial, or the reference search).  abilene: the weighted"
        "\ncorpus sweep, fresh-arm ms with fresh/delta ratio."
    )
    emit(
        "E20", "weighted engine family (Dial-or-reference + Abilene delays)",
        body_txt,
    )
    emit_json(
        "e20",
        {
            "experiment": "e20_weighted",
            "rounds": rounds,
            "ladder": ladder,
            "abilene": {
                "blueprint": blueprint.name,
                "signature": report_signature(reports[0]),
                "scenarios": len(body["scenarios"]),
                "arms": {
                    engine: {
                        "fresh_seconds": sweep_arms[engine]["fresh"],
                        "delta_seconds": sweep_arms[engine]["delta"],
                    }
                    for engine in WEIGHTED_ENGINES
                },
            },
        },
    )

    # pytest-benchmark bookkeeping: one representative weighted sweep
    # (real numbers are the best-of arms above).
    benchmark.pedantic(
        lambda: sweep_blueprint(blueprint, engine="wlex-csr", mode="fresh"),
        rounds=1,
        iterations=1,
    )
