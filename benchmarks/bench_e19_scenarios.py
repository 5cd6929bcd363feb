"""E19 — scenario-corpus sweeps: recovery metrics + rebuild-vs-delta cost.

PR 9 added the real-topology scenario subsystem: corpus topologies
(:mod:`repro.core.topology`), versioned failure-scenario blueprints
(:mod:`repro.core.scenario`) and the ``repro scenarios`` sweep.  This
benchmark replays the checked-in mini-corpus under
``benchmarks/topologies/`` and persists two things per blueprint:

* **Recovery metrics** — per-scenario replacement-path stretch,
  affected/disconnected pair counts and structural delta cost, i.e.
  the deterministic sweep-report body (identical across engines and
  execution modes — asserted here before any timing is trusted, the
  same differential contract ``tests/diffcheck.py`` enforces).
* **Rebuild-vs-delta cost** — wall time of the ``fresh`` arm (a graph
  plus oracle rebuilt per scenario step) against the ``delta`` arm
  (one long-lived graph absorbing each step via ``apply_delta``),
  per engine, best of ``REPRO_BENCH_ROUNDS``.

Environment knobs (used by CI's smoke run):

``REPRO_E19_BLUEPRINTS``
    Comma list of blueprint paths (default: every ``*.json`` under
    ``benchmarks/topologies/``).
``REPRO_E19_ENGINES``
    Comma list of engines, or ``all`` for every hop engine (default
    ``lex,lex-csr``); an unknown engine name fails the run.  The
    weighted family is excluded from ``all`` — its distance bodies are
    not comparable to hop bodies (E20 sweeps it separately).
``REPRO_BENCH_ROUNDS``
    Best-of rounds per timed arm (default 2).
"""

import os
import pathlib
import time

from repro.core.canonical import ENGINES
from repro.core.scenario import (
    assert_identical_reports,
    load_blueprint,
    report_signature,
    strip_volatile,
    sweep_blueprint,
)

from _common import TOPOLOGIES_DIR, cold_cache, emit, emit_json, table

MODES = ("fresh", "delta")


def _blueprints():
    spec = os.environ.get("REPRO_E19_BLUEPRINTS", "").strip()
    if spec:
        return [pathlib.Path(p.strip()) for p in spec.split(",") if p.strip()]
    return sorted(TOPOLOGIES_DIR.glob("*.json"))


def _engines():
    spec = os.environ.get("REPRO_E19_ENGINES", "").strip()
    if spec == "all":
        # Hop engines only: weighted-family bodies are not comparable
        # to hop bodies, so they would fail the cross-arm identity
        # assertion by construction (E20 sweeps the weighted family).
        return [
            e for e in sorted(ENGINES)
            if not getattr(ENGINES[e], "weighted", False)
        ]
    if spec:
        return [e.strip() for e in spec.split(",") if e.strip()]
    return ["lex", "lex-csr"]


def _rounds():
    return max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "2")))


def test_e19_scenario_corpus(benchmark):
    rounds = _rounds()
    rows = []
    records = []
    first = None
    for path in _blueprints():
        blueprint = load_blueprint(path)
        engines = _engines()
        assert engines, "REPRO_E19_ENGINES names no engine"
        reports = []
        labels = []
        arms = {}
        for engine in engines:
            arms[engine] = {}
            for mode in MODES:
                best = float("inf")
                report = None
                for _ in range(rounds):
                    cold_cache()
                    t0 = time.perf_counter()
                    report = sweep_blueprint(blueprint, engine=engine, mode=mode)
                    best = min(best, time.perf_counter() - t0)
                arms[engine][mode] = best
                reports.append(report)
                labels.append(f"{engine}/{mode}")
        # Identity before speed: every engine/mode arm must agree on
        # the deterministic report body.
        assert_identical_reports(reports, labels)
        body = strip_volatile(reports[0])
        if first is None:
            first = body
        scenarios = body["scenarios"]
        worst = max(
            (s["max_stretch"] for s in scenarios
             if s["max_stretch"] is not None),
            default=None,
        )
        for engine in engines:
            fresh, delta = arms[engine]["fresh"], arms[engine]["delta"]
            rows.append([
                blueprint.name,
                f"{body['blueprint']['n']}/{body['blueprint']['m']}",
                len(scenarios),
                engine,
                f"{1000.0 * fresh:.1f}",
                f"{1000.0 * delta:.1f}",
                f"{fresh / delta:.2f}x" if delta else "n/a",
                f"{worst:.2f}" if worst is not None else "-",
            ])
        records.append({
            "blueprint": str(path),
            "name": blueprint.name,
            "signature": report_signature(reports[0]),
            "engines": engines,
            "arms": {
                engine: {
                    "fresh_seconds": arms[engine]["fresh"],
                    "delta_seconds": arms[engine]["delta"],
                    "fresh_vs_delta": (
                        arms[engine]["fresh"] / arms[engine]["delta"]
                        if arms[engine]["delta"] else None
                    ),
                }
                for engine in engines
            },
            "report": body,
        })
    body_txt = table(
        ["blueprint", "n/m", "scenarios", "engine", "fresh ms",
         "delta ms", "fresh/delta", "max stretch"],
        rows,
    )
    body_txt += (
        "\nper blueprint: every engine/mode arm's deterministic report "
        "\nbody asserted bit-identical before timing; fresh = per-step "
        "\nrebuild, delta = incremental apply_delta."
    )
    emit("E19", "scenario-corpus sweeps (recovery + rebuild-vs-delta)", body_txt)
    emit_json(
        "e19",
        {
            "experiment": "e19_scenarios",
            "rounds": rounds,
            "modes": list(MODES),
            "blueprints": records,
        },
    )

    # pytest-benchmark bookkeeping: one representative sweep of the
    # first corpus blueprint (real numbers are the best-of arms above).
    first_path = _blueprints()[0]
    bp = load_blueprint(first_path)
    benchmark.pedantic(
        lambda: sweep_blueprint(bp, mode="fresh"), rounds=1, iterations=1
    )
