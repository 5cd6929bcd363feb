"""Reusable cross-engine differential harness for the scenario corpus.

Replays scenario blueprints across every canonical engine this host
can run and both execution modes (fresh-build vs ``apply_delta``),
asserting the differential contract: every arm's deterministic report
body is **bit-identical**, and every reported distance obeys the
documented unreachable sentinel
(:data:`repro.core.canonical.UNREACHABLE`).  ``tests/test_scenarios.py``
drives it over the checked-in mini-corpus, which makes the corpus a
standing conformance suite; anything else (CI smoke legs, ad-hoc
debugging) can import :func:`replay_blueprint` directly.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Sequence, Tuple

from repro.core.canonical import UNREACHABLE
from repro.core.scenario import (
    assert_identical_reports,
    load_blueprint,
    report_signature,
    strip_volatile,
    sweep_blueprint,
)

#: The checked-in scenario mini-corpus.
CORPUS_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "topologies"
)

#: Execution modes every corpus scenario is replayed in.
MODES = ("fresh", "delta")

#: The engine ladder the differential contract covers.
LEX_ENGINES = ("lex", "lex-csr")

#: The weighted engine family (see ``docs/weighted.md``): replayed as
#: its own differential group — weighted report bodies are only
#: comparable to each other, never to the hop engines'.
WEIGHTED_ENGINES = ("wlex", "wlex-csr")


def corpus_blueprints() -> List[pathlib.Path]:
    """Every blueprint JSON of the checked-in mini-corpus, sorted."""
    return sorted(CORPUS_DIR.glob("*.json"))


def check_sentinels(report: dict) -> None:
    """Assert the report's stretch metrics obey the sentinel contract.

    The per-vertex vectors only survive as digests, but the derived
    metrics expose the same contract: stretch fields are finite (an
    engine leaking ``inf``/``-1`` into a stretch would surface here),
    disconnections are counted, never encoded as distances.
    """
    for scenario in strip_volatile(report)["scenarios"]:
        for step in scenario["steps"]:
            for key in ("max_stretch", "mean_stretch"):
                value = step[key]
                assert value is None or (
                    isinstance(value, float) and 1.0 < value < UNREACHABLE
                ), f"{scenario['id']}: {key}={value!r} violates the sentinel contract"
            assert step["max_added_hops"] >= 0
            assert 0 <= step["disconnected_pairs"] <= step["affected_pairs"]


def replay_blueprint(
    path,
    engines: Optional[Sequence[str]] = None,
    modes: Sequence[str] = MODES,
    jobs=None,
) -> Tuple[dict, List[dict]]:
    """Replay one blueprint across engines × modes; assert identity.

    Returns ``(deterministic body, all raw reports)``.  Raises
    (via :func:`repro.core.scenario.assert_identical_reports`) if any
    arm's body diverges, and asserts the sentinel contract on every
    arm.  The scenario layer itself additionally cross-checks fresh
    arms against ``distances_bulk`` point-query batches and verifies
    any blueprint-requested builder through ``FTQueryOracle``.
    """
    blueprint = load_blueprint(path)
    if engines is None:
        engines = LEX_ENGINES
    assert engines, f"no canonical engine available to replay {path}"
    reports: List[dict] = []
    labels: List[str] = []
    for engine in engines:
        for mode in modes:
            report = sweep_blueprint(
                blueprint, engine=engine, mode=mode, jobs=jobs
            )
            check_sentinels(report)
            reports.append(report)
            labels.append(f"{engine}/{mode}")
    assert_identical_reports(reports, labels)
    return strip_volatile(reports[0]), reports


def replay_corpus(engines: Optional[Sequence[str]] = None) -> dict:
    """Replay the whole mini-corpus; returns ``{name: body signature}``."""
    out = {}
    for path in corpus_blueprints():
        _body, reports = replay_blueprint(path, engines=engines)
        out[path.name] = report_signature(reports[0])
    return out


def replay_corpus_weighted() -> dict:
    """Replay the mini-corpus under the weighted engine family.

    The weighted engines form their own differential group (their
    distance bodies are not comparable to the hop engines'), but the
    same bit-identity contract holds within the family across engines
    and execution modes — including on unweighted topologies, where
    uniform weights make them reproduce the lex tie-break exactly.
    Blueprint builder blocks degrade to the deterministic
    ``skipped: weighted-engine`` marker (FT-BFS structures certify hop
    distances only).
    """
    out = {}
    for path in corpus_blueprints():
        _body, reports = replay_blueprint(
            path, engines=list(WEIGHTED_ENGINES)
        )
        out[path.name] = report_signature(reports[0])
    return out
