"""``repro serve`` with span tracing, for the traced serve workloads.

Usage: ``serve_launcher.py SPANS_OUT serve ARTIFACT [serve options]``.

Installs the tracing wrappers, then runs the package's own CLI entry
point with the remaining arguments, so the server is exactly
``repro serve``.  The client brackets its timed window with two
``stats`` requests; the first opens the recording window, the second
closes it.  When the server shuts down, the launcher writes every
recorded span plus the per-layer metrics of the window to
``SPANS_OUT``, once.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]

    from build_worker import c_kernel_state
    from common import use_sources

    use_sources()
    import repro.cli
    from repro.core.bulk import kernel_dispatch_stats
    from repro.core.snapshot_cache import shared_cache
    from tracing import (
        Tracer,
        cache_counters,
        dispatch_counters,
        install,
        install_handle,
        layer_metrics,
    )

    tracer = Tracer()
    install(tracer, serving=True)
    served = {}
    window = {}

    oracle_of = repro.core.artifact.Artifact.oracle

    def capture_oracle(artifact, *args, **kwargs):
        oracle = oracle_of(artifact, *args, **kwargs)
        served["oracle"] = oracle
        served["bytes"] = artifact.nbytes
        return oracle

    tracer.patch_attr(repro.core.artifact.Artifact, "oracle", capture_oracle)

    def on_stats() -> None:
        graph = served["oracle"]._h
        if not tracer.recording:
            window["cache"] = shared_cache().stats()
            kernel_dispatch_stats(graph, reset=True)
            tracer.counters.clear()
            tracer.recording = True
        else:
            tracer.recording = False
            window["counters"] = dict(tracer.counters)
            window["counters"].update(cache_counters(window["cache"], shared_cache().stats()))
            window["counters"].update(dispatch_counters(kernel_dispatch_stats(graph)))

    install_handle(tracer, on_stats)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.recording = False
        counters = window.get("counters", {})
        counters["artifact.bytes"] = served.get("bytes", 0)
        with open(spans_out, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "request"],
                    "spans": tracer.spans(),
                    "layers": layer_metrics(tracer.aggregates(), counters),
                    "window_closed": "counters" in window,
                    "c_kernel": c_kernel_state(),
                    "dispatch": kernel_dispatch_stats(served["oracle"]._h) if served else None,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
