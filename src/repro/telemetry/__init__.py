"""Unified observability for the simulator (see ``docs/observability.md``).

* :class:`TelemetryBus` — the single instrumentation seam: named events,
  zero-cost with no subscribers (``repro.telemetry.bus``);
* :class:`LatencyLedger` — per-packet latency attribution with an exact
  conservation invariant, aggregate breakdowns and topology bottleneck
  tables (``repro.telemetry.attribution``);
* :class:`EpochMetrics` — per-epoch time-series collectors with CSV/JSON
  export, and the one periodic sampler the health monitor, live feed and
  progress line read (``repro.telemetry.metrics``);
* :class:`ChromeTraceBuilder` — Perfetto-loadable Chrome trace-event
  export of sampled packets and component lanes
  (``repro.telemetry.trace``);
* :class:`ProgressReporter` / :class:`EtaEstimator` — per-epoch
  cycles/sec + in-flight + delivered + ETA status line for long runs
  (``repro.telemetry.progress``);
* :class:`LiveFeed` — schema-versioned JSONL streaming of run lifecycle,
  epoch samples with speed/ETA, and health anomalies to
  ``runs/live/<run_id>.jsonl`` for ``repro watch``
  (``repro.telemetry.live``);
* :mod:`repro.telemetry.server` — the stdlib SSE fleet-observability
  service behind ``repro watch`` (imported lazily by the CLI);
* :class:`FlightRecorder` / :class:`HealthMonitor` /
  :class:`ForensicsSession` — bounded event ring buffer, per-epoch health
  checks and automatic postmortem bundles for wedged runs, rendered by
  ``repro postmortem`` (``repro.telemetry.forensics``);
* :class:`TelemetryConfig` / :class:`TelemetrySession` — one-call
  attachment used by ``run_synthetic`` / ``run_trace`` and the
  ``repro simulate`` CLI (``repro.telemetry.session``);
* :class:`RunDigest` — streaming platform-stable chained hash of every
  bus event, with checkpoint chains, the three-granularity differential
  oracle behind ``repro diff`` and the one pin store behind ``repro
  golden`` and the tier-1 pin tests (``repro.telemetry.digest`` /
  ``repro.telemetry.diff`` / ``repro.telemetry.pins``);
* :class:`HostTimeLedger` — host wall-time attribution across engine /
  router / link / PHY phases plus cProfile→speedscope folding, driven by
  ``repro profile`` (``repro.telemetry.hostprof``);
* :func:`load_history` / :func:`analyze_history` — the bench
  catalogue's metrics (``bench.case_metrics``) as time series over the
  ``BENCH_<n>.json`` files, and ``repro regress``, the one "is it slower"
  command: a rank-based changepoint sentinel over a long trajectory and
  :func:`classify`'s pairwise noise rule over two runs
  (``repro.telemetry.history`` / ``repro.telemetry.sentinel`` /
  ``repro.telemetry.compare``);
* :class:`RunStore` / :class:`RunRecord` — the append-only cross-run
  registry under ``runs/`` (``repro.telemetry.runstore``);
* :mod:`repro.telemetry.bench` / :mod:`repro.telemetry.dashboard` — the
  reader of the BENCH document (what ``benchmarks/perf/run.py --out``
  writes and ``repro bench`` stamps; nothing here measures) and the
  static HTML dashboard (see ``docs/perf.md``).

Import note: ``repro.noc`` imports :mod:`repro.telemetry.bus` at module
load, so running a point pays for this initializer.  It therefore imports
nothing itself: every re-export below resolves on first access (PEP 562),
and a plain ``run_synthetic`` never loads the bench / compare / diff /
forensics / sentinel / dashboard modules.  Collector submodules only
reference simulator types under ``typing.TYPE_CHECKING``, the bench module
never imports the simulator, and the dashboard does so inside functions only.
"""

from importlib import import_module

#: Submodule -> the names it contributes to this namespace.
_SUBMODULE_EXPORTS = {
    "attribution": ("STAGES", "AttributionError", "LatencyLedger", "render_breakdown"),
    "bench": ("BENCH_SCHEMA_VERSION", "EventCounters", "case_metrics", "load_bench"),
    "bus": ("EVENT_NAMES", "NULL_BUS", "TelemetryBus"),
    "compare": ("MetricVerdict", "classify"),
    "diff": (
        "DiffError", "DiffReport", "Diffable", "diff_runs", "load_diffable",
        "parse_sim_spec", "resimulate",
    ),
    "digest": (
        "DIGEST_ALGO", "DIGEST_SCHEMA_VERSION", "DigestError", "RunDigest",
        "digests_comparable", "validate_digest_block",
    ),
    "forensics": (
        "FORENSICS_SCHEMA_VERSION", "FlightRecorder", "ForensicsConfig",
        "ForensicsSession", "HealthMonitor", "HealthThresholds",
        "capture_bundle", "load_bundle", "render_bundle_html",
        "render_bundle_text", "validate_bundle", "write_bundle",
    ),
    "history": ("MetricSeries", "RunHistory", "SeriesPoint", "load_history"),
    "hostprof": (
        "HostprofError", "HostTimeLedger", "render_host_table",
        "validate_speedscope",
    ),
    "live": (
        "LIVE_SCHEMA_VERSION", "LiveFeed", "LiveFeedError", "feed_status",
        "live_feed_path", "read_feed", "validate_live_event",
    ),
    "metrics": ("EpochMetrics", "EpochSample"),
    "progress": ("EtaEstimator", "ProgressReporter", "format_eta"),
    "runstore": (
        "RUN_SCHEMA_VERSION", "RunRecord", "RunStore", "RunStoreError",
        "record_from_result",
    ),
    "sentinel": (
        "SENTINEL_SCHEMA_VERSION", "MetricReport", "SentinelConfig",
        "SentinelReport", "analyze_history", "detect_changepoint",
        "render_sentinel",
    ),
    "session": ("TelemetryConfig", "TelemetrySession"),
    "trace": ("ChromeTraceBuilder",),
}
#: Re-export -> (submodule, attribute there), resolved on first access.
_EXPORTS = {
    name: (module, name)
    for module, names in _SUBMODULE_EXPORTS.items()
    for name in names
}
# Package-level alias: avoids clashing with attribution.STAGES.
_EXPORTS["HOST_PHASES"] = ("hostprof", "PHASES")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.telemetry' has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
