"""Unified observability for the simulator (see ``docs/observability.md``).

* :class:`TelemetryBus` — the single instrumentation seam: named events,
  zero-cost with no subscribers (``repro.telemetry.bus``);
* :class:`LatencyLedger` — per-packet latency attribution with an exact
  conservation invariant, aggregate breakdowns and topology bottleneck
  tables (``repro.telemetry.attribution``);
* :class:`EpochMetrics` / :class:`HealthMonitor` — per-epoch time-series
  collectors with CSV/JSON export, the one periodic sampler the health
  monitor, live feed and progress line read, and the per-epoch health
  checks against :class:`HealthThresholds` (``repro.telemetry.metrics``);
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
* :mod:`repro.telemetry.dashboard` / :mod:`repro.telemetry.server` — the
  fleet, run and postmortem pages (section lists over one source each)
  and the stdlib SSE service behind ``repro watch`` (imported lazily);
* :class:`FlightRecorder` / :func:`capture_bundle` — bounded event ring
  buffer and the postmortem bundle of a wedged run, rendered by ``repro
  postmortem`` (``repro.telemetry.forensics``);
* :class:`TelemetryConfig` / :class:`TelemetrySession` — one-call
  attachment used by ``run_synthetic`` / ``run_trace`` and the
  ``repro simulate`` CLI, and the engine's failure hook
  (``Engine.telemetry``: bundle + live ``failure`` event) and cProfile
  capture (``repro.telemetry.session``);
* :class:`RunDigest` — streaming platform-stable chained hash of every
  bus event, with checkpoint chains, the three-granularity differential
  oracle behind ``repro diff`` and the one pin store behind ``repro
  golden`` and the tier-1 pin tests (``repro.telemetry.digest`` /
  ``repro.telemetry.diff`` / ``repro.telemetry.pins``);
* :class:`HostTimeLedger` — host wall-time attribution across engine /
  router / link / PHY phases plus folding of the session's cProfile
  capture into collapsed stacks, driven by ``repro simulate --profile``
  (``repro.telemetry.hostprof``);
* :func:`load_history` / :func:`analyze_history` — the bench
  catalogue's metrics (``bench.case_metrics``) as time series over the
  ``BENCH_<n>.json`` files, and ``repro regress``, the one "is it slower"
  command: a rank-based changepoint sentinel over a long trajectory and
  :func:`classify`'s pairwise noise rule over two runs
  (``repro.telemetry.history`` / ``repro.telemetry.sentinel`` /
  ``repro.telemetry.compare``);
* :class:`RunStore` / :class:`RunRecord` — the append-only cross-run
  registry under ``runs/`` (``repro.telemetry.runstore``);
* :mod:`repro.telemetry.bench` — the reader of the BENCH document (what
  ``benchmarks/perf/run.py --out`` writes and ``repro bench`` stamps;
  nothing here measures; see ``docs/perf.md``).

Import note: ``repro.noc`` imports :mod:`repro.telemetry.bus` at module
load, so running a point pays for this initializer.  It therefore imports
nothing itself: every re-export below resolves on first access (PEP 562),
and a plain ``run_synthetic`` never loads the bench / compare / diff /
forensics / sentinel / dashboard modules.  Collector submodules only
reference simulator types under ``typing.TYPE_CHECKING``, the bench module
never imports the simulator, and the dashboard does so inside functions only.
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "attribution": ("STAGES", "AttributionError", "LatencyLedger", "render_breakdown"),
    "bench": ("BENCH_SCHEMA_VERSION", "EventCounters", "case_metrics", "load_bench"),
    "bus": ("EVENT_NAMES", "NULL_BUS", "TelemetryBus"),
    "compare": ("MetricVerdict", "classify"),
    "dashboard": ("render_bundle_html", "render_bundle_text"),
    "diff": (
        "DiffError", "DiffReport", "Diffable", "diff_runs", "load_diffable",
        "parse_sim_spec", "resimulate",
    ),
    "digest": (
        "DIGEST_ALGO", "DIGEST_SCHEMA_VERSION", "DigestError", "RunDigest",
        "digests_comparable", "validate_digest_block",
    ),
    "forensics": (
        "FORENSICS_SCHEMA_VERSION", "FlightRecorder", "capture_bundle",
        "load_bundle", "validate_bundle", "write_bundle",
    ),
    "history": ("MetricSeries", "RunHistory", "SeriesPoint", "load_history"),
    # HOST_PHASES: the package-level name avoids clashing with attribution.STAGES.
    "hostprof": ("HOST_PHASES=PHASES", "HostprofError", "HostTimeLedger", "render_host_table"),
    "live": (
        "LIVE_SCHEMA_VERSION", "LiveFeed", "LiveFeedError", "feed_status",
        "live_feed_path", "read_feed", "validate_live_event",
    ),
    "metrics": ("EpochMetrics", "EpochSample", "HealthMonitor", "HealthThresholds"),
    "progress": ("EtaEstimator", "ProgressReporter", "format_eta"),
    "runstore": (
        "RUN_SCHEMA_VERSION", "RunRecord", "RunStore", "RunStoreError",
        "record_from_result",
    ),
    "sentinel": (
        "SENTINEL_SCHEMA_VERSION", "MetricReport", "SentinelReport",
        "analyze_history", "detect_changepoint", "render_sentinel",
    ),
    "session": ("TelemetryConfig", "TelemetrySession"),
    "trace": ("ChromeTraceBuilder",),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
