"""One-call attachment of the full telemetry stack to a network.

:class:`TelemetryConfig` is the declarative surface exposed by the CLI
(``repro simulate --metrics DIR --trace FILE --epoch N``) and by the
experiment harness (``run_synthetic(..., telemetry=...)``); a
:class:`TelemetrySession` instantiates the requested collectors against a
built network's bus and, at :meth:`~TelemetrySession.finalize`, flushes
their outputs to disk and detaches everything so the network returns to
the zero-subscriber fast path.

The session is the engine's failure hook too (``Engine.telemetry``, see
:meth:`~TelemetrySession.fail`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Optional

from .attribution import LatencyLedger
from .digest import RunDigest
from .hostprof import HostTimeLedger
from .metrics import EpochMetrics, HealthMonitor, HealthThresholds
from .progress import ProgressReporter
from .trace import ChromeTraceBuilder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import cProfile

    from repro.noc.network import Network

    from .forensics import FlightRecorder


@dataclass
class TelemetryConfig:
    """What to collect during a run and where to put it.

    Every field is optional; an all-defaults config collects epoch metrics
    in memory only (reachable via ``RunResult.telemetry.metrics``).
    """

    #: Directory for per-epoch CSVs + ``metrics.json`` (None: keep in memory).
    metrics_dir: Optional[str | Path] = None
    #: Output path for the Chrome trace-event JSON (None: no trace).
    trace_path: Optional[str | Path] = None
    #: The one sampling period in cycles: epoch metrics, health checks,
    #: the progress line and the trace's counter tracks all run on it.
    epoch_length: int = 1_000
    #: Emit a live progress line at each epoch close.
    progress: bool = False
    #: Progress destination (default: stderr).
    progress_stream: Optional[IO[str]] = None
    #: Run the engine under cProfile and keep the raw profile
    #: (``RunResult.telemetry.profile``; ``repro simulate --profile`` is
    #: the CLI front end that folds it into collapsed stacks).
    profile: bool = False
    #: Attach the host wall-time ledger
    #: (:class:`~repro.telemetry.hostprof.HostTimeLedger`): attribute
    #: engine wall time to named phases at <5% overhead when strided.
    host_time: bool = False
    #: Time every Nth cycle and extrapolate (1: time every cycle).
    host_stride: int = 1
    #: Attach the per-packet latency-attribution ledger
    #: (:class:`~repro.telemetry.attribution.LatencyLedger`).
    latency_breakdown: bool = False
    #: Write the per-stage breakdown CSV here (implies the ledger).
    breakdown_csv: Optional[str | Path] = None
    #: Collect per-epoch metrics.  On by default; the CLI turns it off for
    #: configs that exist only to carry forensics capture, so plain runs
    #: keep the zero-subscriber fast path.  ``health``, ``progress`` and
    #: ``trace_path`` read the sampler's epochs and switch it on themselves.
    epoch_metrics: bool = True
    #: Capture a postmortem bundle when the run fails (deadlock, drain
    #: timeout, invariant violation; :meth:`TelemetrySession.fail`).  The
    #: one switch: ``health`` / ``flight_recorder`` only feed the bundle.
    forensics: bool = False
    #: Directory postmortem bundles are written into.
    bundle_dir: str | Path = "forensics"
    #: Attach the :class:`~repro.telemetry.forensics.FlightRecorder` ring
    #: buffer (its tail lands in captured bundles).
    flight_recorder: bool = False
    #: Recorder history window in cycles.
    recorder_window: int = 4_096
    #: Recorder detail preset (``"packet"``, ``"route"`` or ``"full"``).
    recorder_events: str = "packet"
    #: Check each closed epoch with a
    #: :class:`~repro.telemetry.metrics.HealthMonitor`.
    health: bool = False
    #: Health anomaly thresholds (None: defaults).
    health_thresholds: Optional[HealthThresholds] = None
    #: Stream for live health-anomaly flags (None: keep them in memory).
    health_stream: Optional[IO[str]] = None
    #: Attach the streaming :class:`~repro.telemetry.digest.RunDigest` —
    #: a platform-stable chained hash of every bus event, persisted on
    #: the run record (``digest`` block) for ``repro diff``.
    digest: bool = False
    #: Cycles between digest checkpoint entries.
    digest_checkpoint_every: int = 1_000
    #: Optional ``(first, last)`` cycle-label window over which the
    #: digest records every per-cycle chain value (implies ``digest``;
    #: used by ``repro diff`` localization re-runs).
    digest_capture: Optional[tuple[int, int]] = None


@dataclass
class TelemetrySession:
    """Live collectors attached to one network for one run."""

    network: "Network"
    config: TelemetryConfig
    metrics: Optional[EpochMetrics] = None
    trace: Optional[ChromeTraceBuilder] = None
    progress: Optional[ProgressReporter] = None
    ledger: Optional[LatencyLedger] = None
    #: Flight recorder (set when ``flight_recorder`` was requested).
    recorder: Optional["FlightRecorder"] = None
    #: Health monitor (set when ``health`` was requested).
    monitor: Optional[HealthMonitor] = None
    #: Path of the postmortem bundle :meth:`fail` wrote, if any.
    bundle_path: Optional[Path] = None
    #: Host wall-time ledger (set when ``host_time`` was requested; the
    #: harness installs it as ``engine.hostprof``).
    hostprof: Optional[HostTimeLedger] = None
    #: Streaming run digest (set when ``digest`` was requested).
    digest: Optional[RunDigest] = None
    #: Raw cProfile capture (set by the harness when ``profile`` was
    #: requested; fold it with :func:`repro.telemetry.hostprof.fold_profile`).
    profile: Optional["cProfile.Profile"] = None
    #: Files written by :meth:`finalize`.
    written: list[Path] = field(default_factory=list)

    @classmethod
    def attach(
        cls,
        network: "Network",
        config: Optional[TelemetryConfig] = None,
        *,
        warmup: int = 0,
        total_cycles: Optional[int] = None,
    ) -> "TelemetrySession":
        """Instantiate the collectors a config asks for and subscribe them."""
        config = config or TelemetryConfig()
        session = cls(network=network, config=config)
        if config.trace_path is not None:
            session.trace = ChromeTraceBuilder(network)
        if config.epoch_metrics or config.health or config.progress or session.trace:
            session.metrics = EpochMetrics(
                network, epoch_length=config.epoch_length, warmup=warmup
            )
        if config.latency_breakdown or config.breakdown_csv is not None:
            session.ledger = LatencyLedger(network, measure_from=warmup)
        if config.host_time:
            session.hostprof = HostTimeLedger(stride=config.host_stride)
        if config.health:
            session.monitor = HealthMonitor(
                network, thresholds=config.health_thresholds, stream=config.health_stream
            )
        if config.flight_recorder:
            from .forensics import FlightRecorder

            session.recorder = FlightRecorder(
                network, window=config.recorder_window, events=config.recorder_events
            )
        if config.digest or config.digest_capture is not None:
            session.digest = RunDigest(
                network,
                checkpoint_every=config.digest_checkpoint_every,
                capture=config.digest_capture,
            )
        if config.progress:
            session.progress = ProgressReporter(
                network.stats, stream=config.progress_stream, total_cycles=total_cycles
            )
        if session.metrics is not None:
            session.metrics.readers = [
                reader.on_epoch
                for reader in (session.monitor, session.progress, session.trace)
                if reader is not None
            ]
        return session

    def fail(self, reason: str, cycle: int, exc: BaseException) -> Optional[Path]:
        """The engine's failure hook: write a bundle when ``forensics`` is
        on and return its path.  Best effort: a failed write masks no ``exc``.
        """
        if self.config.forensics:
            try:
                from .forensics import capture_bundle, write_bundle

                bundle = capture_bundle(
                    self.network, now=cycle, reason=reason, error=exc,
                    recorder=self.recorder, monitor=self.monitor,
                )
                self.bundle_path = write_bundle(bundle, self.config.bundle_dir)
            except Exception:  # noqa: BLE001 - forensics must not mask the failure
                pass
        return self.bundle_path

    def forensics_summary(self) -> dict[str, Any]:
        """The run registry's ``forensics`` block (empty when nothing ran)."""
        summary: dict[str, Any] = {}
        if self.monitor is not None:
            summary["health"] = self.monitor.summary()
        if self.recorder is not None:
            summary["recorder"] = self.recorder.summary()
        if self.bundle_path is not None:
            summary["bundle"] = str(self.bundle_path)
        return summary

    def finalize(self, end_cycle: int) -> list[Path]:
        """Close collectors, write outputs, detach from the bus."""
        if self.metrics is not None:
            # Closes the trailing partial epoch: its readers see it too.
            self.metrics.finish(end_cycle)
            if self.config.metrics_dir is not None:
                self.written.extend(self.metrics.write(self.config.metrics_dir))
        if self.progress is not None:
            self.progress.close()
        if self.trace is not None:
            self.trace.detach()
            if self.config.trace_path is not None:
                self.written.append(self.trace.write(self.config.trace_path))
        if self.ledger is not None:
            self.ledger.detach()
            if self.config.breakdown_csv is not None:
                self.written.append(self.ledger.write_csv(self.config.breakdown_csv))
        if self.recorder is not None:
            self.recorder.detach()
        if self.digest is not None:
            self.digest.detach()
        return self.written
