"""Live progress reporting for long simulation runs.

:class:`ProgressReporter` is a reader of the
:class:`~repro.telemetry.metrics.EpochMetrics` sampler: at each closed
epoch it rewrites one status line on a stream (stderr by default) —
simulated cycle, simulation speed in cycles/second of wall-clock time,
flits currently in the network, the delivered fraction of the measured
packet population and, when the horizon is known, an ETA.  It has no bus
subscription of its own; its cost is one line of I/O per epoch.

On an interactive terminal the line is rewritten in place with ``"\r"``;
when the stream is not a TTY (CI logs, files, pipes) every update is
written as its own newline-terminated line so logs stay readable.

:class:`EtaEstimator` is the reporter's remaining-time model: an
exponentially smoothed cycles-per-second estimate divided into the
remaining horizon.
"""

from __future__ import annotations

import math
import sys
import time
from typing import IO, TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.stats import Stats

    from .metrics import EpochSample


class EtaEstimator:
    """Smoothed simulation speed and remaining wall-time estimate.

    ``update(cycle)`` folds the speed over the latest interval into an
    exponential moving average (``alpha`` weights the newest interval),
    which damps the burstiness of per-interval wall clocks; the ETA is
    the remaining cycles divided by that smoothed speed, or ``None``
    while no horizon or no speed estimate is available.  An update that
    does not advance the cycle leaves the estimate alone.
    """

    def __init__(self, total_cycles: Optional[int] = None, *, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.total_cycles = total_cycles
        self.alpha = alpha
        self.cps = math.nan
        self._last_wall = time.perf_counter()
        self._last_cycle = 0

    def update(self, cycle: int) -> float:
        """Fold the interval since the last update in; return smoothed cps."""
        wall = time.perf_counter()
        elapsed = wall - self._last_wall
        advanced = cycle - self._last_cycle
        if advanced <= 0:
            return self.cps
        if elapsed > 0:
            instantaneous = advanced / elapsed
            if math.isnan(self.cps):
                self.cps = instantaneous
            else:
                self.cps = self.alpha * instantaneous + (1.0 - self.alpha) * self.cps
        self._last_wall = wall
        self._last_cycle = cycle
        return self.cps

    def eta_seconds(self, cycle: Optional[int] = None) -> Optional[float]:
        """Estimated seconds to the horizon (None: unknowable)."""
        if cycle is None:
            cycle = self._last_cycle
        if not self.total_cycles or math.isnan(self.cps) or self.cps <= 0:
            return None
        return max(0, self.total_cycles - cycle) / self.cps


def format_eta(seconds: Optional[float]) -> str:
    """``"1:03:20"`` / ``"4:02"`` / ``"n/a"`` rendering of an ETA."""
    if seconds is None or not math.isfinite(seconds) or seconds < 0:
        return "n/a"
    whole = int(round(seconds))
    hours, remainder = divmod(whole, 3600)
    minutes, secs = divmod(remainder, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressReporter:
    """Writes an updating one-line run status to a stream, once per epoch.

    Parameters
    ----------
    stats:
        The run's statistics (delivery figures).
    stream:
        Destination text stream; defaults to ``sys.stderr``.
    total_cycles:
        The run's horizon (None: unknown); when given, the status line
        includes percentage completion and ETA.
    """

    def __init__(
        self,
        stats: "Stats",
        *,
        stream: Optional[IO[str]] = None,
        total_cycles: Optional[int] = None,
    ) -> None:
        self.stats = stats
        self.stream = stream if stream is not None else sys.stderr
        self.eta = EtaEstimator(total_cycles)
        self.updates = 0
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError, OSError):
            self._tty = False
        self._closed = False

    def on_epoch(self, sample: "EpochSample") -> None:
        """Write the status line for one closed epoch."""
        cycle = sample.end
        cps = self.eta.update(cycle)
        self.updates += 1
        line = self._format_line(cycle, cps, sample.buffered + sample.in_flight)
        self.stream.write("\r" + line if self._tty else line + "\n")
        self.stream.flush()

    def _format_line(self, cycle: int, cps: float, in_network: int) -> str:
        fraction = self.stats.delivered_fraction
        delivered = "n/a" if math.isnan(fraction) else f"{fraction:6.1%}"
        total = self.eta.total_cycles
        parts = [f"cycle {cycle:>9d}"]
        if total:
            parts.append(f"({cycle / total:4.0%})")
        parts.append(f"| {cps:>10,.0f} cyc/s")
        parts.append(f"| in-flight {in_network:>6d} flits")
        parts.append(f"| delivered {delivered}")
        if total:
            parts.append(f"| eta {format_eta(self.eta.eta_seconds(cycle)):>8s}")
        return " ".join(parts)

    def close(self) -> None:
        """Stop reporting and finish the status line."""
        if self._closed:
            return
        self._closed = True
        if self.updates and self._tty:
            # Non-TTY updates are already newline-terminated.
            self.stream.write("\n")
            self.stream.flush()
