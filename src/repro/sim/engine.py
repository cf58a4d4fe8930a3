"""Cycle-driven simulation engine.

The engine ties together a :class:`~repro.noc.network.Network`, a workload
(anything with a ``step(now) -> list[Packet]`` method) and a
:class:`~repro.sim.stats.Stats` collector, and advances them cycle by cycle.
It also watches for lack of forward progress, turning routing deadlocks
into a :class:`~repro.sim.stats.DeadlockError` instead of a silent hang —
this is how the deadlock-freedom tests exercise Theorem 1.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Iterable, Optional, Protocol

from repro.noc.flit import Packet
from repro.noc.network import Network
from .stats import DeadlockError, DrainTimeoutError, Stats


class ProfileReport:
    """A cProfile capture of one engine run, plus folding helpers.

    Returned by :meth:`Engine.run_profiled`.  The raw profiler stays
    accessible as ``.profile`` so callers can fold it into flamegraph /
    speedscope artifacts (see :mod:`repro.telemetry.hostprof`); ``text()``
    renders the classic :mod:`pstats` table.
    """

    def __init__(
        self, profile: cProfile.Profile, *, sort: str = "cumulative", top: int = 25
    ) -> None:
        self.profile = profile
        self.sort = sort
        self.top = top

    def text(self, *, sort: Optional[str] = None, top: Optional[int] = None) -> str:
        """The ``top`` hottest functions sorted by ``sort`` (pstats keys)."""
        buffer = io.StringIO()
        stats = pstats.Stats(self.profile, stream=buffer)
        stats.sort_stats(sort or self.sort).print_stats(top or self.top)
        return buffer.getvalue()

    def folded(self) -> list[tuple[tuple[str, ...], int]]:
        """Phase-rooted folded stacks (``hostprof.fold_profile``)."""
        from repro.telemetry.hostprof import fold_profile

        return fold_profile(self.profile)

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text (``flamegraph.pl`` input)."""
        from repro.telemetry.hostprof import collapsed_stacks

        return collapsed_stacks(self.folded())

    def speedscope(self, *, name: str = "repro profile") -> dict[str, Any]:
        """Speedscope-compatible JSON document of the folded stacks."""
        from repro.telemetry.hostprof import speedscope_document

        return speedscope_document(self.folded(), name=name)


class Workload(Protocol):
    """A packet source driven by the engine."""

    def step(self, now: int) -> Iterable[Packet]:
        """Packets created at cycle ``now`` (may be empty)."""
        ...

    def done(self, now: int) -> bool:
        """True once the workload will never produce packets again."""
        ...


class Engine:
    """Drives one simulation run."""

    def __init__(
        self,
        network: Network,
        workload: Workload,
        stats: Stats,
        *,
        deadlock_threshold: Optional[int] = 20_000,
    ) -> None:
        self.network = network
        self.workload = workload
        self.stats = stats
        self.deadlock_threshold = deadlock_threshold
        self.cycle = 0
        #: Optional postmortem sink (duck-typed
        #: :class:`repro.telemetry.forensics.ForensicsSession`).  When set,
        #: any failure escaping :meth:`run` / :meth:`run_until_drained`
        #: writes a bundle first and gains a ``bundle_path`` attribute.
        self.forensics = None
        #: Optional host-time ledger (duck-typed
        #: :class:`repro.telemetry.hostprof.HostTimeLedger`).  When set,
        #: each tick it samples calls ``lap(phase)`` at the phase
        #: boundaries of the one cycle loop; simulated behaviour is the
        #: same either way (passive observer).
        self.hostprof = None
        #: Optional live feed (duck-typed
        #: :class:`repro.telemetry.live.LiveFeed`).  When set, a failure
        #: escaping :meth:`run` / :meth:`run_until_drained` lands in the
        #: feed as a terminal ``failure`` event — with the postmortem
        #: bundle path when forensics captured one — so ``repro watch``
        #: surfaces the death without waiting for the registry.
        self.livefeed = None

    def run(self, cycles: int) -> Stats:
        """Advance the simulation by ``cycles`` cycles."""
        end = self.cycle + cycles
        try:
            while self.cycle < end:
                self._tick()
        except (RuntimeError, AssertionError) as exc:
            self._capture_failure(exc)
            raise
        return self.stats

    def run_until_drained(self, max_cycles: int) -> Stats:
        """Run until the workload is exhausted and the network is empty.

        Used for trace replay, where every packet of the trace should be
        delivered before statistics are read.  Raises
        :class:`~repro.sim.stats.DrainTimeoutError` — carrying a per-router
        buffered-flit census — if the network fails to drain within
        ``max_cycles``.
        """
        deadline = self.cycle + max_cycles
        try:
            while self.cycle < deadline:
                self._tick()
                if self.workload.done(self.cycle) and not self.network.holds_flits():
                    return self.stats
        except (RuntimeError, AssertionError) as exc:
            self._capture_failure(exc)
            raise
        census = {
            router.node: flits
            for router in self.network.routers
            if (flits := router.buffered_flits()) > 0
        }
        error = DrainTimeoutError(
            self.cycle,
            max_cycles,
            census,
            self.network.in_flight_flits(),
            self.cycle - self.stats.last_movement_cycle,
        )
        self._capture_failure(error)
        try:
            raise error
        finally:
            # The traceback holds this frame; a local naming the exception
            # would close a cycle that pins the engine and its network.
            del error

    def _capture_failure(self, exc: BaseException) -> None:
        """Write a postmortem bundle for ``exc`` (best effort, never masks it).

        ``AssertionError`` covers the sanitizer's ``InvariantViolation``
        without importing :mod:`repro.analysis` (which would create an
        import cycle through the topology builders).
        """
        if isinstance(exc, DrainTimeoutError):
            reason = "drain-timeout"
        elif isinstance(exc, DeadlockError):
            reason = "deadlock"
        elif isinstance(exc, AssertionError):
            reason = "invariant-violation"
        else:
            reason = "runtime-error"
        path = None
        session = self.forensics
        if session is not None:
            try:
                path = session.capture_to_file(reason, self.cycle, error=exc)
            except Exception:  # noqa: BLE001 - forensics must not mask the failure
                path = None
            if path is not None and getattr(exc, "bundle_path", None) is None:
                try:
                    exc.bundle_path = str(path)
                except AttributeError:
                    pass  # exception type refuses new attributes
        feed = self.livefeed
        if feed is not None:
            try:
                feed.fail(
                    reason,
                    self.cycle,
                    error=f"{type(exc).__name__}: {exc}",
                    bundle=str(path) if path is not None else None,
                )
            except Exception:  # noqa: BLE001 - telemetry must not mask the failure
                pass

    def run_profiled(
        self,
        cycles: int,
        *,
        drain: bool = False,
        sort: str = "cumulative",
        top: int = 25,
    ) -> tuple[Stats, ProfileReport]:
        """Run under :mod:`cProfile`; return ``(stats, ProfileReport)``.

        With ``drain=True`` this wraps :meth:`run_until_drained` (``cycles``
        becomes the drain deadline); otherwise :meth:`run`.  The report
        defaults to the ``top`` hottest functions sorted by ``sort`` (any
        :mod:`pstats` sort key) and can be folded into flamegraph /
        speedscope artifacts — ``repro profile`` is the CLI front end.
        """
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            if drain:
                self.run_until_drained(cycles)
            else:
                self.run(cycles)
        finally:
            profiler.disable()
        return self.stats, ProfileReport(profiler, sort=sort, top=top)

    def _tick(self) -> None:
        now = self.cycle
        stats = self.stats
        stats.now = now
        # Timing seam: ``lap`` is the ledger's lap timer on a cycle it
        # samples, else None — then nothing below calls or reads a clock.
        ledger = self.hostprof
        lap = None
        if ledger is not None:
            lap = self.network.lap = ledger.begin_cycle(now)
        try:
            for packet in self.workload.step(now):
                stats.note_packet_injected(packet)
                self.network.inject(packet)
            if lap is not None:
                lap("inject")
            self.network.step(now)
            self.cycle = now + 1
            if (
                self.deadlock_threshold is not None
                and now - stats.last_movement_cycle > self.deadlock_threshold
            ):
                buffered = self.network.buffered_flits()
                if buffered > 0:
                    raise DeadlockError(now, buffered, now - stats.last_movement_cycle)
                stats.last_movement_cycle = now
        finally:
            if lap is not None:
                self.network.lap = None
                lap("stats")
                ledger.end_cycle()
