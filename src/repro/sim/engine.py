"""Cycle-driven simulation engine.

The engine ties together a :class:`~repro.noc.network.Network`, a workload
(anything with a ``step(now) -> list[Packet]`` method) and a
:class:`~repro.sim.stats.Stats` collector, and advances them cycle by cycle.
It also watches for lack of forward progress, turning routing deadlocks
into a :class:`~repro.sim.stats.DeadlockError` instead of a silent hang —
this is how the deadlock-freedom tests exercise Theorem 1.  The watchdog
in :meth:`Engine._tick` is the one stall detector, with or without the
runtime sanitizer attached: its error names the fullest routers and the
oldest in-flight packet, and its postmortem bundle is filed ``deadlock``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Protocol

from repro.noc.flit import Packet
from repro.noc.network import Network
from .stats import DeadlockError, DrainTimeoutError, Stats

if TYPE_CHECKING:  # pragma: no cover - the observatory loads on demand
    from repro.telemetry.session import TelemetrySession


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
        #: Optional host-time ledger (duck-typed
        #: :class:`repro.telemetry.hostprof.HostTimeLedger`).  When set,
        #: each tick it samples calls ``lap(phase)`` at the phase
        #: boundaries of the one cycle loop; simulated behaviour is the
        #: same either way (passive observer).
        self.hostprof = None
        #: Optional telemetry session.  When set, a failure escaping
        #: :meth:`run` / :meth:`run_until_drained` goes through its
        #: ``fail`` hook — the postmortem bundle — and gains a
        #: ``bundle_path`` attribute.
        self.telemetry: Optional[TelemetrySession] = None

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
        """Hand ``exc`` to the telemetry session's failure hook.

        The hook is best effort and never masks the failure.
        ``AssertionError`` covers the sanitizer's ``InvariantViolation``
        without importing :mod:`repro.analysis` (which would create an
        import cycle through the topology builders).
        """
        session = self.telemetry
        if session is None:
            return
        if isinstance(exc, DrainTimeoutError):
            reason = "drain-timeout"
        elif isinstance(exc, DeadlockError):
            reason = "deadlock"
        elif isinstance(exc, AssertionError):
            reason = "invariant-violation"
        else:
            reason = "runtime-error"
        # A deadlock is detected after the tick has advanced ``self.cycle``;
        # file it at the cycle its error reports, so packet ages agree.
        cycle = exc.cycle if isinstance(exc, DeadlockError) else self.cycle
        path = session.fail(reason, cycle, exc)
        if path is not None and getattr(exc, "bundle_path", None) is None:
            try:
                exc.bundle_path = str(path)
            except AttributeError:
                pass  # exception type refuses new attributes

    def _tick(self) -> None:
        now = self.cycle
        stats = self.stats
        moved = stats.router_flits
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
            if stats.router_flits != moved:
                stats.last_movement_cycle = now
            if (
                self.deadlock_threshold is not None
                and now - stats.last_movement_cycle > self.deadlock_threshold
            ):
                buffered = self.network.buffered_flits()
                if buffered > 0:
                    raise DeadlockError.in_network(
                        self.network, now, buffered, now - stats.last_movement_cycle
                    )
                stats.last_movement_cycle = now
        finally:
            if lap is not None:
                self.network.lap = None
                lap("stats")
                ledger.end_cycle()
