"""Explicit hetero-PHY adapter pipeline model (Fig 7b, Sec 4.2).

The paper describes the adapter front-end like a superscalar pipeline:

* **Fetch** — concurrently receive multiple packets (flits) from the
  router's interface port;
* **Decode** — extract type/priority information from headers;
* **Issue/Dispatch** — reserve physical resources per the scheduling rules
  and hand each flit to its PHY.

:class:`repro.core.phy.HeteroPhyLink` implements this behaviourally inside
the network simulator (collapsed to one adapter cycle, matching the RTL's
measured overhead).  This module models the pipeline *stage by stage* for
microarchitectural study: latches between stages, per-stage width limits,
and cycle-by-cycle observability.  ``tests/test_adapter.py`` uses it to
check stage occupancy and to cross-validate the collapsed model: fed the
flits a ``HeteroPhyLink`` accepted, in the same cycles, the pipeline issues
them in the link's dispatch order, on the same PHYs, with the same per-VC
sequence numbers, under every shipped policy (one cycle later than the
link, for its extra latch).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.noc.flit import Flit
from .scheduling import PARALLEL, SERIAL, DispatchPolicy


@dataclass
class DecodedFlit:
    """A flit annotated by the decode stage."""

    flit: Flit
    vc: int
    priority: int = 0
    msg_class: str = "data"
    ordered: bool = True

    @classmethod
    def from_flit(cls, flit: Flit, vc: int) -> "DecodedFlit":
        packet = flit.packet
        return cls(
            flit=flit,
            vc=vc,
            priority=packet.priority,
            msg_class=packet.msg_class,
            ordered=packet.ordered,
        )


@dataclass
class IssueRecord:
    """One flit leaving the adapter toward a PHY."""

    flit: Flit
    vc: int
    phy: str  # PARALLEL or SERIAL
    sequence_number: int
    cycle: int


@dataclass
class AdapterPipelineStats:
    """Per-stage occupancy peaks and totals."""

    fetched: int = 0
    decoded: int = 0
    issued_parallel: int = 0
    issued_serial: int = 0
    stalled_cycles: int = 0
    peak_dispatch_queue: int = 0


class TxAdapterPipeline:
    """Cycle-explicit Fetch -> Decode -> Dispatch/Issue pipeline.

    Parameters
    ----------
    policy:
        The dispatch policy deciding per-flit PHY assignment.
    fetch_width:
        Flits accepted from the router per cycle (the higher-radix
        crossbar's concurrency, Sec 4.1).
    parallel_width, serial_width:
        PHY lane widths in flits/cycle.
    queue_depth:
        Dispatch-queue capacity (the multi-width FIFO depth).
    """

    def __init__(
        self,
        policy: DispatchPolicy,
        *,
        fetch_width: int = 6,
        parallel_width: int = 2,
        serial_width: int = 4,
        queue_depth: int = 32,
    ) -> None:
        if min(fetch_width, parallel_width, serial_width, queue_depth) < 1:
            raise ValueError("widths and depth must be >= 1")
        self.policy = policy
        self.fetch_width = fetch_width
        self.parallel_width = parallel_width
        self.serial_width = serial_width
        self.queue_depth = queue_depth
        # Stage latches.
        self._fetch_latch: deque[tuple[Flit, int]] = deque()
        self._decode_latch: deque[DecodedFlit] = deque()
        self._dispatch_queue: deque[DecodedFlit] = deque()
        self._next_sn: dict[int, int] = {}
        self.stats = AdapterPipelineStats()

    # -- capacity queries ---------------------------------------------------
    @property
    def dispatch_occupancy(self) -> int:
        return len(self._dispatch_queue)

    def fetch_budget(self) -> int:
        """Flits the fetch stage can accept in the current cycle."""
        in_flight = (
            len(self._fetch_latch) + len(self._decode_latch) + len(self._dispatch_queue)
        )
        latch_room = self.fetch_width - len(self._fetch_latch)
        return max(0, min(latch_room, self.queue_depth - in_flight))

    # -- stage operations -----------------------------------------------------
    def fetch(self, flit: Flit, vc: int) -> None:
        """Stage 1: accept one flit from the router (this cycle)."""
        if len(self._fetch_latch) >= self.fetch_width:
            raise OverflowError("fetch latch full this cycle")
        self._fetch_latch.append((flit, vc))
        self.stats.fetched += 1

    def tick(self, now: int) -> list[IssueRecord]:
        """Advance one cycle; return the flits issued to the PHYs.

        Stage order within the cycle is back to front (issue before
        decode before fetch-latch movement) so a flit takes three cycles
        to traverse the empty pipeline — fetch at t, decode at t+1, issue
        at t+2.
        """
        issued = self._issue(now)
        # Decode -> dispatch queue.
        while self._decode_latch:
            self._dispatch_queue.append(self._decode_latch.popleft())
        # Fetch latch -> decode.
        while self._fetch_latch:
            flit, vc = self._fetch_latch.popleft()
            self._decode_latch.append(DecodedFlit.from_flit(flit, vc))
            self.stats.decoded += 1
        peak = len(self._dispatch_queue)
        if peak > self.stats.peak_dispatch_queue:
            self.stats.peak_dispatch_queue = peak
        return issued

    def _issue(self, now: int) -> list[IssueRecord]:
        queue = self._dispatch_queue
        queue_len = len(queue)
        par_free = self.parallel_width
        ser_free = self.serial_width
        issued: list[IssueRecord] = []
        while queue and (par_free > 0 or ser_free > 0):
            entry = queue[0]
            phy = self.policy.choose_phy(entry.flit.packet, queue_len, par_free, ser_free)
            if phy is None:
                self.stats.stalled_cycles += 1
                break
            if phy == PARALLEL and par_free > 0:
                par_free -= 1
                self.stats.issued_parallel += 1
            elif phy == SERIAL and ser_free > 0:
                ser_free -= 1
                self.stats.issued_serial += 1
            else:
                break
            queue.popleft()
            sn = self._next_sn.get(entry.vc, 0)
            self._next_sn[entry.vc] = sn + 1
            issued.append(IssueRecord(entry.flit, entry.vc, phy, sn, now))
        return issued

    # -- introspection -----------------------------------------------------------
    def drained(self) -> bool:
        return not (
            self._fetch_latch or self._decode_latch or self._dispatch_queue
        )
