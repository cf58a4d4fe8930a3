"""Receiver-side reorder buffer of the hetero-PHY adapter (Sec 4.2).

Flits of one virtual channel may be split across the parallel and the
serial PHY, whose propagation delays differ; the receiver restores the
transmit order using per-VC sequence numbers.  Because propagation delays
are deterministic, the worst-case capacity is Eq (1)::

    S_rob = B_p * (D_s - D_p)

only parallel-PHY flits ever wait (a serial flit's predecessors always
arrive no later than it does), and at most ``B_p`` of them accumulate per
cycle for at most ``D_s - D_p`` cycles.  The buffer enforces this bound:
exceeding it raises, which the property tests use to validate Eq (1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.noc.flit import Flit


def rob_capacity(parallel_bandwidth: int, serial_delay: int, parallel_delay: int) -> int:
    """Eq (1): worst-case reorder buffer size in flits."""
    if parallel_bandwidth < 1:
        raise ValueError("parallel_bandwidth must be >= 1")
    return max(1, parallel_bandwidth * max(0, serial_delay - parallel_delay))


class RobOverflowError(RuntimeError):
    """The reorder buffer exceeded its provisioned capacity."""


class ReorderBuffer:
    """Sequence-number reorder buffer shared by all VCs of one link.

    ``insert`` files an arrived flit under its (vc, sn); ``release`` pops
    flits whose sequence number is the next expected one for their VC, in
    at most ``budget`` flits per call.  ``max_occupancy`` records the peak
    number of flits left waiting *after* a release pass — the quantity
    Eq (1) bounds.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._waiting: dict[tuple[int, int], Flit] = {}
        self._expected: dict[int, int] = {}
        self.max_occupancy = 0
        self._window_peak = 0

    @property
    def occupancy(self) -> int:
        return len(self._waiting)

    def take_window_peak(self) -> int:
        """Peak post-release occupancy since the last call, then reset.

        Telemetry epoch collectors call this once per epoch to report the
        per-epoch ROB high-water mark without sampling every cycle.
        """
        peak = max(self._window_peak, len(self._waiting))
        self._window_peak = 0
        return peak

    def occupancy_of(self, vc: int) -> int:
        """Waiting flits belonging to one virtual channel."""
        return sum(1 for waiting_vc, _sn in self._waiting if waiting_vc == vc)

    def waiting_flits(self) -> list[Flit]:
        """Flits currently parked out of order (insertion order)."""
        return list(self._waiting.values())

    def snapshot_state(self) -> dict:
        """Forensic snapshot: expected sequence numbers and parked flits."""
        return {
            "capacity": self.capacity,
            "occupancy": len(self._waiting),
            "max_occupancy": self.max_occupancy,
            "expected": {str(vc): sn for vc, sn in sorted(self._expected.items())},
            "waiting": [
                {"vc": vc, "sn": sn, "pid": flit.packet.pid, "flit": flit.index}
                for (vc, sn), flit in sorted(self._waiting.items())
            ],
        }

    def insert(self, flit: Flit, vc: int) -> None:
        if flit.sn is None:
            raise ValueError("flit has no sequence number")
        self._waiting[(vc, flit.sn)] = flit

    def release(self, budget: Optional[int] = None) -> Iterator[tuple[Flit, int]]:
        """Yield in-order (flit, vc) pairs, up to ``budget`` flits.

        Raises :class:`RobOverflowError` if, after releasing, occupancy
        still exceeds the provisioned capacity — the invariant of Eq (1).
        """
        released = 0
        waiting = self._waiting
        expected = self._expected
        progress = True
        while progress and waiting and (budget is None or released < budget):
            progress = False
            # Ascending-VC order makes the within-cycle release sequence
            # well-defined, so downstream arbitration and telemetry
            # subscribers see a reproducible event order.
            if len(waiting) == 1:
                ((only_vc, _sn),) = waiting
                vcs: Iterable[int] = (only_vc,)
            else:
                vcs = sorted({vc for vc, _sn in waiting})
            for vc in vcs:
                sn = expected[vc] if vc in expected else 0
                key = (vc, sn)
                if key in waiting:
                    flit = waiting.pop(key)
                    expected[vc] = sn + 1
                    released += 1
                    progress = True
                    yield flit, vc
                    if budget is not None and released >= budget:
                        break
        if len(waiting) > self.max_occupancy:
            # Occupancy is sampled after the in-order drain: it counts the
            # flits that must actually *wait* across cycles, which is what
            # Eq (1) bounds.
            self.max_occupancy = len(waiting)
        if len(waiting) > self._window_peak:
            self._window_peak = len(waiting)
        if len(waiting) > self.capacity:
            raise RobOverflowError(
                f"reorder buffer holds {len(waiting)} flits, "
                f"capacity {self.capacity} (Eq 1 bound violated)"
            )
