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
:meth:`ReorderBuffer.waiting` is the one listing of the parked flits (the
link's :meth:`~repro.core.phy.HeteroPhyLink.contents` reads it).
"""

from __future__ import annotations

from typing import Iterator

from repro.noc.flit import Packet


def rob_capacity(parallel_bandwidth: int, serial_delay: int, parallel_delay: int) -> int:
    """Eq (1): worst-case reorder buffer size in flits."""
    if parallel_bandwidth < 1:
        raise ValueError("parallel_bandwidth must be >= 1")
    return max(1, parallel_bandwidth * max(0, serial_delay - parallel_delay))


class RobOverflowError(RuntimeError):
    """The reorder buffer exceeded its provisioned capacity."""


class ReorderBuffer:
    """Sequence-number reorder buffer shared by all VCs of one link.

    :meth:`reorder` is the per-cycle entry point: it takes the flits that
    arrived this cycle, each a ``(packet, index)`` with its VC and the
    sequence number the transmitter gave it, and returns the ones now in
    order.  :meth:`insert` (file one arrived flit under its ``(vc, sn)``)
    and :meth:`release`
    (pop every flit whose sequence number is the next expected one for its
    VC) are its single-item forms.  ``max_occupancy`` records the peak
    number of flits left waiting *after* a release pass — the quantity
    Eq (1) bounds.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._waiting: dict[tuple[int, int], tuple[Packet, int]] = {}
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

    def waiting(self) -> Iterator[tuple[Packet, int, int]]:
        """``(packet, index, vc)`` of each flit parked out of order, in
        insertion order."""
        for (vc, _sn), (packet, index) in self._waiting.items():
            yield packet, index, vc

    def snapshot_state(self) -> dict:
        """Forensic snapshot: expected sequence numbers and parked flits."""
        return {
            "capacity": self.capacity,
            "occupancy": len(self._waiting),
            "max_occupancy": self.max_occupancy,
            "expected": {str(vc): sn for vc, sn in sorted(self._expected.items())},
            "waiting": [
                {"vc": vc, "sn": sn, "pid": packet.pid, "flit": index}
                for (vc, sn), (packet, index) in sorted(self._waiting.items())
            ],
        }

    def reorder(
        self, arrivals: list[tuple[Packet, int, int, int]]
    ) -> list[tuple[Packet, int, int]]:
        """File one cycle's arrived ``(packet, index, vc, sn)`` entries;
        return the ``(packet, index, vc)`` of the flits now in order.

        Same result as :meth:`insert` per arrival followed by
        :meth:`release`.  When nothing is parked and the arrivals are the
        next expected sequence numbers of a single VC — traffic that stayed
        on one PHY — they pass straight through, never entering the table.
        """
        if arrivals and not self._waiting:
            expected = self._expected
            vc = arrivals[0][2]
            sn = expected[vc] if vc in expected else 0
            for _packet, _index, flit_vc, flit_sn in arrivals:
                if flit_vc != vc or flit_sn != sn:
                    break
                sn += 1
            else:
                # Nothing waits after this pass, so neither occupancy peak
                # nor the Eq (1) check can move.
                expected[vc] = sn
                return [(packet, index, vc) for packet, index, vc, _sn in arrivals]
        for packet, index, vc, sn in arrivals:
            self.insert(packet, index, vc, sn)
        return self.release()

    def insert(self, packet: Packet, index: int, vc: int, sn: int) -> None:
        """Park flit ``index`` of ``packet`` under its ``(vc, sn)`` until
        :meth:`release`."""
        key = (vc, sn)
        waiting = self._waiting
        if key in waiting:
            parked, parked_index = waiting[key]
            raise ValueError(
                f"duplicate sequence number {sn} on VC {vc}: flit {index} of "
                f"packet {packet.pid} arrived while flit {parked_index} of "
                f"packet {parked.pid} is still parked"
            )
        waiting[key] = (packet, index)

    def release(self) -> list[tuple[Packet, int, int]]:
        """Pop every in-order flit; return them as ``(packet, index, vc)``.

        Raises :class:`RobOverflowError` if, after releasing, occupancy
        still exceeds the provisioned capacity — the invariant of Eq (1).
        """
        released: list[tuple[Packet, int, int]] = []
        waiting = self._waiting
        expected = self._expected
        # One flit per VC per round, VCs in ascending order: the
        # within-cycle release sequence is well-defined, so downstream
        # arbitration and telemetry subscribers see a reproducible event
        # order.  A VC that cannot release in one round cannot in a later
        # one (nothing arrives meanwhile), so it drops out.
        vcs = sorted({vc for vc, _sn in waiting})
        while vcs:
            ready = []
            for vc in vcs:
                sn = expected[vc] if vc in expected else 0
                parked = waiting.pop((vc, sn), None)
                if parked is not None:
                    expected[vc] = sn + 1
                    released.append((*parked, vc))
                    ready.append(vc)
            vcs = ready
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
        return released
