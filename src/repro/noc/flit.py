"""Flit and packet data model.

The simulator is flit-level and wormhole-switched: a packet is carved into
``length`` flits (one head flit, zero or more body flits, one tail flit; a
single-flit packet is both head and tail).  Flits are the unit of link
transmission, buffering and flow control; packets are the unit of routing and
statistics.

Sizes follow the paper: the circuit prototype uses 64-bit flits (Sec 7.3),
PARSEC traces use 1-flit (8 B) and 9-flit (72 B) packets, and the default
synthetic packet length is 16 flits (Table 2).
"""

from __future__ import annotations

import itertools
from typing import Optional

#: Bits carried by one flit (the paper's RX FIFO is 64 bits wide, Sec 8.2).
FLIT_BITS = 64

_packet_ids = itertools.count()


class Packet:
    """One network packet: the unit of routing, ordering and statistics.

    Parameters
    ----------
    src, dst:
        Source and destination node ids.
    length:
        Number of flits (>= 1).
    create_cycle:
        Cycle at which the packet was generated by the workload.  Latency is
        measured from this cycle to tail delivery, so source queueing counts.
    ordered:
        Whether the packet belongs to an order-preserving message class
        (e.g. coherence traffic).  Ordered flits go through the hetero-PHY
        reorder buffer; unordered packets may use the parallel-PHY bypass.
    priority:
        Larger values are scheduled earlier by priority-aware policies.
    msg_class:
        Free-form label used by application-aware scheduling (Sec 5.3.2),
        e.g. ``"coherence"``, ``"data"``, ``"sync"``.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "length",
        "create_cycle",
        "inject_cycle",
        "arrive_cycle",
        "ordered",
        "priority",
        "msg_class",
        "flits_delivered",
        "hops_onchip",
        "hops_interface",
        "energy_onchip_pj",
        "energy_interface_pj",
        "adaptive_banned",
        "subnet_choice",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        length: int,
        create_cycle: int,
        *,
        ordered: bool = True,
        priority: int = 0,
        msg_class: str = "data",
    ) -> None:
        if length < 1:
            raise ValueError(f"packet length must be >= 1, got {length}")
        if src == dst:
            raise ValueError("packet source and destination must differ")
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.length = length
        self.create_cycle = create_cycle
        self.inject_cycle: Optional[int] = None
        self.arrive_cycle: Optional[int] = None
        self.ordered = ordered
        self.priority = priority
        self.msg_class = msg_class
        self.flits_delivered = 0
        self.hops_onchip = 0
        self.hops_interface = 0
        self.energy_onchip_pj = 0.0
        self.energy_interface_pj = 0.0
        # Set once the packet falls back to the escape sub-network because of
        # congestion; the livelock rule (Sec 6.2) then forbids returning to
        # adaptive channels unless they lie on baseline paths.
        self.adaptive_banned = False
        # Hetero-channel subnetwork choice (Eq 5): "mesh" or "cube", set by
        # the routing function at the source and allowed to switch to "mesh"
        # permanently near the destination (Sec 8.1.2).
        self.subnet_choice: Optional[str] = None

    @property
    def latency(self) -> Optional[int]:
        """Creation-to-delivery latency in cycles, or None if in flight."""
        if self.arrive_cycle is None:
            return None
        return self.arrive_cycle - self.create_cycle

    @property
    def bits(self) -> int:
        """Total payload bits carried by the packet."""
        return self.length * FLIT_BITS

    @property
    def energy_pj(self) -> float:
        """Total link energy consumed so far, in picojoules."""
        return self.energy_onchip_pj + self.energy_interface_pj

    def make_flits(self) -> list["Flit"]:
        """Carve the packet into its flits (head first, tail last)."""
        last = self.length - 1
        return [
            Flit(self, i, is_head=(i == 0), is_tail=(i == last))
            for i in range(self.length)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"len={self.length}, t={self.create_cycle})"
        )


class Flit:
    """One flit of a packet.

    Four slots, because a back-pressured network holds tens of thousands
    of flits.  The hetero-PHY link-level sequence number (Sec 4.2) is not
    one of them: it travels beside the flit in the adapter's PHY pipes and
    keys the reorder buffer (``repro.core.phy`` / ``repro.core.rob``).
    """

    __slots__ = ("packet", "index", "is_head", "is_tail")

    def __init__(self, packet: Packet, index: int, *, is_head: bool, is_tail: bool) -> None:
        self.packet = packet
        self.index = index
        self.is_head = is_head
        self.is_tail = is_tail

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({kind}{self.index}, pid={self.packet.pid})"
