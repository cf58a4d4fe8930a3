"""Input virtual-channel buffer.

The buffer sits between a link and a router: links append arriving flits
to it (and put it on the router's pending list when a head flit finds it
idle), the router's pipeline drains it.  A buffered flit is stored as a
reference to its packet; its index within the packet is implied by the
buffer's order (see :class:`InputVC`).  It lives in its own module so
both sides can import it without a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Iterator, Optional

from .flit import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Link

#: A routing candidate: (output port index, output VC index, is_escape).
Candidate = tuple[int, int, bool]

# Input-VC pipeline states.
VC_IDLE = 0  # waiting for a head flit / routing computation
VC_VA = 1  # route computed, waiting to win an output VC
VC_ACTIVE = 2  # output VC held, flits flow through switch allocation


class InputVC:
    """One virtual-channel buffer of an input port.

    ``queue`` is a plain list used first-in first-out (``append`` /
    ``pop(0)``), holding the packet once per buffered flit.  A VC receives
    each packet's flits contiguously and head first (an output VC belongs
    to one packet until its tail, and the hetero-PHY reorder buffer
    releases in per-VC order), so the entries name their flits without
    storing an index: ``queue[0]`` is flit ``front`` of its packet, the
    entries after it count up from there, and a packet's last flit is
    followed by the next packet's head.  A link-fed buffer never holds
    more than its port's ``buffer_depth`` flits (credit flow control), so
    the pop moves a bounded handful of pointers.  The injection port has
    no credits to bound it; there ``queue`` holds the flits of one packet
    only — the one the VC is routing or sending — and the packets behind
    it wait un-carved in ``backlog`` (see
    :meth:`repro.noc.router.Router.inject`).  Observers read :attr:`held`,
    which counts both.
    """

    __slots__ = (
        "port",
        "index",
        "in_link",
        "queue",
        "front",
        "state",
        "candidates",
        "out_port",
        "out_vc",
        "ready_cycle",
        "queued",
        "backlog",
    )

    def __init__(self, port: int, index: int, in_link: Optional["Link"] = None) -> None:
        self.port = port
        self.index = index
        #: The link feeding this buffer (None at the injection port); each
        #: flit leaving the buffer returns one credit over it.
        self.in_link = in_link
        self.queue: list[Packet] = []
        #: Index, within its packet, of the flit ``queue[0]`` stands for.
        self.front = 0
        self.state = VC_IDLE
        self.candidates: Optional[list[Candidate]] = None
        self.out_port = -1
        self.out_vc = -1
        self.ready_cycle = 0
        # True while the VC sits on one of the router's work lists.
        self.queued = False
        #: Source queue behind ``queue``: whole packets, oldest first.  None
        #: until this (injection) VC first backs up.
        self.backlog: Optional[Deque[Packet]] = None

    @property
    def held(self) -> int:
        """Flits this buffer holds: carved ones plus those of backlog packets."""
        if not self.backlog:
            return len(self.queue)
        return len(self.queue) + sum(packet.length for packet in self.backlog)

    def flits(self) -> Iterator[tuple[Packet, int]]:
        """``(packet, index)`` of every carved flit, front first."""
        index = self.front
        for packet in self.queue:
            yield packet, index
            index += 1
            if index == packet.length:
                index = 0

    def reset_route(self) -> None:
        self.state = VC_IDLE
        self.candidates = None
        self.out_port = -1
        self.out_vc = -1
