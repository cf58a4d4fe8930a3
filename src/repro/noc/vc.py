"""Input virtual-channel buffer.

The buffer sits between a link and a router: links count arriving flits
into it (and put it on the router's pending list when a head flit finds it
idle), the router's pipeline drains it.  It lists each buffered packet
once and counts its flits (see :class:`InputVC`).  It lives in its own
module so both sides can import it without a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .flit import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Link

#: A routing candidate: (output port index, output VC index, is_escape).
Candidate = tuple[int, int, bool]

# Input-VC pipeline states.
VC_IDLE = 0  # waiting for a head flit / routing computation
VC_VA = 1  # route computed, waiting to win an output VC
VC_ACTIVE = 2  # output VC held, flits flow through switch allocation
#: Each state's name in snapshots and postmortem bundles, by state value.
VC_STATE_NAMES = ("idle", "va_wait", "active")


class InputVC:
    """One virtual-channel buffer of an input port, run-length encoded.

    ``queue`` is a plain list used first-in first-out (``append`` /
    ``pop(0)``) that lists each packet once, and ``n`` counts the buffered
    flits.  A VC receives each packet's flits contiguously and head first
    (an output VC belongs to one packet until its tail, and the
    hetero-PHY reorder buffer releases in per-VC order), so the count
    names the flits: ``front`` is the index of the next flit of
    ``queue[0]``, the packets after it follow whole, and only the last one
    listed may still be arriving.  A packet is appended when its head
    arrives and popped when its tail leaves.  A link-fed buffer holds at
    most its port's ``buffer_depth`` flits (credit flow control), so it
    lists at most ``max(n, 1)`` packets: every listed packet but a
    wormhole head whose next flit is still upstream has a flit buffered.
    The injection port has no credits to bound it; its ``queue`` is the
    source queue, whole packets appended by
    :meth:`repro.noc.router.Router.inject`, and ``n`` is their summed
    length minus ``front``.
    """

    __slots__ = (
        "port",
        "index",
        "in_link",
        "queue",
        "n",
        "front",
        "state",
        "candidates",
        "out_port",
        "out_vc",
        "ready_cycle",
        "queued",
    )

    def __init__(self, port: int, index: int, in_link: Optional["Link"] = None) -> None:
        self.port = port
        self.index = index
        #: The link feeding this buffer (None at the injection port); each
        #: flit leaving the buffer returns one credit over it.
        self.in_link = in_link
        self.queue: list[Packet] = []
        #: Flits buffered: those of ``queue[0]`` from ``front`` on, plus the
        #: arrived ones of the packets behind it.
        self.n = 0
        #: Index, within ``queue[0]``, of the next flit to leave.
        self.front = 0
        self.state = VC_IDLE
        self.candidates: Optional[list[Candidate]] = None
        self.out_port = -1
        self.out_vc = -1
        self.ready_cycle = 0
        # True while the VC sits on one of the router's work lists.
        self.queued = False

    def flits(self) -> Iterator[tuple[Packet, int]]:
        """``(packet, index)`` of every buffered flit, front first."""
        left = self.n
        index = self.front
        for packet in self.queue:
            stop = min(packet.length, index + left)
            for i in range(index, stop):
                yield packet, i
            left -= stop - index
            index = 0

    def reset_route(self) -> None:
        self.state = VC_IDLE
        self.candidates = None
        self.out_port = -1
        self.out_vc = -1
