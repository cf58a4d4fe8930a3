"""Input virtual-channel buffer.

The buffer sits between a link and a router: links append arriving flits
to it (and put it on the router's pending list when a head flit finds it
idle), the router's pipeline drains it.  It lives in its own module so
both sides can import it without a cycle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .flit import Flit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .link import Link

#: A routing candidate: (output port index, output VC index, is_escape).
Candidate = tuple[int, int, bool]

# Input-VC pipeline states.
VC_IDLE = 0  # waiting for a head flit / routing computation
VC_VA = 1  # route computed, waiting to win an output VC
VC_ACTIVE = 2  # output VC held, flits flow through switch allocation


class InputVC:
    """One virtual-channel buffer of an input port."""

    __slots__ = (
        "port",
        "index",
        "in_link",
        "queue",
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
        self.queue: deque[Flit] = deque()
        self.state = VC_IDLE
        self.candidates: Optional[list[Candidate]] = None
        self.out_port = -1
        self.out_vc = -1
        self.ready_cycle = 0
        # True while the VC sits on one of the router's work lists.
        self.queued = False

    def reset_route(self) -> None:
        self.state = VC_IDLE
        self.candidates = None
        self.out_port = -1
        self.out_vc = -1
