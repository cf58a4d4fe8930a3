"""Closed-loop request/reply traffic.

The paper replays traces open-loop ("packets are injected according to the
trace time even if queuing occurs", Sec 7.2).  Real coherence traffic is
closed-loop: a core has a bounded number of outstanding requests (MSHRs)
and the home node's reply depends on the request's *delivery*.  This
workload models that dependency chain:

* each node issues read requests (1 flit) to address-interleaved homes
  while it has MSHR capacity;
* when a request is delivered, the home enqueues the 9-flit data reply
  after a fixed service delay;
* when the reply is delivered, the MSHR is freed and the *transaction*
  latency (request creation to reply delivery) is recorded.

Closed-loop traffic self-throttles: a congested network slows issue
instead of building unbounded source queues, so transaction latency — not
delivered fraction — is the fidelity metric.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Optional

from repro.noc.flit import Packet
from .rng import Stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.network import Network

#: Netrace packet sizes (Sec 7.2).
REQUEST_FLITS = 1
REPLY_FLITS = 9


class RequestReplyWorkload:
    """Closed-loop cache-style traffic on one network.

    Parameters
    ----------
    network:
        The network the workload drives.  Every node is both a core and a
        home slice; :meth:`on_delivery` subscribes to its bus's
        ``packet_eject`` to drive the reply chain.
    issue_rate:
        Request-issue probability per node per cycle (while MSHRs free).
    mshrs:
        Maximum outstanding transactions per node.
    service_delay:
        Cycles between request delivery and reply injection.
    """

    def __init__(
        self,
        network: "Network",
        *,
        issue_rate: float = 0.02,
        mshrs: int = 4,
        service_delay: int = 24,
        until: Optional[int] = None,
        seed: int = 17,
    ) -> None:
        n_nodes = network.n_nodes
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        if not 0 <= issue_rate <= 1:
            raise ValueError("issue_rate must be in [0, 1]")
        if mshrs < 1 or service_delay < 0:
            raise ValueError("mshrs >= 1 and service_delay >= 0 required")
        self.n_nodes = n_nodes
        self.issue_rate = issue_rate
        self.mshrs = mshrs
        self.service_delay = service_delay
        self.until = until
        self.rng = Stream(seed)
        self._outstanding = [0] * n_nodes
        # replies scheduled for future injection:
        # (inject_cycle, home, requester, issue_cycle)
        self._pending_replies: list[tuple[int, int, int, int]] = []
        # request pid -> (requester, issue_cycle)
        self._transactions: dict[int, tuple[int, int]] = {}
        # reply pid -> (requester, issue_cycle)
        self._reply_owner: dict[int, tuple[int, int]] = {}
        self.transaction_latencies: list[int] = []
        self.requests_issued = 0
        self.replies_delivered = 0
        network.telemetry.attach({"packet_eject": self.on_delivery})

    # -- engine protocol ------------------------------------------------------
    def step(self, now: int) -> Iterable[Packet]:
        packets: list[Packet] = []
        while self._pending_replies and self._pending_replies[0][0] <= now:
            _, home, requester, issue_cycle = heapq.heappop(self._pending_replies)
            reply = Packet(
                home, requester, REPLY_FLITS, now, msg_class="data", ordered=True
            )
            self._reply_owner[reply.pid] = (requester, issue_cycle)
            packets.append(reply)
        if self.until is None or now < self.until:
            rng = self.rng
            draws = [rng.random() for _ in range(self.n_nodes)]
            for node in range(self.n_nodes):
                if self._outstanding[node] >= self.mshrs:
                    continue
                if draws[node] >= self.issue_rate:
                    continue
                home = rng.integers(self.n_nodes - 1)
                if home >= node:
                    home += 1
                request = Packet(
                    node, home, REQUEST_FLITS, now, msg_class="coherence", ordered=True
                )
                self._outstanding[node] += 1
                self._transactions[request.pid] = (node, now)
                self.requests_issued += 1
                packets.append(request)
        return packets

    def on_delivery(self, _router: object, packet: Packet, now: int) -> None:
        """Advance the transaction state machine on each delivery (the
        ``packet_eject`` callback)."""
        transaction = self._transactions.pop(packet.pid, None)
        if transaction is not None:
            requester, issue_cycle = transaction
            heapq.heappush(
                self._pending_replies,
                (now + self.service_delay, packet.dst, requester, issue_cycle),
            )
            return
        owner = self._reply_owner.pop(packet.pid, None)
        if owner is not None:
            requester, issue_cycle = owner
            self._outstanding[requester] -= 1
            self.replies_delivered += 1
            self.transaction_latencies.append(now - issue_cycle)

    def done(self, now: int) -> bool:
        return (
            self.until is not None
            and now >= self.until
            and not self._transactions
            and not self._reply_owner
            and not self._pending_replies
        )

    # -- metrics -----------------------------------------------------------------
    @property
    def outstanding_total(self) -> int:
        return sum(self._outstanding)

    @property
    def avg_transaction_latency(self) -> float:
        if not self.transaction_latencies:
            return float("nan")
        return sum(self.transaction_latencies) / len(self.transaction_latencies)
