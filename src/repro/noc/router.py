"""Canonical virtual-channel router with heterogeneous interface support.

The pipeline follows the paper's simulator (Sec 7.1): 1) routing
computation, 2) VC allocation, 3) switch allocation, 4) transmission — one
cycle per stage at zero load.  Interface ports may be wider than on-chip
ports; the switch allocator can grant several flits per cycle to (and from)
such ports, which models the paper's higher-radix crossbar and multi-port
input buffer (Sec 4.1) without re-designing the rest of the router.

Routing functions are pluggable.  A routing function returns *candidate
output virtual channels* for a packet at this router::

    route(router, packet) -> list[(out_port, out_vc, is_escape)]

Escape candidates (``is_escape=True``) form the connected deadlock-free
sub-network C0 of Lemma 1; adaptive candidates are preferred and escape is
used as the fallback.  When a packet falls back to escape *because adaptive
candidates were blocked*, it is marked ``adaptive_banned`` so the livelock
rule of Sec 6.2 can restrict later choices.

Implementation note: the router is event-driven internally — input VCs
needing routing computation or VC allocation sit on a pending list, and
VCs holding an output sit on an active list — so per-cycle cost scales
with traffic, not with port count.  Allocation semantics are unchanged
from the textbook router.  Switch allocation and traversal run as one
flat pass (:meth:`Router._stage_sa`) whose grants move runs of flits; the
per-run call chain, the grant rule and the ordering invariants it must
keep are in ``docs/architecture.md`` ("Hot path").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .flit import Flit, Packet
from .link import Link
from .vc import VC_ACTIVE, VC_IDLE, VC_STATE_NAMES, VC_VA, Candidate, InputVC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

RoutingFunction = Callable[["Router", Packet], list[Candidate]]


class InputPort:
    """An input port: the receiving side of a link, or the injection port."""

    __slots__ = ("index", "link", "vcs", "buffer_depth")

    def __init__(self, index: int, link: Optional[Link], n_vcs: int, buffer_depth: int) -> None:
        self.index = index
        self.link = link
        self.vcs = [InputVC(index, v, link) for v in range(n_vcs)]
        self.buffer_depth = buffer_depth

    @property
    def is_injection(self) -> bool:
        return self.link is None


class OutputPort:
    """An output port: the transmitting side of a link, or the ejection port."""

    __slots__ = ("index", "link", "n_vcs", "credits", "vc_owner", "rr_next", "bandwidth",
                 "asks_budget")

    def __init__(self, index: int, link: Optional[Link], n_vcs: int, credits: int, bandwidth: int) -> None:
        self.index = index
        self.link = link
        self.n_vcs = n_vcs
        # None link => ejection: effectively infinite credits.
        self.credits = [credits] * n_vcs
        self.vc_owner: list[Optional[InputVC]] = [None] * n_vcs
        self.rr_next = 0
        self.bandwidth = bandwidth
        # True iff the link's budget can fall below ``bandwidth``: only a
        # link that overrides ``Link.accept_budget`` is asked for it.
        self.asks_budget = (
            link is not None and type(link).accept_budget is not Link.accept_budget
        )

    @property
    def is_ejection(self) -> bool:
        return self.link is None


class Router:
    """One network node's router.

    Port convention: ``inputs[0]`` is the injection port and ``outputs[0]``
    is the ejection port; ports 1.. correspond to attached channels in the
    order the topology builder created them.
    """

    EJECT_PORT = 0
    INJECT_PORT = 0

    def __init__(
        self,
        node: int,
        network: "Network",
        *,
        injection_vcs: int = 2,
        ejection_bandwidth: int = 4,
        vct: bool = True,
    ) -> None:
        self.node = node
        self.network = network
        self._stats = network.stats
        self._telemetry = network.telemetry
        # Virtual cut-through allocation: an output VC is granted only when
        # the downstream buffer can hold the whole packet.  This is what
        # makes the escape-channel argument of Lemma 1 sound for the
        # deadlock proofs (the paper's 32/64-flit buffers exceed its
        # 16-flit packets, so the evaluated systems operate in this regime).
        self.vct = vct
        self.routing_fn: Optional[RoutingFunction] = None
        self.inputs: list[InputPort] = [
            InputPort(self.INJECT_PORT, None, injection_vcs, buffer_depth=1 << 30)
        ]
        self.outputs: list[OutputPort] = [
            OutputPort(self.EJECT_PORT, None, 1, credits=1 << 30, bandwidth=ejection_bandwidth)
        ]
        # Channel tag -> output port index, used by routing functions.
        self.out_port_by_tag: dict[object, int] = {}
        self._inj_rr = 0
        # Work lists: VCs awaiting RC/VA, and VCs holding an output VC.
        self._pending: list[InputVC] = []
        self._active: list[InputVC] = []
        #: True while the router sits on ``network._router_work``.
        self.active = False

    def finalize(self) -> None:
        """Validate wiring; part of the network construction protocol."""
        if self.routing_fn is None:
            raise RuntimeError(f"router {self.node} has no routing function")

    # -- wiring -----------------------------------------------------------
    def add_input(self, link: Link) -> int:
        spec = link.spec
        port = InputPort(len(self.inputs), link, spec.n_vcs, spec.buffer_depth)
        self.inputs.append(port)
        return port.index

    def add_output(self, link: Link, credits_per_vc: int) -> int:
        spec = link.spec
        port = OutputPort(
            len(self.outputs),
            link,
            spec.n_vcs,
            credits=credits_per_vc,
            bandwidth=spec.total_bandwidth,
        )
        self.outputs.append(port)
        if spec.tag is not None:
            if spec.tag in self.out_port_by_tag:
                raise ValueError(f"duplicate channel tag {spec.tag!r} at node {self.node}")
            self.out_port_by_tag[spec.tag] = port.index
        return port.index

    # -- external events ---------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet at the injection port (source queue).

        Injection VCs are chosen round-robin.  The VC's ``queue`` is the
        source queue: the packet joins it whole, listed once with its
        ``length`` flits added to the VC's count (see
        :class:`~repro.noc.vc.InputVC`), and is popped when its tail leaves.
        """
        vcs = self.inputs[self.INJECT_PORT].vcs
        vc = vcs[self._inj_rr % len(vcs)]
        self._inj_rr += 1
        queue = vc.queue
        if not queue and vc.state == VC_IDLE and not vc.queued:
            vc.queued = True
            self._pending.append(vc)
        queue.append(packet)
        vc.n += packet.length
        if not self.active:
            self.active = True
            self.network._router_work.append(self)

    # -- per-cycle operation ------------------------------------------------
    # ``Network.step`` runs ``_stage_rc_va`` then ``_stage_sa`` on every
    # router of its work list; the router stays listed while either of its
    # own lists is non-empty.

    # Routing computation + VC allocation.
    def _stage_rc_va(self, now: int) -> None:
        route = self.routing_fn
        pending = self._pending
        self._pending = []
        keep = self._pending
        for ivc in pending:
            state = ivc.state
            if state == VC_IDLE:
                queue = ivc.queue
                if queue:
                    # An idle VC's first packet has its head buffered: it
                    # was listed when the head arrived, and the packet
                    # before it left whole.
                    packet = queue[0]
                    ivc.candidates = route(self, packet)
                    if not ivc.candidates:
                        raise RuntimeError(
                            f"routing returned no candidates at node {self.node} "
                            f"for packet {packet!r}"
                        )
                    if self._telemetry.route_compute is not None:
                        self._telemetry.route_compute(
                            self, packet, ivc.port, ivc.index, now
                        )
                    # Speculative router: routing computation and VC
                    # allocation complete within one cycle at zero load
                    # (Sec 7.1); switch traversal happens the next cycle.
                    ivc.state = VC_VA
                    ivc.ready_cycle = now
                    state = VC_VA
                else:
                    ivc.queued = False  # stale entry
                    continue
            if state == VC_VA:
                if now >= ivc.ready_cycle and self._try_vc_allocate(ivc, now):
                    ivc.queued = True  # moves to the active list
                    self._active.append(ivc)
                else:
                    keep.append(ivc)
            else:  # pragma: no cover - defensive
                ivc.queued = False

    def _try_vc_allocate(self, ivc: InputVC, now: int) -> bool:
        """VC allocation: adaptive candidates first, escape as fallback.

        Among allocable adaptive candidates the one with most downstream
        credits wins (the "dynamic properties" selection of Sec 5.2).  If
        only the escape candidate is allocable while adaptive ones exist,
        the packet is marked ``adaptive_banned`` (livelock rule, Sec 6.2).
        """
        outputs = self.outputs
        packet = ivc.queue[0]
        needed = packet.length if self.vct else 1
        best: Optional[Candidate] = None
        best_credits = -1
        saw_adaptive = False
        escape_choice: Optional[Candidate] = None
        for cand in ivc.candidates:
            port_idx, vc_idx, is_escape = cand
            out = outputs[port_idx]
            if not is_escape:
                saw_adaptive = True
            if out.vc_owner[vc_idx] is not None or out.credits[vc_idx] < needed:
                continue
            if is_escape:
                if escape_choice is None:
                    escape_choice = cand
                continue
            credits = out.credits[vc_idx]
            if credits > best_credits:
                best_credits = credits
                best = cand
        if best is None and escape_choice is not None:
            best = escape_choice
            if saw_adaptive:
                packet.adaptive_banned = True
        if best is None:
            return False
        port_idx, vc_idx, _ = best
        outputs[port_idx].vc_owner[vc_idx] = ivc
        ivc.out_port = port_idx
        ivc.out_vc = vc_idx
        ivc.state = VC_ACTIVE
        ivc.ready_cycle = now + 1
        if self._telemetry.vc_alloc is not None:
            self._telemetry.vc_alloc(
                self, packet, ivc.port, ivc.index, port_idx, vc_idx, now
            )
        return True

    # Switch allocation + transmission, as one flat pass.  A grant moves a
    # *run*: ``count`` consecutive flits of one packet, from one input VC,
    # in this cycle.  Per run the only call left is the downstream link's
    # ``accept``; the run's credits go straight onto the upstream link's
    # credit queue.  The run's per-flit bus events are emitted here too,
    # and no subscriber changes what a grant moves.
    def _stage_sa(self, now: int) -> None:
        active = self._active
        # Requests per output port, in work-list order.  Most cycles see a
        # single requesting VC, which needs no grouping and no rotation.
        # A VC can be listed twice (its stale entry outlives the tail by one
        # pass, by which time the VC may hold its next output); the duplicate
        # counts as a contender, and the goldens pin that.
        sole: Optional[InputVC] = None
        requesters: Optional[dict[int, list[InputVC]]] = None
        stale = False
        for ivc in active:
            if ivc.state != VC_ACTIVE:
                ivc.queued = False  # stale (tail already sent)
                stale = True
            elif ivc.n and now >= ivc.ready_cycle:
                if sole is None:
                    sole = ivc
                    continue
                if requesters is None:
                    requesters = {sole.out_port: [sole]}
                out_port = ivc.out_port
                if out_port in requesters:
                    requesters[out_port].append(ivc)
                else:
                    requesters[out_port] = [ivc]
        if stale:
            self._active = [ivc for ivc in active if ivc.state == VC_ACTIVE]
        if sole is None:
            return
        groups: Iterable[tuple[int, list[InputVC]]] = (
            ((sole.out_port, [sole]),) if requesters is None else requesters.items()
        )
        outputs = self.outputs
        telemetry = self._telemetry
        credit_return = telemetry.credit_return
        flit_send = telemetry.flit_send
        link_accept = telemetry.link_accept
        credit_stall = telemetry.credit_stall
        watched = (
            credit_return is not None
            or flit_send is not None
            or link_accept is not None
        )
        sent = 0
        for out_idx, vcs in groups:
            out = outputs[out_idx]
            link = out.link
            credits = out.credits
            budget = out.bandwidth
            if link is not None:
                if credit_stall is not None:
                    # One event per (output VC, cycle) with a flit ready but
                    # no downstream credit — the epoch collector's
                    # credit-stall metric.
                    for ivc in vcs:
                        if ivc.n and credits[ivc.out_vc] <= 0:
                            credit_stall(self, out_idx, ivc.out_vc, now)
                if out.asks_budget:
                    link_budget = link.accept_budget(now)
                    if link_budget < budget:
                        budget = link_budget
            if budget <= 0:
                continue
            # Rotate contenders for fairness, then grant greedily; one
            # contender may win several slots per cycle (multi-width FIFO
            # read, Sec 7.3).  With two or more, each grant is one flit, so
            # their flits interleave (the order the hetero-PHY TX FIFO and
            # same-cycle ejections keep).
            single = len(vcs) == 1
            if not single:
                start = out.rr_next % len(vcs)
                vcs = vcs[start:] + vcs[:start]
                out.rr_next += 1
            progressed = True
            while budget > 0 and progressed:
                progressed = False
                for ivc in vcs:
                    if budget <= 0:
                        break
                    n = ivc.n
                    if not n or ivc.state != VC_ACTIVE:
                        continue
                    out_vc = ivc.out_vc
                    # The ejection port's credits are never spent.
                    room = credits[out_vc]
                    if room <= 0:
                        continue
                    queue = ivc.queue
                    packet = queue[0]
                    index = ivc.front
                    if single:
                        count = packet.length - index
                        if n < count:
                            count = n
                        if budget < count:
                            count = budget
                        if room < count:
                            count = room
                    else:
                        count = 1
                    ivc.n = n - count
                    end = index + count
                    is_tail = end == packet.length
                    if is_tail:
                        queue.pop(0)
                        ivc.front = 0
                    else:
                        ivc.front = end
                    in_link = ivc.in_link
                    if in_link is not None:
                        in_link._credit_queue.append(
                            (now + in_link.credit_delay, ivc.index, count)
                        )
                        if not in_link.active:
                            in_link.active = True
                            self.network._link_work.append(in_link)
                    if watched:
                        # Invariant 3, per flit of the run.
                        for i in range(index, end):
                            if credit_return is not None and in_link is not None:
                                credit_return(in_link, ivc.index, now)
                            flit = Flit(packet, i)
                            if flit_send is not None:
                                flit_send(self, flit, out_idx, out_vc, now)
                            if link_accept is not None and link is not None:
                                link_accept(link, flit, out_vc, now)
                    if link is None:
                        if packet.dst != self.node:
                            raise RuntimeError(
                                f"flit for node {packet.dst} ejected at node {self.node}"
                            )
                        packet.flits_delivered += count
                        if is_tail:
                            self._eject_packet(packet, now)
                    else:
                        credits[out_vc] -= count
                        link.accept(packet, index, count, out_vc, now)
                    if is_tail:
                        out.vc_owner[out_vc] = None
                        ivc.reset_route()
                        # The next packet in this buffer (if any) starts
                        # with its head and needs a fresh route.
                        if queue:
                            ivc.queued = True
                            self._pending.append(ivc)
                        else:
                            ivc.queued = False
                    sent += count
                    budget -= count
                    # A run ends only where the contender can send no more.
                    progressed = not single
        if sent:
            self._stats.router_flits += sent

    def _eject_packet(self, packet: Packet, now: int) -> None:
        """The tail flit left through the ejection port: the packet is done."""
        if packet.flits_delivered != packet.length:
            raise RuntimeError(f"packet {packet.pid} lost flits in flight")
        packet.arrive_cycle = now
        self._stats.note_packet_delivered(packet, now)
        if self._telemetry.packet_eject is not None:
            self._telemetry.packet_eject(self, packet, now)

    # -- introspection ------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits currently buffered at this router's input ports,
        the source queue's included."""
        return sum(vc.n for port in self.inputs for vc in port.vcs)

    def snapshot_state(self) -> dict:
        """Forensic snapshot: occupied input VCs plus the credit ledger.

        Consumed by the postmortem bundle (:mod:`repro.telemetry.forensics`);
        JSON-serializable, and side-effect free so it can be taken from an
        exception handler without perturbing the simulation.
        """
        inputs = []
        for port in self.inputs:
            vcs = []
            for ivc in port.vcs:
                if not ivc.n and ivc.state == VC_IDLE:
                    continue
                entry: dict = {
                    "vc": ivc.index,
                    "occupancy": ivc.n,
                    "state": VC_STATE_NAMES[ivc.state],
                }
                if ivc.n:
                    packet = ivc.queue[0]
                    entry["head"] = {
                        "pid": packet.pid,
                        "flit": ivc.front,
                        "is_head": ivc.front == 0,
                        "dst": packet.dst,
                    }
                if ivc.state == VC_ACTIVE:
                    entry["out_port"] = ivc.out_port
                    entry["out_vc"] = ivc.out_vc
                vcs.append(entry)
            if vcs:
                inputs.append({
                    "port": port.index,
                    "link": None if port.link is None else port.link.index,
                    "vcs": vcs,
                })
        outputs = []
        for out in self.outputs:
            if out.link is None:
                continue  # ejection: effectively infinite credits
            outputs.append({
                "port": out.index,
                "link": out.link.index,
                "credits": list(out.credits),
                "vc_owner": [
                    None if owner is None else [owner.port, owner.index]
                    for owner in out.vc_owner
                ],
            })
        return {
            "node": self.node,
            "buffered": self.buffered_flits(),
            "inputs": inputs,
            "outputs": outputs,
        }
