"""Network container and cycle loop.

A :class:`Network` owns the routers and links of one multi-chiplet system
and advances them cycle by cycle.  Only *active* routers and links — those
holding flits, credits or queued work — are stepped, which keeps large
lightly-loaded systems fast without changing cycle-level behaviour.

Activity bookkeeping is deterministic (an ``active`` flag on each router
and link plus append-only work lists, filled in activation order), so two
runs with the same seed produce identical results.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.telemetry.bus import TelemetryBus

from .channel import ChannelKind, ChannelSpec
from .flit import Packet
from .link import Link, PipelinedLink
from .router import Router


class StatsSink(Protocol):
    """What the network needs from a statistics collector: the switch
    flit count the routers add to, the per-kind tallies (indexed by
    channel-kind id) the links add to, and the delivery note."""

    router_flits: int
    link_flits_by_kind: list[int]
    link_energy_pj_by_kind: list[float]

    def note_packet_delivered(self, packet: Packet, now: int) -> None: ...


LinkFactory = Callable[[ChannelSpec], Link]


def default_link_factory(spec: ChannelSpec) -> Link:
    """Build a plain pipelined link; hetero-PHY channels need a custom factory."""
    if spec.kind is ChannelKind.HETERO_PHY:
        raise ValueError(
            "HETERO_PHY channels need repro.core.phy.HeteroPhyLink; "
            "pass link_factory=hetero_phy_link_factory(...)"
        )
    return PipelinedLink(spec)


class Network:
    """Routers + links of one system, with the per-cycle scheduler."""

    def __init__(
        self,
        n_nodes: int,
        stats: StatsSink,
        *,
        injection_vcs: int = 2,
        ejection_bandwidth: int = 4,
        vct: bool = True,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("network needs at least one node")
        self.stats = stats
        #: Instrumentation seam: probes subscribe here (see repro.telemetry).
        self.telemetry = TelemetryBus()
        #: Timing seam: the host-time ledger's ``lap(phase)`` while the
        #: engine runs a cycle the ledger samples, else None.  :meth:`step`
        #: and the links call it at their phase boundaries when it is set.
        self.lap: Optional[Callable[[str], None]] = None
        self.routers = [
            Router(
                node,
                self,
                injection_vcs=injection_vcs,
                ejection_bandwidth=ejection_bandwidth,
                vct=vct,
            )
            for node in range(n_nodes)
        ]
        self.links: list[Link] = []
        self.specs: list[ChannelSpec] = []
        # Work lists of the entities whose ``active`` flag is set, in
        # activation order.  Whoever hands an idle router or link something
        # to do sets the flag and appends it here.
        self._router_work: list[Router] = []
        self._link_work: list[Link] = []
        # True between finalize() and close(): the span in which the network
        # may be stepped and injected into.
        self._finalized = False
        #: Set by :meth:`close`; a closed network is read-only.
        self.closed = False

    @property
    def n_nodes(self) -> int:
        return len(self.routers)

    # -- construction -------------------------------------------------------
    def add_channel(
        self, spec: ChannelSpec, link_factory: Optional[LinkFactory] = None
    ) -> Link:
        """Instantiate and wire one directed channel.

        Interface channels get extra credit slack (``bandwidth x round-trip``)
        on top of the configured buffer depth; this is the paper's
        "additional buffer" that hides cross-chiplet flow-control feedback
        lag (Sec 7.1).
        """
        if self._finalized:
            raise RuntimeError("cannot add channels after finalize()")
        factory = link_factory or default_link_factory
        link = factory(spec)
        link._index = len(self.links)
        depth = spec.buffer_depth
        if spec.is_interface:
            depth += spec.total_bandwidth * (spec.max_delay + link.credit_delay)
        src = self.routers[spec.src]
        dst = self.routers[spec.dst]
        in_port = dst.add_input(link)
        dst.inputs[in_port].buffer_depth = depth
        out_port = src.add_output(link, credits_per_vc=depth)
        link.attach(self, src, out_port, dst, in_port)
        self.links.append(link)
        self.specs.append(spec)
        return link

    def set_routing(self, routing_fn) -> None:
        """Install one routing function on every router."""
        for router in self.routers:
            router.routing_fn = routing_fn

    def finalize(self) -> None:
        """Freeze topology and validate per-router wiring."""
        for router in self.routers:
            router.finalize()
        self._finalized = True

    def close(self) -> None:
        """End the network's life: cut the back-references that make it cyclic.

        Routers and links point back at the network and at each other
        (``Router.network``, ``Link.network``, ``Link.src_router``,
        ``Link.dst_router`` and ``Link._dst_vcs`` → ``InputVC.in_link``), so
        a finished run is cyclic garbage that only a generation-2 collection
        frees.  Cutting exactly those five fields (and emptying the work
        lists) leaves a tree: plain reference counting then frees routers,
        links, buffers and flits the moment the last holder lets go.

        Whoever built the network closes it once the run is over (see
        "Run lifecycle" in ``docs/architecture.md``).  Buffers, credit
        ledgers, ``links``, ``specs`` and per-link counters stay intact, so
        the flit counts, ``snapshot_state()`` and post-run telemetry reports
        read the same after ``close()`` as before; stepping or injecting
        raises ``RuntimeError``.  Idempotent.
        """
        if self.closed:
            return
        self.closed = True
        self._finalized = False
        for router in self.routers:
            router.network = None  # type: ignore[assignment]
        for link in self.links:
            link.network = None
            link.src_router = None
            link.dst_router = None
            link._dst_vcs = None  # type: ignore[assignment]
        self._router_work = []
        self._link_work = []

    # -- simulation ------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance the whole network by one cycle.

        Links first (they deliver into routers), then routers, each in the
        order its entities became active; a router runs RC/VA, then SA/ST.
        """
        if not self._finalized:
            raise self._not_steppable()
        lap = self.lap
        work = self._link_work
        keep: list[Link] = []
        self._link_work = keep
        for link in work:
            if link.step(now):
                keep.append(link)
            else:
                link.active = False
            if lap is not None:
                lap(link.host_phase)
        work_r = self._router_work
        keep_r: list[Router] = []
        self._router_work = keep_r
        for router in work_r:
            if router._pending:
                router._stage_rc_va(now)
                if lap is not None:
                    lap("rc_va")
            if router._active:
                router._stage_sa(now)
                if lap is not None:
                    lap("sa_st")
            if router._pending or router._active:
                keep_r.append(router)
            else:
                router.active = False
        if self.telemetry.cycle_end is not None:
            self.telemetry.cycle_end(self, now)
            if lap is not None:
                lap("telemetry")

    def _not_steppable(self) -> RuntimeError:
        if self.closed:
            return RuntimeError("network is closed")
        return RuntimeError("call finalize() before stepping the network")

    def inject(self, packet: Packet) -> None:
        """Hand a freshly generated packet to its source router."""
        if self.closed:
            raise RuntimeError("network is closed")
        n_nodes = len(self.routers)
        if not (0 <= packet.src < n_nodes and 0 <= packet.dst < n_nodes):
            raise ValueError(
                f"{packet!r} has an endpoint outside this network's "
                f"nodes 0..{n_nodes - 1}"
            )
        if self.telemetry.packet_inject is not None:
            self.telemetry.packet_inject(self, packet)
        self.routers[packet.src].inject(packet)

    # -- introspection -----------------------------------------------------------
    def buffered_flits(self) -> int:
        """Flits buffered in all router input VCs (excludes link pipelines)."""
        return sum(router.buffered_flits() for router in self.routers)

    def in_flight_flits(self) -> int:
        """Flits inside link pipelines."""
        return sum(link.occupancy for link in self.links)

    def holds_flits(self) -> bool:
        """True while any flit is buffered in a router or inside a link.

        Scans the work lists only: a router with a buffered flit has that
        flit's VC on its pending or active list, and a link with a flit in
        it asked to be stepped again, so both are listed by construction
        (``tests/test_network.py`` checks this against the full scans).  A
        closed network has no work lists left and answers from the full scans.
        """
        for router in self._router_work:
            for ivc in router._pending:
                if ivc.n:
                    return True
            for ivc in router._active:
                if ivc.n:
                    return True
        for link in self._link_work:
            if link.occupancy:
                return True
        return self.closed and self.buffered_flits() + self.in_flight_flits() > 0
