"""Link models.

Off-chip interfaces run at much higher signalling rates than the on-chip
clock, so the paper models them as behavioural digital circuits in the
on-chip clock domain: a *virtual pipeline* whose width equals the interface
bandwidth (flits/cycle) and whose depth equals the propagation delay in
on-chip cycles (Sec 7.1).  :class:`PipelinedLink` implements exactly that
model and also serves for on-chip wires (width = link bandwidth, depth = 1).

A link is *directed*.  Credit return travels the opposite way with the same
propagation delay; interface credits are sized so that the round-trip lag
does not throttle the link (the paper's "additional buffer", Sec 7.1).

Each link lists its own flits: :meth:`Link.contents` yields the runs
inside it with their attribution stage, and is the only way code outside
a link (the sanitizer's credit sum, the postmortem in-flight table) reads
what is inside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.telemetry.bus import NULL_BUS, TelemetryBus

from .channel import KIND_IDS, ChannelKind, ChannelSpec
from .flit import FLIT_BITS, Flit, Packet
from .vc import VC_IDLE, InputVC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .router import Router

#: Latency-ledger stage charged for a tail flit's traversal of a link of
#: each kind.  Hetero-PHY links carry ``None``: their traversal is
#: attributed through the ``phy_dispatch`` / ``rob_insert`` /
#: ``rob_release`` events instead, split per PHY.  The names must stay in
#: sync with :data:`repro.telemetry.attribution.STAGES` (checked by
#: ``tests/test_attribution.py``).
TRAVERSAL_STAGES: dict[ChannelKind, Optional[str]] = {
    ChannelKind.ONCHIP: "link_onchip",
    ChannelKind.PARALLEL: "link_parallel",
    ChannelKind.SERIAL: "link_serial",
    ChannelKind.HETERO_PHY: None,
}

#: A run of flits inside a link (:meth:`Link.contents`): packet, first flit
#: index, flit count, VC and attribution stage.
Run = tuple[Packet, int, int, int, str]


class Link:
    """Base class of all directed links.

    Subclasses implement :meth:`accept` (a run of flits enters the link at
    the transmitter) and :meth:`step` (advance internal pipelines, deliver
    flits and due credits).  Only a link whose budget can fall below its
    bandwidth overrides :meth:`accept_budget`, and only such a link is
    asked; the switch allocator never exceeds its answer.

    :meth:`accept`, :meth:`step` and an overridden :meth:`accept_budget`
    are the seams left in the cycle kernel: the router and the network
    call each exactly once per *run*, link-cycle and budget query.  A run
    is ``count`` consecutive flits of one packet, on one VC, granted in one
    cycle; it is one flit whenever the output had two contenders
    (``docs/architecture.md``, "Hot path").  The rest of the books is kept
    inline: the granting router queues a run's credits on the feeding link
    and emits the run's ``credit_return`` and ``link_accept`` events, and
    a link adds its flits and energy to the per-kind tallies of ``Stats``.
    A subclass overriding a seam sees every run (the fault-injecting links of
    ``tests/test_sanitizer.py`` do) — with or without a host-time ledger
    attached, which times the same ``step`` from outside and charges it to
    :attr:`host_phase`.  Inside them the work is flat — a delivery loop
    writes arriving flits straight into the downstream
    :class:`~repro.noc.vc.InputVC` and due credits straight into the
    upstream credit counters.
    """

    #: Host-time phase one ``step`` of this link is charged to
    #: (:data:`repro.telemetry.hostprof.PHASES`).
    host_phase = "link"

    def __init__(self, spec: ChannelSpec) -> None:
        self.spec = spec
        self.network: Optional["Network"] = None
        self.src_router: Optional["Router"] = None
        self.src_port: int = -1
        self.dst_router: Optional["Router"] = None
        self.dst_port: int = -1
        self._index = -1
        # (due cycle, vc, credits) in return order, queued by the router.
        self._credit_queue: list[tuple[int, int, int]] = []
        #: Total flits this link has carried (utilization analysis).
        self.flits_carried = 0
        # Hot-path constants (bound at construction).
        self._kind_id = KIND_IDS[spec.kind]
        #: Ledger stage for tail-flit traversal (see TRAVERSAL_STAGES).
        self.traversal_stage = TRAVERSAL_STAGES[spec.kind]
        self._is_interface = spec.is_interface
        #: Cycles for a credit to reach the transmitter.
        self.credit_delay = max(1, spec.min_delay)
        #: True while the link sits on ``network._link_work``.
        self.active = False
        # Bound at attach(): the bus, the stats sink's per-kind tallies, and
        # where deliveries land (downstream input VCs, upstream credits).
        self._telemetry: TelemetryBus = NULL_BUS
        self._kind_flits: list[int]
        self._kind_energy_pj: list[float]
        self._dst_vcs: list[InputVC]
        self._src_credits: list[int]

    # -- wiring -----------------------------------------------------------
    def attach(
        self,
        network: "Network",
        src_router: "Router",
        src_port: int,
        dst_router: "Router",
        dst_port: int,
    ) -> None:
        """Connect the link between two router ports."""
        self.network = network
        self.src_router = src_router
        self.src_port = src_port
        self.dst_router = dst_router
        self.dst_port = dst_port
        self._telemetry = network.telemetry
        self._kind_flits = network.stats.link_flits_by_kind
        self._kind_energy_pj = network.stats.link_energy_pj_by_kind
        self._dst_vcs = dst_router.inputs[dst_port].vcs
        self._src_credits = src_router.outputs[src_port].credits

    @property
    def index(self) -> int:
        """Position of this link in its network's ``links`` list (-1 if unattached)."""
        return self._index

    # -- transmit side ----------------------------------------------------
    def accept_budget(self, now: int) -> int:
        """Flits the link can accept in cycle ``now``: its bandwidth, unless
        a subclass overrides this (only then is it asked).  The router asks
        once per output per cycle, before any grant, so no accept of the
        same cycle has to be subtracted.
        """
        return self.spec.total_bandwidth

    def accept(self, packet: Packet, index: int, count: int, vc: int, now: int) -> None:
        """Take flits ``index`` to ``index + count - 1`` of ``packet`` from
        the transmitting router's switch."""
        raise NotImplementedError

    # -- receive side -----------------------------------------------------
    def step(self, now: int) -> bool:
        """Advance one cycle; return True while the link still holds state."""
        raise NotImplementedError

    # -- introspection (used by the invariant sanitizer) -------------------
    def pending_credits(self, vc: int) -> int:
        """Credits for ``vc`` scheduled but not yet delivered upstream."""
        return sum(
            count for _, credit_vc, count in self._credit_queue if credit_vc == vc
        )

    @property
    def occupancy(self) -> int:
        """Flits currently inside the link (pipelines, adapters)."""
        raise NotImplementedError

    def contents(self) -> Iterator[Run]:
        """Every run of flits inside the link, in the link's own order.

        A run is ``(packet, first flit index, count, vc, stage)``: ``count``
        consecutive flits of ``packet`` on ``vc``, which sit in the
        attribution stage ``stage``
        (:data:`repro.telemetry.attribution.STAGES`).  This is the only way
        code outside a link reads what is inside it.
        """
        raise NotImplementedError

    def vc_flits(self, vc: int) -> int:
        """Flits of ``vc`` currently inside the link (pipelines, adapters)."""
        return sum(
            count for _packet, _index, count, run_vc, _stage in self.contents()
            if run_vc == vc
        )

    def snapshot_state(self) -> dict:
        """Forensic snapshot: endpoints, occupancy and the credit ledger.

        Subclasses extend the dictionary with their internal queues; the
        postmortem bundle (:mod:`repro.telemetry.forensics`) serializes the
        result, so every value must be JSON-representable.
        """
        return {
            "index": self._index,
            "kind": self.spec.kind.value,
            "src": self.spec.src,
            "dst": self.spec.dst,
            "occupancy": self.occupancy,
            "pending_credits": [
                self.pending_credits(vc) for vc in range(self.spec.n_vcs)
            ],
        }


class PipelinedLink(Link):
    """A link modelled as a virtual pipeline of ``delay`` stages.

    Up to ``bandwidth`` flits enter per cycle and each emerges ``delay``
    cycles later.  This models on-chip wires (delay 1) as well as parallel
    and serial die-to-die interfaces (Table 2: parallel 2 flits/cy, 5 cy;
    serial 4 flits/cy, 20 cy).
    """

    def __init__(self, spec: ChannelSpec) -> None:
        super().__init__(spec)
        if spec.kind is ChannelKind.HETERO_PHY:
            raise ValueError("use HeteroPhyLink for HETERO_PHY channels")
        # (due cycle, packet, first flit index, flits, vc) in accept order:
        # one entry per accepted run.
        self._pipe: list[tuple[int, Packet, int, int, int]] = []
        self._delay = spec.phy.delay
        self._energy_per_flit = FLIT_BITS * spec.phy.energy_pj_per_bit

    def accept(self, packet: Packet, index: int, count: int, vc: int, now: int) -> None:
        # Charge traversal energy to the packet and to the link kind's
        # tally, and the hop to the packet.  Energy is added once per flit:
        # a float sum depends on how it is grouped.
        self.flits_carried += count
        kind_id = self._kind_id
        self._kind_flits[kind_id] += count
        energy_pj = self._energy_per_flit
        kind_energies = self._kind_energy_pj
        kind_energy = kind_energies[kind_id] + energy_pj
        is_interface = self._is_interface
        if is_interface:
            energy = packet.energy_interface_pj + energy_pj
        else:
            energy = packet.energy_onchip_pj + energy_pj
        if count > 1:
            energy += energy_pj
            kind_energy += energy_pj
            if count > 2:
                for _ in range(count - 2):
                    energy += energy_pj
                    kind_energy += energy_pj
        kind_energies[kind_id] = kind_energy
        if is_interface:
            packet.energy_interface_pj = energy
            if index == 0:
                packet.hops_interface += 1
        else:
            packet.energy_onchip_pj = energy
            if index == 0:
                packet.hops_onchip += 1
        self._pipe.append((now + self._delay, packet, index, count, vc))
        if not self.active:
            self.active = True
            self.network._link_work.append(self)

    def step(self, now: int) -> bool:
        pipe = self._pipe
        if pipe and pipe[0][0] <= now:
            # Arrival: the links are the only writers of input buffers.
            router = self.dst_router
            port = self.dst_port
            vcs = self._dst_vcs
            flit_recv = self._telemetry.flit_recv
            while pipe and pipe[0][0] <= now:
                _, packet, index, count, vc = pipe.pop(0)
                ivc = vcs[vc]
                ivc.n += count
                if index == 0:
                    ivc.queue.append(packet)
                    if ivc.state == VC_IDLE and not ivc.queued:
                        ivc.queued = True
                        router._pending.append(ivc)
                if flit_recv is not None:
                    for i in range(index, index + count):
                        flit_recv(router, port, vc, Flit(packet, i), now)
            if not router.active:
                router.active = True
                self.network._router_work.append(router)
        credit_queue = self._credit_queue
        if credit_queue and credit_queue[0][0] <= now:
            # Due credits: the links are the only writers of a router's
            # credit counters.
            credits = self._src_credits
            while credit_queue and credit_queue[0][0] <= now:
                _, vc, count = credit_queue.pop(0)
                credits[vc] += count
            router = self.src_router
            if not router.active:
                router.active = True
                self.network._router_work.append(router)
        return bool(pipe or credit_queue)

    @property
    def occupancy(self) -> int:
        """Flits currently in flight on the link."""
        return sum(entry[3] for entry in self._pipe)

    def contents(self) -> Iterator[Run]:
        """The pipe's runs in accept order, at the link's traversal stage."""
        stage = self.traversal_stage
        assert stage is not None  # only a hetero-PHY link has none
        for _due, packet, index, count, vc in self._pipe:
            yield packet, index, count, vc, stage

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["pipe"] = [
            {"due": due, "pid": packet.pid, "flit": i, "vc": vc}
            for due, packet, index, count, vc in self._pipe
            for i in range(index, index + count)
        ]
        return state
