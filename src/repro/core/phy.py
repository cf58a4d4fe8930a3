"""Hetero-PHY link: one logical channel carried by two PHYs (Sec 3.1, 4.2).

The transmitter side models the adapter front-end (Fetch / Decode /
Dispatch / Issue): flits granted by the router's switch enter a TX FIFO;
each cycle the dispatch policy moves flits from the FIFO into the parallel
and/or serial PHY pipelines, assigning per-VC sequence numbers that travel
beside the flit as ``(due, flit, vc, sn)`` pipe entries.  The
receiver side models the back-end: arriving flits pass through the
sequence-number reorder buffer, which releases them to the downstream
router strictly in per-VC transmit order (preserving wormhole semantics
across the two physical paths).

High-priority or unordered packets may use the *bypass* (Sec 4.2): their
flits jump the TX FIFO and dispatch on the parallel PHY ahead of queued
traffic.  Bypass is only allowed at the parallel interface; per-VC order
is still preserved because a packet is only admitted to the bypass queue
when no same-VC flits are queued behind it.

The adapter adds one pipeline cycle (FIFO traversal), matching the RTL
prototype's "reordering logic adds one extra cycle" (Sec 8.2).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.noc.channel import ChannelKind, ChannelSpec
from repro.noc.flit import FLIT_BITS, Flit
from repro.noc.link import Link
from repro.noc.vc import VC_IDLE
from .rob import ReorderBuffer, rob_capacity
from .scheduling import PARALLEL, SERIAL, DispatchPolicy


class HeteroPhyLink(Link):
    """A directed hetero-PHY channel with its transmit/receive adapters."""

    #: A step is charged to ``phy_tx`` (serialize/dispatch, credit
    #: delivery) except for a receive that ran, which laps ``phy_rx``.
    host_phase = "phy_tx"

    def __init__(
        self,
        spec: ChannelSpec,
        policy: DispatchPolicy,
        *,
        tx_fifo_depth: int = 16,
        rob_capacity_override: Optional[int] = None,
    ) -> None:
        if spec.kind is not ChannelKind.HETERO_PHY:
            raise ValueError("HeteroPhyLink requires a HETERO_PHY channel spec")
        super().__init__(spec)
        if tx_fifo_depth < 1:
            raise ValueError("tx_fifo_depth must be >= 1")
        self.policy = policy
        self.tx_fifo_depth = tx_fifo_depth
        self.parallel = spec.phy
        self.serial = spec.serial_phy
        capacity = (
            rob_capacity_override
            if rob_capacity_override is not None
            else rob_capacity(
                self.parallel.bandwidth, self.serial.delay, self.parallel.delay
            )
        )
        self.rob = ReorderBuffer(capacity)
        # Hot-path constants (bound at construction).
        self._par_bw = self.parallel.bandwidth
        self._ser_bw = self.serial.bandwidth
        self._total_bw = self._par_bw + self._ser_bw
        self._par_delay = self.parallel.delay
        self._ser_delay = self.serial.delay
        self._par_energy_per_flit = FLIT_BITS * self.parallel.energy_pj_per_bit
        self._ser_energy_per_flit = FLIT_BITS * self.serial.energy_pj_per_bit
        self._txq: list[tuple[Flit, int]] = []
        self._bypassq: list[tuple[Flit, int]] = []
        self._bypass_vcs: set[int] = set()
        self._next_sn = [0] * spec.n_vcs
        # (due cycle, flit, vc, per-VC sequence number) in dispatch order.
        self._par_pipe: list[tuple[int, Flit, int, int]] = []
        self._ser_pipe: list[tuple[int, Flit, int, int]] = []
        # Per-PHY flit counters (for utilization / ablation studies).
        self.flits_parallel = 0
        self.flits_serial = 0
        self.flits_bypassed = 0

    # -- transmit side ------------------------------------------------------
    def accept_budget(self, now: int) -> int:
        budget = self.tx_fifo_depth - len(self._txq) - len(self._bypassq)
        if budget > self._total_bw:
            budget = self._total_bw
        return budget - (self._accepted if now == self._accept_cycle else 0)

    def accept(self, flit: Flit, vc: int, now: int) -> None:
        if now != self._accept_cycle:
            self._accept_cycle = now
            self._accepted = 1
        else:
            self._accepted += 1
        if self._telemetry.link_accept is not None:
            self._telemetry.link_accept(self, flit, vc, now)
        if flit.is_head:
            self._decide_bypass(flit, vc)
        if vc in self._bypass_vcs:
            self._bypassq.append((flit, vc))
            if flit.is_tail:
                self._bypass_vcs.discard(vc)
        else:
            self._txq.append((flit, vc))
        if not self.active:
            self.active = True
            self.network._link_work.append(self)

    def _decide_bypass(self, flit: Flit, vc: int) -> None:
        """Admit a whole packet to the bypass queue if eligible and safe."""
        packet = flit.packet
        if (
            (packet.priority > 0 or not packet.ordered)
            and self.policy.bypass_enabled
            # Safe only while no flit of this VC waits in the TX FIFO,
            # which the packet would otherwise overtake.
            and not any(queued_vc == vc for _flit, queued_vc in self._txq)
        ):
            self._bypass_vcs.add(vc)

    # -- per-cycle operation ---------------------------------------------------
    def step(self, now: int) -> bool:
        # Only the stages that have work run: receive iff a PHY pipe head
        # is due, dispatch iff a flit waits at the transmitter, credit
        # delivery iff a credit is due.
        par_pipe = self._par_pipe
        ser_pipe = self._ser_pipe
        if (par_pipe and par_pipe[0][0] <= now) or (ser_pipe and ser_pipe[0][0] <= now):
            self._receive(now)
            lap = self.network.lap
            if lap is not None:
                lap("phy_rx")
        if self._txq or self._bypassq:
            self._dispatch(now)
        credit_queue = self._credit_queue
        if credit_queue and credit_queue[0][0] <= now:
            self._deliver_credits(now)
        # Live while any queue, pipe, pending credit or ROB slot is (the
        # ROB last: it is only asked when everything else has drained).
        return bool(
            par_pipe
            or ser_pipe
            or self._txq
            or self._bypassq
            or credit_queue
            or self.rob.occupancy
        )

    def _dispatch(self, now: int) -> None:
        """Move flits from the bypass queue and the TX FIFO onto the PHYs.

        Bypass first, parallel PHY only (Sec 4.2); then the main queue in
        FIFO order, the policy choosing the PHY per flit.  Each issued flit
        gets its per-VC sequence number and is charged the energy of the
        PHY that carries it, and the hop.
        """
        bypassq = self._bypassq
        txq = self._txq
        par_free = self._par_bw
        ser_free = self._ser_bw
        # The queue length seen by the policy is the state at cycle start
        # (threshold logic samples the FIFO level, Sec 7.3).
        queue_len = len(txq)
        choose_phy = self.policy.choose_phy
        next_sn = self._next_sn
        phy_dispatch = self._telemetry.phy_dispatch
        note_link_flit = self._stats.note_link_flit
        kind_id = self._kind_id
        while True:
            if bypassq and par_free > 0:
                flit, vc = bypassq.pop(0)
                phy = PARALLEL
                par_free -= 1
                self.flits_bypassed += 1
            elif txq and (par_free > 0 or ser_free > 0):
                flit, vc = txq[0]
                phy = choose_phy(flit, queue_len, par_free, ser_free)
                if phy == PARALLEL and par_free > 0:
                    par_free -= 1
                elif phy == SERIAL and ser_free > 0:
                    ser_free -= 1
                else:
                    break
                txq.pop(0)
            else:
                break
            sn = next_sn[vc]
            next_sn[vc] = sn + 1
            if phy_dispatch is not None:
                phy_dispatch(self, flit, vc, phy, now)
            if phy == PARALLEL:
                energy_pj = self._par_energy_per_flit
                self._par_pipe.append((now + self._par_delay, flit, vc, sn))
                self.flits_parallel += 1
            else:
                energy_pj = self._ser_energy_per_flit
                self._ser_pipe.append((now + self._ser_delay, flit, vc, sn))
                self.flits_serial += 1
            self.flits_carried += 1
            packet = flit.packet
            packet.energy_interface_pj += energy_pj
            if flit.is_head:
                packet.hops_interface += 1
            note_link_flit(kind_id, energy_pj)

    # -- receive side --------------------------------------------------------------
    def _receive(self, now: int) -> None:
        # Event-ordering contract (the latency ledger depends on it): for
        # the flits arriving in cycle ``now``, every ``rob_insert`` fires
        # first, then — in the same cycle, because the drain is unbounded —
        # per released flit ``rob_release`` followed by the downstream
        # router's ``flit_recv``.  A flit therefore never shows a hidden
        # gap between ROB release and input-buffer arrival; ROB reorder
        # wait is exactly the insert-to-release distance, which is zero
        # unless the flit had to wait for a predecessor on the slower PHY.
        arrivals = []
        for pipe in (self._par_pipe, self._ser_pipe):
            while pipe and pipe[0][0] <= now:
                _, flit, vc, sn = pipe.pop(0)
                arrivals.append((flit, vc, sn))
        rob_insert = self._telemetry.rob_insert
        if rob_insert is not None:
            for flit, vc, _sn in arrivals:
                rob_insert(self, flit, vc, now)
        # The RX forwards every releasable flit in the cycle it becomes
        # in-order: the heterogeneous router's multi-port input buffer can
        # sink the full interface width (Sec 4.1), and credits guarantee
        # downstream space.  Unbounded draining keeps Eq (1) an exact
        # occupancy bound (see tests/test_phy_link.py).
        released = self.rob.reorder(arrivals)
        if not released:
            # Everything parked behind a predecessor still in flight: the
            # downstream router has nothing new and is not woken.
            return
        rob_release = self._telemetry.rob_release
        flit_recv = self._telemetry.flit_recv
        router = self.dst_router
        port = self.dst_port
        vcs = self._dst_vcs
        for flit, vc in released:
            if rob_release is not None:
                rob_release(self, flit, vc, now)
            # Arrival bookkeeping of ``Router.receive_flit``, inline.
            ivc = vcs[vc]
            ivc.queue.append(flit)
            if flit.is_head and ivc.state == VC_IDLE and not ivc.queued:
                ivc.queued = True
                router._pending.append(ivc)
            if flit_recv is not None:
                flit_recv(router, port, vc, flit, now)
        if not router.active:
            router.active = True
            self.network._router_work.append(router)

    # -- introspection ----------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Flits inside the adapter and PHY pipelines."""
        return (
            len(self._txq)
            + len(self._bypassq)
            + len(self._par_pipe)
            + len(self._ser_pipe)
            + self.rob.occupancy
        )

    @property
    def phy_split(self) -> tuple[int, int]:
        """(parallel, serial) flit counts transmitted so far."""
        return self.flits_parallel, self.flits_serial

    def vc_flits(self, vc: int) -> int:
        return (
            sum(1 for _f, q_vc in self._txq if q_vc == vc)
            + sum(1 for _f, q_vc in self._bypassq if q_vc == vc)
            + sum(1 for _d, _f, p_vc, _sn in self._par_pipe if p_vc == vc)
            + sum(1 for _d, _f, p_vc, _sn in self._ser_pipe if p_vc == vc)
            + self.rob.occupancy_of(vc)
        )

    def snapshot_state(self) -> dict:
        def queue(pairs: list[tuple[Flit, int]]) -> list[dict]:
            return [
                {"pid": flit.packet.pid, "flit": flit.index, "vc": vc}
                for flit, vc in pairs
            ]

        def pipe(entries: list[tuple[int, Flit, int, int]]) -> list[dict]:
            return [
                {"due": due, "pid": flit.packet.pid, "flit": flit.index, "vc": vc}
                for due, flit, vc, _sn in entries
            ]

        state = super().snapshot_state()
        state["tx_fifo"] = queue(self._txq)
        state["bypass"] = queue(self._bypassq)
        state["parallel_pipe"] = pipe(self._par_pipe)
        state["serial_pipe"] = pipe(self._ser_pipe)
        state["rob"] = self.rob.snapshot_state()
        return state


def hetero_phy_link_factory(
    policy_factory: Callable[[], DispatchPolicy],
    *,
    tx_fifo_depth: int = 16,
    rob_capacity_override: Optional[int] = None,
) -> Callable[[ChannelSpec], Link]:
    """A link factory for :meth:`Network.add_channel`.

    Non-hetero channels become plain pipelined links; each hetero-PHY
    channel gets its own policy instance from ``policy_factory``.
    """
    from repro.noc.link import PipelinedLink

    def factory(spec: ChannelSpec) -> Link:
        if spec.kind is ChannelKind.HETERO_PHY:
            return HeteroPhyLink(
                spec,
                policy_factory(),
                tx_fifo_depth=tx_fifo_depth,
                rob_capacity_override=rob_capacity_override,
            )
        return PipelinedLink(spec)

    return factory
