"""Opt-in runtime invariant sanitizer for the cycle-level simulator.

Attach an :class:`InvariantChecker` to a built network (before injecting
traffic) and every invariant below is asserted as the simulation runs,
turning silent state corruption into an immediate
:class:`InvariantViolation` with a precise message:

* **credit conservation** — for every (link, VC): transmitter credits +
  flits inside the link + flits buffered downstream + credits in flight
  equals the provisioned buffer depth, every cycle;
* **buffer occupancy** — no input VC ever holds more flits than its
  provisioned depth;
* **per-VC flit ordering** — each input VC receives a head flit, then
  body flits, then the tail of the *same* packet, in index order
  (wormhole discipline survives links, adapters and reorder buffers), and
  sends its flits on in that same order (the buffer names a flit by its
  position, so this checks the index the router derives);
* **packet conservation** — injected flits are always accounted for:
  ejected + buffered + in flight, no loss, no duplication.  Ejected flits
  are counted as they are sent on a router's ejection port, so a sweep
  costs the same however many packets are live.

A run that stops moving is not a broken invariant: the engine's
no-progress watchdog (:class:`~repro.sim.engine.Engine`) is the one stall
detector, sanitized or not, and its
:class:`~repro.sim.stats.DeadlockError` names where the run is stuck.

The checker subscribes to the network's telemetry bus (``packet_inject``,
``flit_recv``, ``flit_send``, ``cycle_end``) — the same
seam the tracing and metric collectors use — so probes compose and the
hot path is untouched when no checker is attached.  Tests enable it
through the ``sanitize`` fixture in ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.flit import Flit, Packet
from repro.noc.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.router import Router


class InvariantViolation(AssertionError):
    """A simulator invariant was broken at runtime."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class _VcOrderState:
    """Head/body/tail discipline tracker for one input VC."""

    __slots__ = ("pid", "remaining")

    def __init__(self) -> None:
        self.pid = -1
        self.remaining = 0


class InvariantChecker:
    """Wires runtime invariant checks into a built network.

    Parameters
    ----------
    network:
        The built (finalized or about-to-be-finalized) network to guard.
    check_every:
        Run the full state sweep every N network steps (event-driven
        checks — ordering, occupancy — always run).  1 checks every cycle.
    """

    def __init__(
        self,
        network: Network,
        *,
        check_every: int = 1,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.network = network
        self.check_every = check_every
        self.checks_run = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        # Per (node, input port, VC): the order flits arrive in, and the
        # order they leave in.
        self._order: dict[tuple[int, int, int], _VcOrderState] = {}
        self._send_order: dict[tuple[int, int, int], _VcOrderState] = {}
        self._steps = 0
        self._attached = False
        self._install()

    # -- instrumentation -----------------------------------------------------
    def _install(self) -> None:
        bus = self.network.telemetry
        bus.subscribe("packet_inject", self._on_inject)
        bus.subscribe("flit_send", self._on_flit_send)
        bus.subscribe("flit_recv", self._on_flit_recv)
        bus.subscribe("cycle_end", self._on_cycle_end)
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe every check; the network reverts to full speed."""
        if not self._attached:
            return
        bus = self.network.telemetry
        bus.unsubscribe("packet_inject", self._on_inject)
        bus.unsubscribe("flit_send", self._on_flit_send)
        bus.unsubscribe("flit_recv", self._on_flit_recv)
        bus.unsubscribe("cycle_end", self._on_cycle_end)
        self._attached = False

    # -- bus callbacks -------------------------------------------------------
    def _on_inject(self, network: Network, packet: Packet) -> None:
        self.flits_injected += packet.length

    def _on_flit_send(
        self, router: "Router", flit: Flit, out_port: int, out_vc: int, now: int
    ) -> None:
        if out_port == router.EJECT_PORT:
            self.flits_ejected += 1
        # The output VC belongs to the sending input VC until its tail.
        ivc = router.outputs[out_port].vc_owner[out_vc]
        if ivc is None:
            raise InvariantViolation(
                "VC-ORDER",
                f"node {router.node}: {flit!r} sent on output port {out_port} "
                f"vc {out_vc}, which no input VC holds",
            )
        self._check_order(
            self._send_order, "sent", router.node, ivc.port, ivc.index, flit
        )

    def _on_flit_recv(
        self, router: "Router", port: int, vc_idx: int, flit: Flit, now: int
    ) -> None:
        self._check_order(self._order, "received", router.node, port, vc_idx, flit)
        self._check_occupancy(router.node, port, vc_idx)

    def _on_cycle_end(self, network: Network, now: int) -> None:
        self._steps += 1
        if self._steps % self.check_every == 0:
            self.check()

    # -- event-driven checks -------------------------------------------------
    @staticmethod
    def _check_order(
        order: dict[tuple[int, int, int], _VcOrderState],
        verb: str,
        node: int,
        port: int,
        vc_idx: int,
        flit: Flit,
    ) -> None:
        """Head, bodies, tail of one packet, in index order, per input VC."""
        state = order.get((node, port, vc_idx))
        if state is None:
            state = order[node, port, vc_idx] = _VcOrderState()
        packet = flit.packet
        if state.remaining == 0:
            if not flit.is_head:
                raise InvariantViolation(
                    "VC-ORDER",
                    f"node {node} port {port} vc {vc_idx}: expected a head "
                    f"flit, {verb} {flit!r}",
                )
            state.pid = packet.pid
            state.remaining = packet.length
        else:
            if flit.is_head:
                raise InvariantViolation(
                    "VC-ORDER",
                    f"node {node} port {port} vc {vc_idx}: head flit of packet "
                    f"{packet.pid} interleaved into packet {state.pid} "
                    f"({state.remaining} flits outstanding)",
                )
            if packet.pid != state.pid:
                raise InvariantViolation(
                    "VC-ORDER",
                    f"node {node} port {port} vc {vc_idx}: flit of packet "
                    f"{packet.pid} interleaved into packet {state.pid}",
                )
            expected = packet.length - state.remaining
            if flit.index != expected:
                raise InvariantViolation(
                    "VC-ORDER",
                    f"node {node} port {port} vc {vc_idx}: {verb} flit "
                    f"{flit.index} of packet {packet.pid}, expected flit "
                    f"{expected}",
                )
        state.remaining -= 1
        if flit.is_tail and state.remaining != 0:
            raise InvariantViolation(
                "VC-ORDER",
                f"node {node} port {port} vc {vc_idx}: tail of packet "
                f"{state.pid} arrived with {state.remaining} flits missing",
            )

    def _check_occupancy(self, node: int, port: int, vc_idx: int) -> None:
        in_port = self.network.routers[node].inputs[port]
        held = in_port.vcs[vc_idx].n
        if held > in_port.buffer_depth:
            raise InvariantViolation(
                "BUF-OVERFLOW",
                f"node {node} port {port} vc {vc_idx}: {held} flits buffered, "
                f"depth {in_port.buffer_depth} (credit protocol broken)",
            )

    # -- state-sweep checks ----------------------------------------------------
    def check(self) -> None:
        """Run the full invariant sweep (called from the step hook)."""
        self.checks_run += 1
        self._check_credits()
        self._check_conservation()

    def _check_credits(self) -> None:
        network = self.network
        for link in network.links:
            src_router = link.src_router
            dst_router = link.dst_router
            if src_router is None or dst_router is None:
                continue
            out = src_router.outputs[link.src_port]
            in_port = dst_router.inputs[link.dst_port]
            depth = in_port.buffer_depth
            for vc in range(out.n_vcs):
                credits = out.credits[vc]
                buffered = in_port.vcs[vc].n
                in_link = link.vc_flits(vc)
                returning = link.pending_credits(vc)
                total = credits + buffered + in_link + returning
                if total != depth:
                    raise InvariantViolation(
                        "CREDIT-LEAK",
                        f"link {link.index} vc {vc}: credits {credits} + "
                        f"buffered {buffered} + in-link {in_link} + returning "
                        f"{returning} = {total}, expected {depth} "
                        f"({depth - total:+d} credit(s) lost)",
                    )

    def _check_conservation(self) -> None:
        network = self.network
        ejected = self.flits_ejected
        in_network = network.buffered_flits() + network.in_flight_flits()
        if ejected + in_network != self.flits_injected:
            raise InvariantViolation(
                "FLIT-CONSERVATION",
                f"injected {self.flits_injected} flits but ejected "
                f"{ejected} + in-network {in_network} = "
                f"{ejected + in_network} "
                f"({self.flits_injected - ejected - in_network:+d} flit(s) "
                "unaccounted for)",
            )
