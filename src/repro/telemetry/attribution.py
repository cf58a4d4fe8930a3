"""Per-packet latency attribution (``repro simulate --latency-breakdown``).

The :class:`LatencyLedger` subscribes to the telemetry bus and decomposes
every *measured* packet's end-to-end latency into named stages — source
queueing, per-hop VC-allocation wait, credit stalls, switch
serialization, link/PHY traversal split by interface kind, ROB reorder
wait and ejection — with the invariant that **the stage cycles of a
packet sum exactly to its measured latency** (``arrive - create``).  A
violation raises :class:`AttributionError` immediately; nothing is ever
silently dropped into an "other" bucket.

How the decomposition stays exact
---------------------------------
A packet's latency is the time from creation to *tail-flit* ejection, so
the ledger follows only the tail flit.  Every bus event the tail touches
(``flit_send``, ``flit_recv``, ``phy_dispatch``, ``rob_insert``,
``rob_release``, ``packet_eject``) carries a cycle stamp, and the ledger
attributes the gap since the previous stamp to one stage — consecutive
gaps telescope to the total latency by construction.  Within a router
visit the gap is subdivided arithmetically using the per-hop
``route_compute`` / ``vc_alloc`` stamps and the counted ``credit_stall``
cycles; the subdivision sums back to the gap, so exactness survives.

Credit stalls are counted for a packet only while its tail is resident
at the stalling router — a stall observed while the tail still sits
upstream overlaps time already attributed there and would double-count.
(Those stalls still feed the per-link congestion totals below.)

On top of the per-packet ledger sit aggregate breakdowns (mean and
p50/p95/p99 per stage, overall and per traffic class / interface
profile) and a bottleneck attributor ranking links and routers by the
queueing cycles measured tails spent waiting to get onto them — the
topology congestion table of ``docs/observability.md``.

Import note: pure stdlib at module load (the telemetry package is
imported by ``repro.noc``); simulator types appear only behind
``TYPE_CHECKING`` and function-local imports.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Flit, Packet
    from repro.noc.link import Link
    from repro.noc.network import Network
    from repro.noc.router import Router

#: Attribution stages, in presentation order.  ``link_*`` names must match
#: :data:`repro.noc.link.TRAVERSAL_STAGES` (checked by the tests).
STAGES: tuple[str, ...] = (
    "source_queue",   # creation -> routing computation at the source router
    "va_wait",        # per hop: RC (or tail arrival) -> VC-allocation grant
    "credit_stall",   # post-VA cycles stalled on zero downstream credits
    "switch_wait",    # residual in-router wait: SA contention + switch serialization
    "link_onchip",    # tail traversal of on-chip wires
    "link_parallel",  # tail traversal of parallel-interface links
    "link_serial",    # tail traversal of serial-interface links (incl. SerDes)
    "phy_tx_queue",   # hetero-PHY adapter: TX FIFO wait until dispatch
    "phy_parallel",   # hetero-PHY parallel-PHY pipeline traversal
    "phy_serial",     # hetero-PHY serial-PHY pipeline traversal (incl. SerDes)
    "rob_wait",       # hetero-PHY reorder-buffer wait at the receiver
    "ejection",       # post-VA wait at the destination's ejection port
)

_IDX = {name: index for index, name in enumerate(STAGES)}
_N = len(STAGES)
_I_SOURCE = _IDX["source_queue"]
_I_VA = _IDX["va_wait"]
_I_STALL = _IDX["credit_stall"]
_I_SWITCH = _IDX["switch_wait"]
_I_TXQ = _IDX["phy_tx_queue"]
_I_PHY_P = _IDX["phy_parallel"]
_I_PHY_S = _IDX["phy_serial"]
_I_ROB = _IDX["rob_wait"]
_I_EJECT = _IDX["ejection"]

#: Interface profile of packets that never crossed an interface link.
ONCHIP_PROFILE = "onchip"


class AttributionError(RuntimeError):
    """The conservation invariant (stage sums == latency) was violated."""


class _PacketState:
    """Tail-flit tracking state of one in-flight measured packet."""

    __slots__ = (
        "t_last",      # cycle of the tail's last attributed event
        "stages",      # accumulated cycles per stage index
        "tail_node",   # router currently holding the tail (-1: in flight)
        "hops",        # tail link crossings completed (0 => source hop)
        "ctx",         # per-router hop context: node -> [rc, va, stalls].
                       # Keyed by node because the head flit can run several
                       # hops ahead of the tail, creating downstream contexts
                       # before the upstream one has been consumed.
        "phy",         # PHY carrying the tail's current hetero crossing
        "ifaces",      # interface kinds traversed (None until first one)
    )

    def __init__(self, create_cycle: int, src: int) -> None:
        self.t_last = create_cycle
        self.stages = [0] * _N
        self.tail_node = src
        self.hops = 0
        self.ctx: dict[int, list[int]] = {}
        self.phy = ""
        self.ifaces: Optional[set[str]] = None

    def add_iface(self, kind: str) -> None:
        if self.ifaces is None:
            self.ifaces = {kind}
        else:
            self.ifaces.add(kind)


class LatencyLedger:
    """Bus subscriber attributing measured packets' latency to stages.

    Parameters
    ----------
    network:
        A built network; the ledger subscribes to its telemetry bus
        immediately and :meth:`detach` restores the zero-subscriber fast
        path.
    measure_from:
        First creation cycle included in the measured population — pass
        the warm-up length so the ledger's population matches
        :class:`~repro.sim.stats.Stats`.
    """

    def __init__(self, network: "Network", *, measure_from: int = 0) -> None:
        self._network = network
        self.measure_from = measure_from
        self._live: dict[int, _PacketState] = {}
        # Completed packets: (msg_class, interface profile, stage cycles, total).
        self._packets: list[tuple[str, str, tuple[int, ...], int]] = []
        self._totals = [0] * _N
        self.total_cycles = 0
        # link index -> [attributed queueing cycles, raw stall cycles, tails]
        self._link_acc: dict[int, list[int]] = {}
        # router node -> [attributed queueing cycles, tails]
        self._router_acc: dict[int, list[int]] = {}
        self._subscription = network.telemetry.attach({
            "packet_inject": self._on_inject,
            "route_compute": self._on_route_compute,
            "vc_alloc": self._on_vc_alloc,
            "credit_stall": self._on_credit_stall,
            "flit_send": self._on_flit_send,
            "flit_recv": self._on_flit_recv,
            "phy_dispatch": self._on_phy_dispatch,
            "rob_insert": self._on_rob_insert,
            "rob_release": self._on_rob_release,
            "packet_eject": self._on_eject,
        })

    # -- lifecycle ----------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe every handler (idempotent)."""
        self._subscription.close()

    @property
    def packets(self) -> int:
        """Measured packets fully attributed so far."""
        return len(self._packets)

    @property
    def in_flight(self) -> int:
        """Measured packets currently tracked but not yet ejected."""
        return len(self._live)

    # -- event handlers -----------------------------------------------------
    def _on_inject(self, network: "Network", packet: "Packet") -> None:
        if packet.create_cycle < self.measure_from:
            return
        self._live[packet.pid] = _PacketState(packet.create_cycle, packet.src)

    def _on_route_compute(
        self, router: "Router", packet: "Packet", in_port: int, in_vc: int, now: int
    ) -> None:
        st = self._live.get(packet.pid)
        if st is None:
            return
        st.ctx[router.node] = [now, -1, 0]

    def _on_vc_alloc(
        self,
        router: "Router",
        packet: "Packet",
        in_port: int,
        in_vc: int,
        out_port: int,
        out_vc: int,
        now: int,
    ) -> None:
        st = self._live.get(packet.pid)
        if st is None:
            return
        ctx = st.ctx.get(router.node)
        if ctx is not None:
            ctx[1] = now

    def _on_credit_stall(
        self, router: "Router", out_port: int, vc: int, now: int
    ) -> None:
        out = router.outputs[out_port]
        link = out.link
        if link is not None:
            acc = self._link_acc.get(link.index)
            if acc is None:
                acc = self._link_acc[link.index] = [0, 0, 0]
            acc[1] += 1
        ivc = out.vc_owner[vc]
        if ivc is None or not ivc.n:
            return
        st = self._live.get(ivc.queue[0].pid)
        if st is None or st.tail_node != router.node:
            # Only tail-resident stalls are charged to the packet; earlier
            # ones overlap time attributed at the tail's upstream location.
            return
        ctx = st.ctx.get(router.node)
        if ctx is not None:
            ctx[2] += 1

    def _on_flit_send(
        self, router: "Router", flit: "Flit", out_port: int, out_vc: int, now: int
    ) -> None:
        if not flit.is_tail:
            return
        st = self._live.get(flit.packet.pid)
        if st is None:
            return
        gap = now - st.t_last
        stages = st.stages
        ctx = st.ctx.pop(router.node, None)
        if ctx is not None:
            rc, va, stall_count = ctx
            if st.hops == 0:
                src_q = min(gap, max(0, rc - st.t_last))
                va_start = rc
            else:
                src_q = 0
                va_start = st.t_last
            va_end = va if va >= 0 else va_start
            va_wait = min(gap - src_q, max(0, va_end - va_start))
            post = gap - src_q - va_wait
            stalls = min(stall_count, post)
            residual = post - stalls
            stages[_I_SOURCE] += src_q
            stages[_I_VA] += va_wait
            stages[_I_STALL] += stalls
        else:  # pragma: no cover - defensive: send without a hop context
            va_wait = stalls = 0
            residual = gap
        if out_port == 0:  # Router.EJECT_PORT
            stages[_I_EJECT] += residual
        else:
            stages[_I_SWITCH] += residual
        queued = va_wait + stalls + residual
        if queued:
            racc = self._router_acc.get(router.node)
            if racc is None:
                racc = self._router_acc[router.node] = [0, 0]
            racc[0] += queued
            racc[1] += 1
            link = router.outputs[out_port].link
            if link is not None:
                acc = self._link_acc.get(link.index)
                if acc is None:
                    acc = self._link_acc[link.index] = [0, 0, 0]
                acc[0] += queued
                acc[2] += 1
        st.t_last = now

    def _on_flit_recv(
        self, router: "Router", port: int, vc: int, flit: "Flit", now: int
    ) -> None:
        if not flit.is_tail:
            return
        st = self._live.get(flit.packet.pid)
        if st is None:
            return
        gap = now - st.t_last
        link = router.inputs[port].link
        stage = link.traversal_stage
        if stage is None:
            # Hetero-PHY: rob_release advanced t_last this same cycle, so
            # the gap is zero; any drift would mean the ordering contract
            # of HeteroPhyLink._receive broke — keep it visible in rob_wait.
            st.stages[_I_ROB] += gap
        else:
            st.stages[_IDX[stage]] += gap
            if link.spec.is_interface:
                st.add_iface(link.spec.kind.value)
        st.t_last = now
        st.tail_node = router.node
        st.hops += 1

    def _on_phy_dispatch(
        self, link: "Link", flit: "Flit", vc: int, phy: str, now: int
    ) -> None:
        if not flit.is_tail:
            return
        st = self._live.get(flit.packet.pid)
        if st is None:
            return
        gap = now - st.t_last
        st.stages[_I_TXQ] += gap
        st.t_last = now
        st.phy = phy
        st.tail_node = -1
        st.add_iface(link.spec.kind.value)
        if gap:
            acc = self._link_acc.get(link.index)
            if acc is None:
                acc = self._link_acc[link.index] = [0, 0, 0]
            acc[0] += gap

    def _on_rob_insert(self, link: "Link", flit: "Flit", vc: int, now: int) -> None:
        if not flit.is_tail:
            return
        st = self._live.get(flit.packet.pid)
        if st is None:
            return
        gap = now - st.t_last
        st.stages[_I_PHY_S if st.phy == "S" else _I_PHY_P] += gap
        st.t_last = now

    def _on_rob_release(self, link: "Link", flit: "Flit", vc: int, now: int) -> None:
        if not flit.is_tail:
            return
        st = self._live.get(flit.packet.pid)
        if st is None:
            return
        gap = now - st.t_last
        st.stages[_I_ROB] += gap
        st.t_last = now
        if gap:
            acc = self._link_acc.get(link.index)
            if acc is None:
                acc = self._link_acc[link.index] = [0, 0, 0]
            acc[0] += gap

    def _on_eject(self, router: "Router", packet: "Packet", now: int) -> None:
        st = self._live.pop(packet.pid, None)
        if st is None:
            return
        if st.t_last != now:
            raise AttributionError(
                f"packet {packet.pid}: tail timeline ends at cycle {st.t_last} "
                f"but ejection happened at {now}"
            )
        total = now - packet.create_cycle
        attributed = sum(st.stages)
        if attributed != total:
            detail = ", ".join(
                f"{name}={cycles}"
                for name, cycles in zip(STAGES, st.stages)
                if cycles
            )
            raise AttributionError(
                f"packet {packet.pid}: attributed {attributed} cycles but "
                f"measured latency is {total} ({detail})"
            )
        profile = "+".join(sorted(st.ifaces)) if st.ifaces else ONCHIP_PROFILE
        self._packets.append(
            (str(packet.msg_class), profile, tuple(st.stages), total)
        )
        totals = self._totals
        for index, cycles in enumerate(st.stages):
            totals[index] += cycles
        self.total_cycles += total

    # -- aggregates ---------------------------------------------------------
    def stage_totals(self) -> dict[str, int]:
        """Total attributed cycles per stage over all completed packets."""
        return dict(zip(STAGES, self._totals))

    def _stage_block(
        self, rows: Sequence[tuple[str, str, tuple[int, ...], int]]
    ) -> dict[str, dict[str, float]]:
        from repro.sim.stats import percentile

        block: dict[str, dict[str, float]] = {}
        group_total = sum(row[3] for row in rows) or 1
        for index, name in enumerate(STAGES):
            values = sorted(row[2][index] for row in rows)
            total = sum(values)
            count = len(values) or 1
            block[name] = {
                "total": total,
                "share": total / group_total,
                "mean": total / count,
                "p50": percentile(values, 50, presorted=True),
                "p95": percentile(values, 95, presorted=True),
                "p99": percentile(values, 99, presorted=True),
            }
        return block

    def bottleneck_links(self, top: int = 5) -> list[dict[str, Any]]:
        """Links ranked by queueing cycles measured tails spent reaching them.

        ``queue_cycles`` counts VA wait + credit stalls + switch wait at
        the upstream router (plus adapter TX-FIFO and ROB wait for
        hetero-PHY links); ``stall_cycles`` counts every raw
        ``credit_stall`` event toward the link, tail-resident or not.
        """
        links = self._network.links
        ranked = sorted(
            self._link_acc.items(), key=lambda item: (-item[1][0], item[0])
        )
        table = []
        for index, (queue_cycles, stall_cycles, tails) in ranked[: top or None]:
            spec = links[index].spec
            table.append(
                {
                    "link": index,
                    "src": spec.src,
                    "dst": spec.dst,
                    "kind": spec.kind.value,
                    "queue_cycles": queue_cycles,
                    "stall_cycles": stall_cycles,
                    "packets": tails,
                }
            )
        return table

    def bottleneck_routers(self, top: int = 5) -> list[dict[str, Any]]:
        """Routers ranked by attributed in-router queueing cycles."""
        ranked = sorted(
            self._router_acc.items(), key=lambda item: (-item[1][0], item[0])
        )
        return [
            {"node": node, "queue_cycles": acc[0], "packets": acc[1]}
            for node, acc in ranked[: top or None]
        ]

    def summary(self, *, top: int = 5) -> dict[str, Any]:
        """JSON-able breakdown: per-stage stats overall and per group.

        Keys: ``packets``, ``avg_latency``, ``total_cycles``, ``stages``,
        ``by_class``, ``by_interface``, ``bottleneck_links``,
        ``bottleneck_routers``.
        """
        rows = self._packets
        by_class: dict[str, list] = {}
        by_iface: dict[str, list] = {}
        for row in rows:
            by_class.setdefault(row[0], []).append(row)
            by_iface.setdefault(row[1], []).append(row)
        return {
            "packets": len(rows),
            "avg_latency": (self.total_cycles / len(rows)) if rows else 0.0,
            "total_cycles": self.total_cycles,
            "stages": self._stage_block(rows),
            "by_class": {
                name: {"packets": len(group), "stages": self._stage_block(group)}
                for name, group in sorted(by_class.items())
            },
            "by_interface": {
                name: {"packets": len(group), "stages": self._stage_block(group)}
                for name, group in sorted(by_iface.items())
            },
            "bottleneck_links": self.bottleneck_links(top),
            "bottleneck_routers": self.bottleneck_routers(top),
        }

    def record_summary(self, *, top: int = 5) -> dict[str, Any]:
        """The compact subset persisted into a ``RunRecord``."""
        full = self.summary(top=top)
        return {
            key: full[key]
            for key in ("packets", "avg_latency", "stages", "bottleneck_links")
        }

    # -- export -------------------------------------------------------------
    def write_csv(self, path: str | Path) -> Path:
        """Write per-stage stats (scopes: all / class:X / iface:Y) as CSV."""
        path = Path(path)
        if path.parent != Path():
            path.parent.mkdir(parents=True, exist_ok=True)
        summary = self.summary(top=0)
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["scope", "packets", "stage", "total_cycles", "share",
                 "mean", "p50", "p95", "p99"]
            )

            def rows_for(scope: str, packets: int, block: dict) -> None:
                for name in STAGES:
                    cell = block[name]
                    writer.writerow(
                        [scope, packets, name, cell["total"],
                         f"{cell['share']:.6f}", f"{cell['mean']:.4f}",
                         cell["p50"], cell["p95"], cell["p99"]]
                    )

            rows_for("all", summary["packets"], summary["stages"])
            for name, group in summary["by_class"].items():
                rows_for(f"class:{name}", group["packets"], group["stages"])
            for name, group in summary["by_interface"].items():
                rows_for(f"iface:{name}", group["packets"], group["stages"])
        return path


def render_breakdown(summary: dict[str, Any], *, show_zero: bool = False) -> str:
    """Text tables for one :meth:`LatencyLedger.summary` (CLI output)."""
    lines = [
        f"latency breakdown ({summary['packets']} packets, "
        f"avg {summary['avg_latency']:.1f} cycles)"
    ]
    lines.append(
        f"{'stage':<14s} {'total':>12s} {'share':>7s} {'mean':>9s} "
        f"{'p50':>7s} {'p95':>7s} {'p99':>7s}"
    )
    for name in STAGES:
        cell = summary["stages"][name]
        if not show_zero and not cell["total"]:
            continue
        lines.append(
            f"{name:<14s} {cell['total']:>12,.0f} {cell['share']:>6.1%} "
            f"{cell['mean']:>9.2f} {cell['p50']:>7.0f} {cell['p95']:>7.0f} "
            f"{cell['p99']:>7.0f}"
        )
    links = summary.get("bottleneck_links") or []
    if links:
        lines.append("")
        lines.append("top bottleneck links (queueing cycles of measured tails)")
        lines.append(
            f"{'link':>5s} {'route':>12s} {'kind':>10s} {'queue_cyc':>10s} "
            f"{'stall_cyc':>10s} {'packets':>8s}"
        )
        for entry in links:
            route = f"{entry['src']}->{entry['dst']}"
            lines.append(
                f"{entry['link']:>5d} {route:>12s} {entry['kind']:>10s} "
                f"{entry['queue_cycles']:>10,d} {entry['stall_cycles']:>10,d} "
                f"{entry['packets']:>8,d}"
            )
    routers = summary.get("bottleneck_routers") or []
    if routers:
        lines.append("")
        lines.append("top bottleneck routers")
        lines.append(f"{'node':>5s} {'queue_cyc':>10s} {'packets':>8s}")
        for entry in routers:
            lines.append(
                f"{entry['node']:>5d} {entry['queue_cycles']:>10,d} "
                f"{entry['packets']:>8,d}"
            )
    return "\n".join(lines)
