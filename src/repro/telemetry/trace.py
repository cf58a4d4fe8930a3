"""Structured event-trace export in Chrome trace-event format.

:class:`ChromeTraceBuilder` subscribes to the telemetry bus and records a
JSON trace loadable by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``:

* **packet lanes** — every sampled packet gets one thread row under the
  "packets" process: a whole-lifetime slice (creation to tail ejection),
  nested per-hop slices (link accept to head arrival downstream), and
  instant markers for injection, hetero-PHY dispatch decisions and
  reorder-buffer holds/releases;
* **component lanes** — counter tracks under the "network" process:
  buffered and in-flight flits plus per-hetero-link reorder-buffer
  occupancy, one point per epoch boundary.  The builder keeps no clock of
  its own: it is a reader of the epoch sampler
  (:class:`~repro.telemetry.metrics.EpochMetrics`), so ``--trace``
  counters follow ``--epoch``.  Wire it by hand as
  ``EpochMetrics(network, readers=[builder.on_epoch])``.

One simulated cycle maps to one microsecond of trace time, so trace
timestamps read directly as cycles.  Keep the sample predicate selective
on long runs: events are held in memory until :meth:`write`, and
``max_packets`` caps the sampled population as a backstop.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Flit, Packet
    from repro.noc.link import Link
    from repro.noc.network import Network
    from repro.noc.router import Router

    from .metrics import EpochSample

#: Trace process ids (named via metadata events).
PID_NETWORK = 1
PID_PACKETS = 2


class ChromeTraceBuilder:
    """Record a Chrome trace-event JSON for sampled packets and counters.

    Parameters
    ----------
    network:
        The built network to observe.
    sample:
        Predicate choosing which packets get a lane (default: all, up to
        ``max_packets``).
    max_packets:
        Hard cap on sampled packets; later packets are ignored.
    """

    def __init__(
        self,
        network: "Network",
        *,
        sample: Optional[Callable[["Packet"], bool]] = None,
        max_packets: int = 512,
    ) -> None:
        if max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        self.network = network
        self.sample = sample or (lambda packet: True)
        self.max_packets = max_packets
        self.events: list[dict] = [
            _meta(PID_NETWORK, "process_name", name="network"),
            _meta(PID_PACKETS, "process_name", name="packets"),
        ]
        self._sampled: set[int] = set()
        self._saturated = False
        #: pid -> (link, accept cycle) for a head flit in flight on a link.
        self._pending_hop: dict[int, tuple["Link", int]] = {}
        #: (link index, counter name) of every link with a reorder buffer.
        self._rob_tracks = [
            (index, f"rob {link.spec.src}->{link.spec.dst}")
            for index, link in enumerate(network.links)
            if getattr(link, "rob", None) is not None
        ]
        self._subscription = network.telemetry.attach({
            "packet_inject": self._on_inject,
            "link_accept": self._on_link_accept,
            "flit_recv": self._on_flit_recv,
            "packet_eject": self._on_eject,
            "phy_dispatch": self._on_phy_dispatch,
            "rob_insert": self._on_rob_insert,
            "rob_release": self._on_rob_release,
        })

    # -- sampling ----------------------------------------------------------
    def _admit(self, packet: "Packet") -> bool:
        pid = packet.pid
        if pid in self._sampled:
            return True
        if self._saturated or not self.sample(packet):
            return False
        if len(self._sampled) >= self.max_packets:
            self._saturated = True
            return False
        self._sampled.add(pid)
        self.events.append(
            _meta(
                PID_PACKETS,
                "thread_name",
                tid=pid,
                name=f"pkt {pid} {packet.src}->{packet.dst}",
            )
        )
        return True

    # -- bus callbacks -----------------------------------------------------
    def _on_inject(self, network: "Network", packet: "Packet") -> None:
        if not self._admit(packet):
            return
        self.events.append(
            _instant(PID_PACKETS, packet.pid, packet.create_cycle, "inject")
        )

    def _on_link_accept(self, link: "Link", flit: "Flit", vc: int, now: int) -> None:
        if not flit.is_head:
            return
        packet = flit.packet
        if packet.pid not in self._sampled:
            return
        self._pending_hop[packet.pid] = (link, now)

    def _on_flit_recv(
        self, router: "Router", port: int, vc: int, flit: "Flit", now: int
    ) -> None:
        if not flit.is_head:
            return
        pid = flit.packet.pid
        pending = self._pending_hop.get(pid)
        if pending is None:
            return
        link, accepted = pending
        if router.inputs[port].link is not link:
            return
        del self._pending_hop[pid]
        spec = link.spec
        self.events.append(
            _slice(
                PID_PACKETS,
                pid,
                accepted,
                max(now - accepted, 0),
                f"{spec.src}->{spec.dst} [{spec.kind.value}]",
                cat="hop",
            )
        )

    def _on_eject(self, router: "Router", packet: "Packet", now: int) -> None:
        pid = packet.pid
        if pid not in self._sampled:
            return
        self._pending_hop.pop(pid, None)
        self.events.append(
            _slice(
                PID_PACKETS,
                pid,
                packet.create_cycle,
                max(now - packet.create_cycle, 0),
                f"pkt {pid} {packet.src}->{packet.dst}",
                cat="packet",
            )
        )

    def _on_phy_dispatch(
        self, link: "Link", flit: "Flit", vc: int, phy: str, now: int
    ) -> None:
        if flit.is_head and flit.packet.pid in self._sampled:
            label = {"P": "parallel", "S": "serial"}.get(phy, phy)
            self.events.append(
                _instant(PID_PACKETS, flit.packet.pid, now, f"dispatch {label}")
            )

    def _on_rob_insert(self, link: "Link", flit: "Flit", vc: int, now: int) -> None:
        if flit.is_head and flit.packet.pid in self._sampled:
            self.events.append(_instant(PID_PACKETS, flit.packet.pid, now, "rob hold"))

    def _on_rob_release(self, link: "Link", flit: "Flit", vc: int, now: int) -> None:
        if flit.is_head and flit.packet.pid in self._sampled:
            self.events.append(
                _instant(PID_PACKETS, flit.packet.pid, now, "rob release")
            )

    # -- epoch reader ------------------------------------------------------
    def on_epoch(self, sample: "EpochSample") -> None:
        """Write the counter tracks from one closed epoch, at its end."""
        if self._subscription.closed:
            return
        end = sample.end
        self.events.append(
            _counter(PID_NETWORK, 0, end, "flits", buffered=sample.buffered,
                     in_flight=sample.in_flight)
        )
        for index, name in self._rob_tracks:
            occupancy, _peak = sample.rob.get(index, (0, 0))
            self.events.append(
                _counter(PID_NETWORK, index + 1, end, name, occupancy=occupancy)
            )

    # -- output ------------------------------------------------------------
    def detach(self) -> None:
        """Unsubscribe from the bus (recording stops, events are kept)."""
        self._subscription.close()

    def to_dict(self) -> dict:
        """The trace document (Chrome trace-event JSON object form)."""
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.telemetry",
                "clock": "1 simulated cycle = 1 us",
                "sampled_packets": len(self._sampled),
            },
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the trace to ``path`` (creating parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
        return path


# -- event constructors (Chrome trace-event schema) -------------------------
def _meta(pid: int, kind: str, *, tid: int = 0, name: str) -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}}


def _slice(pid: int, tid: int, ts: int, dur: int, name: str, *, cat: str) -> dict:
    return {
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": float(ts),
        "dur": float(dur),
        "name": name,
        "cat": cat,
    }


def _instant(pid: int, tid: int, ts: int, name: str) -> dict:
    return {
        "ph": "i",
        "pid": pid,
        "tid": tid,
        "ts": float(ts),
        "name": name,
        "s": "t",
        "cat": "marker",
    }


def _counter(pid: int, tid: int, ts: int, name: str, **values: int) -> dict:
    return {
        "ph": "C",
        "pid": pid,
        "tid": tid,
        "ts": float(ts),
        "name": name,
        "args": dict(values),
    }
