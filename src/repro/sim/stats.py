"""Simulation statistics.

Collects per-packet latency, throughput, hop and energy figures.  Packets
created before the end of the warm-up window are delivered normally but
excluded from the measured population, matching the paper's methodology
(Table 2: 100000 cycles with 10000 cycles of warm-up).
"""

from __future__ import annotations

import math

from typing import TYPE_CHECKING, Sequence

from repro.noc.channel import KINDS_BY_ID, ChannelKind
from repro.noc.flit import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.network import Network


def percentile(values: Sequence[float], pct: float, *, presorted: bool = False) -> float:
    """The ``pct``-th percentile of ``values`` (ceil-rank convention).

    ``pct`` must satisfy ``0 < pct <= 100``; anything else (including NaN)
    raises :class:`ValueError` naming the offending value.  Returns NaN for
    an empty sequence.  ``presorted=True`` skips the sort when the caller
    already keeps the values ordered (the latency ledger's aggregates).
    """
    if math.isnan(pct) or not 0 < pct <= 100:
        raise ValueError(
            f"percentile pct must be in (0, 100], got {pct!r}"
        )
    if not values:
        return math.nan
    ordered = values if presorted else sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(pct / 100 * len(ordered)) - 1))
    return float(ordered[idx])


class Stats:
    """Statistics sink passed to the network.

    Parameters
    ----------
    measure_from:
        First cycle whose packets are included in the measured population
        (usually the warm-up length).
    """

    def __init__(self, measure_from: int = 0) -> None:
        self.measure_from = measure_from
        #: Flits that crossed a router's switch, all run long: written by
        #: the routers alone.
        self.router_flits = 0
        #: Last cycle ``router_flits`` grew: the engine's stall clock, written
        #: by :class:`~repro.sim.engine.Engine` alone.
        self.last_movement_cycle = 0
        #: Flits and energy (pJ) that crossed links, per channel-kind id:
        #: written by the links alone, energy added once per flit.
        self.link_flits_by_kind = [0] * len(KINDS_BY_ID)
        self.link_energy_pj_by_kind = [0.0] * len(KINDS_BY_ID)
        # Measured packet population.
        self.latencies: list[int] = []
        self.packets_delivered = 0
        self.flits_delivered = 0
        self.packets_injected = 0
        self.flits_injected = 0
        self.measured_injected = 0
        self.hops_onchip = 0
        self.hops_interface = 0
        self.energy_onchip_pj = 0.0
        self.energy_interface_pj = 0.0

    @property
    def link_flits(self) -> dict[ChannelKind, int]:
        """Flits transmitted per channel kind."""
        return dict(zip(KINDS_BY_ID, self.link_flits_by_kind))

    @property
    def link_energy_pj(self) -> dict[ChannelKind, float]:
        """Link energy consumed per channel kind (pJ), all traffic."""
        return dict(zip(KINDS_BY_ID, self.link_energy_pj_by_kind))

    def note_packet_injected(self, packet: Packet) -> None:
        self.packets_injected += 1
        self.flits_injected += packet.length
        if packet.create_cycle >= self.measure_from:
            self.measured_injected += 1

    def note_packet_delivered(self, packet: Packet, now: int) -> None:
        if packet.create_cycle < self.measure_from:
            return
        self.packets_delivered += 1
        self.flits_delivered += packet.length
        self.latencies.append(now - packet.create_cycle)
        self.hops_onchip += packet.hops_onchip
        self.hops_interface += packet.hops_interface
        self.energy_onchip_pj += packet.energy_onchip_pj
        self.energy_interface_pj += packet.energy_interface_pj

    # -- derived metrics -------------------------------------------------------
    @property
    def avg_latency(self) -> float:
        """Mean creation-to-delivery latency of measured packets."""
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

    @property
    def latency_variance(self) -> float:
        """Population variance of measured packet latency."""
        n = len(self.latencies)
        if n < 2:
            return math.nan
        mean = self.avg_latency
        return sum((lat - mean) ** 2 for lat in self.latencies) / n

    @property
    def latency_stddev(self) -> float:
        var = self.latency_variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile (0 < pct <= 100) of measured packets."""
        return percentile(self.latencies, pct)

    def throughput(self, n_nodes: int, measured_cycles: int) -> float:
        """Accepted traffic in flits/cycle/node over the measurement window."""
        if n_nodes <= 0 or measured_cycles <= 0:
            raise ValueError("n_nodes and measured_cycles must be positive")
        return self.flits_delivered / (n_nodes * measured_cycles)

    @property
    def avg_energy_pj(self) -> float:
        """Mean link energy per delivered packet (pJ), on-chip + interface."""
        if self.packets_delivered == 0:
            return math.nan
        total = self.energy_onchip_pj + self.energy_interface_pj
        return total / self.packets_delivered

    @property
    def avg_energy_onchip_pj(self) -> float:
        if self.packets_delivered == 0:
            return math.nan
        return self.energy_onchip_pj / self.packets_delivered

    @property
    def avg_energy_interface_pj(self) -> float:
        if self.packets_delivered == 0:
            return math.nan
        return self.energy_interface_pj / self.packets_delivered

    @property
    def avg_hops(self) -> float:
        """Mean hop count (on-chip + interface) per delivered packet."""
        if self.packets_delivered == 0:
            return math.nan
        return (self.hops_onchip + self.hops_interface) / self.packets_delivered

    @property
    def delivered_fraction(self) -> float:
        """Measured packets delivered / measured packets injected."""
        if self.measured_injected == 0:
            return math.nan
        return self.packets_delivered / self.measured_injected

    def summary(self) -> dict[str, float | int]:
        """A flat dictionary of the headline metrics.

        Counters (``packets_delivered``) stay :class:`int`; derived metrics
        are :class:`float` (``nan`` when the measured population is empty).
        """
        return {
            "packets_delivered": self.packets_delivered,
            "avg_latency": self.avg_latency,
            "latency_stddev": self.latency_stddev,
            "p99_latency": self.latency_percentile(99),
            "avg_hops": self.avg_hops,
            "avg_energy_pj": self.avg_energy_pj,
            "avg_energy_onchip_pj": self.avg_energy_onchip_pj,
            "avg_energy_interface_pj": self.avg_energy_interface_pj,
            "delivered_fraction": self.delivered_fraction,
        }


class DeadlockError(RuntimeError):
    """Raised when buffered flits stop moving for too long.

    ``where`` (appended to the message) says where the run is stuck; see
    :meth:`in_network`.  When the engine's
    :class:`~repro.telemetry.session.TelemetrySession` captures bundles
    (``TelemetryConfig.forensics``), ``bundle_path`` names the postmortem
    bundle written for this failure (``None`` otherwise).
    """

    def __init__(self, cycle: int, buffered: int, stalled_for: int, where: str = "") -> None:
        super().__init__(
            f"no flit movement for {stalled_for} cycles at cycle {cycle} "
            f"with {buffered} flits buffered - likely routing deadlock"
            + (f": {where}" if where else "")
        )
        self.cycle = cycle
        self.buffered = buffered
        self.stalled_for = stalled_for
        self.bundle_path: str | None = None

    @classmethod
    def in_network(
        cls, network: "Network", cycle: int, buffered: int, stalled_for: int
    ) -> "DeadlockError":
        """The error for ``network`` wedged at ``cycle``, naming the four
        routers holding the most flits and the oldest in-flight packet
        (from the postmortem packet table, loaded only when a run wedges).
        """
        from repro.telemetry.forensics import inflight_packet_table

        fullest = sorted((-router.buffered_flits(), router.node) for router in network.routers)
        tops = ", ".join(f"node {node}: {-flits}" for flits, node in fullest[:4] if flits)
        where = f"fullest routers [{tops}]"
        for packet in inflight_packet_table(network, cycle, max_packets=1)["table"]:
            at = packet["positions"][0]  # {"loc": ..., "node"/"port"/"vc" or "link": ...}
            place = " ".join(f"{key} {value}" for key, value in at.items() if key != "loc")
            where += (
                f"; oldest in-flight packet {packet['pid']} ({packet['src']}->{packet['dst']}) "
                f"at {place}, {packet['age']} cycles old ({packet['stage']})"
            )
        return cls(cycle, buffered, stalled_for, where)


class DrainTimeoutError(DeadlockError):
    """The network failed to drain within the allotted cycles.

    Carries a buffered-flit census: ``census`` maps each node still holding
    flits in its router buffers to the flit count, and ``in_flight`` counts
    flits inside link pipelines.  ``stalled_for`` is the cycles since the
    last flit movement (0 means traffic was still moving — an undersized
    deadline rather than a wedge).
    """

    def __init__(
        self,
        cycle: int,
        max_cycles: int,
        census: dict[int, int],
        in_flight: int,
        stalled_for: int,
    ) -> None:
        buffered = sum(census.values())
        hotspots = sorted(census.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        where = ", ".join(f"node {node}: {flits}" for node, flits in hotspots)
        RuntimeError.__init__(
            self,
            f"network failed to drain within {max_cycles} cycles "
            f"({buffered} flits still buffered across {len(census)} routers"
            + (f" [{where}]" if where else "")
            + f", {in_flight} in flight on links)",
        )
        self.cycle = cycle
        self.max_cycles = max_cycles
        self.census = census
        self.buffered = buffered
        self.in_flight = in_flight
        self.stalled_for = stalled_for
        self.bundle_path = None
