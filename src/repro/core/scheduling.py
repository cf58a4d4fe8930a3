"""Hetero-PHY dispatch (scheduling) policies (Sec 5.3).

The adapter's dispatch stage assigns each flit leaving the transmitter to
one of the two PHYs.  Three rule-based policies come from the paper:

``performance``
    Dispatch whenever any PHY is free (gamma = 0 in Eq 3); the interface
    always works at full capacity.
``energy_efficient``
    Always use the parallel PHY (the serial PHY stays dark); highest
    energy efficiency, lowest throughput.
``balanced``
    Parallel PHY at higher priority; the serial PHY is enabled only when
    the dispatch queue exceeds a threshold.  This is the policy the RTL
    prototype implements (Sec 7.3: half-full FIFO -> read three flits, one
    to the parallel and two to the serial PHY).

``application_aware`` additionally honours packet metadata (Sec 5.3.2):
high-priority packets prefer the low-latency parallel PHY, packets of the
``"bulk"`` message class prefer the high-throughput serial PHY; everything
else falls back to a base rule policy.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.noc.flit import Packet
from repro.sim.config import SimConfig

#: PHY identifiers returned by ``choose_phy``.
PARALLEL = "P"
SERIAL = "S"


class DispatchPolicy(Protocol):
    """Decides, flit by flit, which PHY transmits next.

    A policy sees the packet of the flit at the head of the TX FIFO: no
    rule depends on the flit's position within it.
    """

    #: Whether high-priority / unordered packets may jump the dispatch
    #: queue through the parallel-PHY bypass (Sec 4.2).
    bypass_enabled: bool

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        """``"P"``, ``"S"``, or None to stall this cycle."""
        ...


class PerformanceFirstPolicy:
    """Use any free PHY; parallel first for its lower latency."""

    bypass_enabled = True

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        if par_free > 0:
            return PARALLEL
        if ser_free > 0:
            return SERIAL
        return None


class EnergyEfficientPolicy:
    """Only ever dispatch to the parallel PHY (Sec 5.3.1)."""

    bypass_enabled = False

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        return PARALLEL if par_free > 0 else None


class BalancedPolicy:
    """Threshold rule: serial PHY joins in only under queue pressure.

    ``threshold`` is the dispatch-queue length at which the serial PHY is
    enabled; the RTL prototype uses half the TX FIFO capacity (Sec 7.3).
    """

    bypass_enabled = True

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        if par_free > 0:
            return PARALLEL
        if queue_len >= self.threshold and ser_free > 0:
            return SERIAL
        return None


class ApplicationAwarePolicy:
    """Packet-metadata-driven dispatch on top of a base rule policy.

    Active application awareness (Sec 5.3.2): the application marks
    packets at packetization time; the adapter honours the marks.
    """

    def __init__(self, base: Optional[DispatchPolicy] = None) -> None:
        self.base = base or PerformanceFirstPolicy()
        self.bypass_enabled = self.base.bypass_enabled

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        if packet.priority > 0:
            # Minimal latency: wait for the parallel PHY if necessary.
            return PARALLEL if par_free > 0 else None
        if packet.msg_class == "bulk":
            # Maximum throughput: prefer the wide serial PHY.
            if ser_free > 0:
                return SERIAL
            if par_free > 0:
                return PARALLEL
            return None
        return self.base.choose_phy(packet, queue_len, par_free, ser_free)


class PassiveApplicationAwarePolicy:
    """Dispatch by objective packet characteristics (Sec 5.3.2, passive).

    No application involvement: short packets (control/coherence traffic,
    at most ``short_threshold`` flits) ride the low-latency parallel PHY;
    long packets (bulk data) prefer the wide serial PHY.  Falls back to
    the other PHY rather than stalling, like the performance-first rule.
    """

    bypass_enabled = True

    def __init__(self, short_threshold: int = 2) -> None:
        if short_threshold < 1:
            raise ValueError("short_threshold must be >= 1")
        self.short_threshold = short_threshold

    def choose_phy(
        self, packet: Packet, queue_len: int, par_free: int, ser_free: int
    ) -> Optional[str]:
        short = packet.length <= self.short_threshold
        first, second = (PARALLEL, SERIAL) if short else (SERIAL, PARALLEL)
        free = {PARALLEL: par_free, SERIAL: ser_free}
        if free[first] > 0:
            return first
        if free[second] > 0:
            return second
        return None


def make_dispatch_policy(name: str, config: SimConfig) -> DispatchPolicy:
    """Build a dispatch policy by name.

    Names: ``"performance"``, ``"energy_efficient"``, ``"balanced"``,
    ``"application_aware"``, ``"passive_aware"``.
    """
    if name == "performance":
        return PerformanceFirstPolicy()
    if name == "energy_efficient":
        return EnergyEfficientPolicy()
    if name == "balanced":
        return BalancedPolicy(threshold=max(1, config.tx_fifo_depth // 2))
    if name == "application_aware":
        return ApplicationAwarePolicy(
            BalancedPolicy(threshold=max(1, config.tx_fifo_depth // 2))
        )
    if name == "passive_aware":
        return PassiveApplicationAwarePolicy()
    raise ValueError(f"unknown dispatch policy {name!r}")
