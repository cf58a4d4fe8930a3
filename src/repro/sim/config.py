"""Simulation configuration with the paper's default parameters (Table 2).

=====================================  ==========================
Parameter                              Value
=====================================  ==========================
Packet length                          16 flits
Input buffer size                      32 flits (on-chip), 64 (interface)
Virtual channels                       2 per link
On-chip link bandwidth                 2 flits/cycle
Parallel link bandwidth / delay        2 flits/cycle / 5 cycles
Serial link bandwidth / delay          4 flits/cycle / 20 cycles
Simulation time                        100000 cycles (10000 warm-up)
=====================================  ==========================

The *halved* heterogeneous interface (Sec 7.2) combines two halved standard
PHYs to keep the total I/O pin count of a single standard interface:
parallel 1 flit/cycle, serial 2 flits/cycle.

Link energies follow Sec 8.3: parallel 1 pJ/bit, serial 2.4 pJ/bit.  The
on-chip per-hop energy is not given by the paper; we use 0.1 pJ/bit per hop
(a typical 1-2 mm on-chip link at 12 nm), which makes the on-chip/interface
split of Fig 16 comparable in magnitude.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.noc.channel import PhyParams


@dataclass(frozen=True)
class SimConfig:
    """All tunable parameters of a simulation run."""

    # Packetization
    packet_length: int = 16

    # Buffers / VCs (Table 2)
    onchip_buffer: int = 32
    interface_buffer: int = 64
    n_vcs: int = 2

    # Link physics (Table 2)
    onchip_bandwidth: int = 2
    onchip_delay: int = 1
    parallel_bandwidth: int = 2
    parallel_delay: int = 5
    serial_bandwidth: int = 4
    serial_delay: int = 20

    # Energy (Sec 8.3)
    onchip_energy_pj_per_bit: float = 0.1
    parallel_energy_pj_per_bit: float = 1.0
    serial_energy_pj_per_bit: float = 2.4

    # Simulation horizon (Table 2)
    sim_cycles: int = 100_000
    warmup_cycles: int = 10_000

    # Router parameters
    injection_vcs: int = 2
    ejection_bandwidth: int = 4

    # Hetero-PHY adapter (Sec 4.2 / 7.3)
    tx_fifo_depth: int = 32
    scheduling_policy: str = "balanced"
    rob_capacity: int | None = None  # None => Eq (1) sizing

    def __post_init__(self) -> None:
        if self.packet_length < 1:
            raise ValueError("packet_length must be >= 1")
        if self.warmup_cycles >= self.sim_cycles:
            raise ValueError("warmup_cycles must be smaller than sim_cycles")
        for name in (
            "onchip_bandwidth",
            "parallel_bandwidth",
            "serial_bandwidth",
            "n_vcs",
            "onchip_buffer",
            "interface_buffer",
            "injection_vcs",
            "ejection_bandwidth",
            "onchip_delay",
            "parallel_delay",
            "serial_delay",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    # -- derived PHY parameter bundles ------------------------------------
    @property
    def onchip_phy(self) -> PhyParams:
        return PhyParams(
            self.onchip_bandwidth, self.onchip_delay, self.onchip_energy_pj_per_bit
        )

    @property
    def parallel_phy(self) -> PhyParams:
        return PhyParams(
            self.parallel_bandwidth, self.parallel_delay, self.parallel_energy_pj_per_bit
        )

    @property
    def serial_phy(self) -> PhyParams:
        return PhyParams(
            self.serial_bandwidth, self.serial_delay, self.serial_energy_pj_per_bit
        )

    # -- variants -----------------------------------------------------------
    def halved(self) -> "SimConfig":
        """The pin-constrained hetero-IF variant (Sec 7.2).

        Both PHYs are halved so the heterogeneous interface uses roughly the
        I/O pin budget of one standard interface.
        """
        return self.replace(
            parallel_bandwidth=max(1, self.parallel_bandwidth // 2),
            serial_bandwidth=max(1, self.serial_bandwidth // 2),
        )

    def replace(self, **changes) -> "SimConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def scaled(self, cycles: int, warmup: int | None = None) -> "SimConfig":
        """Return a copy with a shorter simulation horizon (for tests/benches)."""
        if warmup is None:
            warmup = cycles // 10
        return self.replace(sim_cycles=cycles, warmup_cycles=warmup)


#: The paper's default configuration (Table 2).
DEFAULT_CONFIG = SimConfig()
