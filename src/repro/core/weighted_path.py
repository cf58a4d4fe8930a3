"""Weighted path length (Sec 5.2).

For heterogeneous networks the hop count reflects only part of a path's
cost: one serial hop can cost several times the latency and energy of a
parallel hop.  Eq (3) defines the cost of hop *i* as::

    C_i = alpha * D_i + beta / B_i + gamma * E_i

with latency ``D_i`` (cycles), bandwidth ``B_i`` (flits/cycle) and energy
``E_i`` (pJ per flit here), and Eq (4) the weighted length of a path as the
sum of its hop costs.  Routing and subnetwork-selection policies instantiate
different coefficient settings: the performance-first policy sets
``gamma = 0``; the energy-efficient policy weights energy heavily
(Sec 5.3.1).

:meth:`HopCostModel.path_length` is Eq (4)'s one reader: the torus
direction planner (:mod:`repro.routing.torus_moves`) prices every path
through it, so a change to how a path is priced is an edit of that method.
The weighted subnetwork selector (:mod:`repro.routing.policies`) keeps its
own chiplet-hop approximation built from :meth:`HopCostModel.hop_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.noc.channel import ChannelKind
from repro.noc.flit import FLIT_BITS
from repro.sim.config import SimConfig

#: Cycles a flit spends in the router before transmission: routing, VC
#: allocation and switch allocation complete in one cycle at zero load
#: (speculative router, Sec 7.1).
ROUTER_PIPELINE_CYCLES = 1


@dataclass(frozen=True)
class HopCostModel:
    """Eq (3) hop costs for every channel kind of a configuration.

    A hetero-PHY hop is costed by its parallel component (delay and energy)
    at the aggregate bandwidth, reflecting the balanced dispatch policy that
    prefers the parallel PHY (Sec 5.3.1).
    """

    config: SimConfig
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0

    # -- per-kind physical figures ----------------------------------------
    def delay(self, kind: ChannelKind) -> int:
        """Per-hop latency D_i in cycles, including the router pipeline."""
        config = self.config
        link = {
            ChannelKind.ONCHIP: config.onchip_delay,
            ChannelKind.PARALLEL: config.parallel_delay,
            ChannelKind.SERIAL: config.serial_delay,
            ChannelKind.HETERO_PHY: config.parallel_delay,
        }[kind]
        return ROUTER_PIPELINE_CYCLES + link

    def bandwidth(self, kind: ChannelKind) -> int:
        """Per-hop bandwidth B_i in flits/cycle."""
        config = self.config
        return {
            ChannelKind.ONCHIP: config.onchip_bandwidth,
            ChannelKind.PARALLEL: config.parallel_bandwidth,
            ChannelKind.SERIAL: config.serial_bandwidth,
            ChannelKind.HETERO_PHY: config.parallel_bandwidth
            + config.serial_bandwidth,
        }[kind]

    def energy_pj(self, kind: ChannelKind) -> float:
        """Per-hop energy E_i in pJ per flit."""
        config = self.config
        per_bit = {
            ChannelKind.ONCHIP: config.onchip_energy_pj_per_bit,
            ChannelKind.PARALLEL: config.parallel_energy_pj_per_bit,
            ChannelKind.SERIAL: config.serial_energy_pj_per_bit,
            ChannelKind.HETERO_PHY: config.parallel_energy_pj_per_bit,
        }[kind]
        return FLIT_BITS * per_bit

    # -- Eq (3) / Eq (4) -----------------------------------------------------
    def hop_cost(self, kind: ChannelKind) -> float:
        """Eq (3): C_i = alpha*D_i + beta/B_i + gamma*E_i."""
        return (
            self.alpha * self.delay(kind)
            + self.beta / self.bandwidth(kind)
            + self.gamma * self.energy_pj(kind)
        )

    def path_length(self, kinds: Iterable[ChannelKind]) -> float:
        """Eq (4): weighted length of a path given its hop kinds.

        Adds hop costs left to right in a plain loop: ``sum()`` of floats
        is compensated from Python 3.12 on, and routing decisions compare
        these lengths exactly.
        """
        length = 0.0
        for kind in kinds:
            length += self.hop_cost(kind)
        return length

    # -- named policy instantiations -------------------------------------------
    @classmethod
    def performance_first(cls, config: SimConfig) -> "HopCostModel":
        """gamma = 0: latency and serialization only (Sec 5.3.1)."""
        return cls(config, alpha=1.0, beta=float(config.packet_length), gamma=0.0)

    @classmethod
    def energy_efficient(cls, config: SimConfig) -> "HopCostModel":
        """Energy-dominated costs: serial hops become very expensive."""
        return cls(config, alpha=1.0, beta=float(config.packet_length), gamma=1.0)

    @classmethod
    def balanced(cls, config: SimConfig) -> "HopCostModel":
        """A mild energy weight on top of performance-first costs."""
        return cls(config, alpha=1.0, beta=float(config.packet_length), gamma=0.05)


def make_cost_model(config: SimConfig, policy: str) -> HopCostModel:
    """Cost model for a named scheduling policy.

    ``policy`` is one of ``"performance"``, ``"balanced"``,
    ``"energy_efficient"``.
    """
    factories = {
        "performance": HopCostModel.performance_first,
        "balanced": HopCostModel.balanced,
        "energy_efficient": HopCostModel.energy_efficient,
    }
    try:
        factory = factories[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(config)
