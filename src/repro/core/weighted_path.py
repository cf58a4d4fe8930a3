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

from dataclasses import dataclass, field
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

    A hop's figures are those of the PHYs its kind is carried on
    (:meth:`~repro.sim.config.SimConfig.phys`).  A hetero-PHY hop is costed
    by its parallel component (delay and energy) at the aggregate
    bandwidth, reflecting the balanced dispatch policy that prefers the
    parallel PHY (Sec 5.3.1).  The four per-kind costs are computed once,
    at construction.
    """

    config: SimConfig
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    _costs: dict[ChannelKind, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        costs = {
            kind: self.alpha * self.delay(kind)
            + self.beta / self.bandwidth(kind)
            + self.gamma * self.energy_pj(kind)
            for kind in ChannelKind
        }
        object.__setattr__(self, "_costs", costs)

    # -- per-kind physical figures ----------------------------------------
    def delay(self, kind: ChannelKind) -> int:
        """Per-hop latency D_i in cycles, including the router pipeline."""
        phy, _serial = self.config.phys(kind)
        return ROUTER_PIPELINE_CYCLES + phy.delay

    def bandwidth(self, kind: ChannelKind) -> int:
        """Per-hop bandwidth B_i in flits/cycle (both PHYs of a hetero-PHY hop)."""
        phy, serial = self.config.phys(kind)
        return phy.bandwidth + (serial.bandwidth if serial is not None else 0)

    def energy_pj(self, kind: ChannelKind) -> float:
        """Per-hop energy E_i in pJ per flit."""
        phy, _serial = self.config.phys(kind)
        return FLIT_BITS * phy.energy_pj_per_bit

    # -- Eq (3) / Eq (4) -----------------------------------------------------
    def hop_cost(self, kind: ChannelKind) -> float:
        """Eq (3): C_i = alpha*D_i + beta/B_i + gamma*E_i."""
        return self._costs[kind]

    def path_length(self, kinds: Iterable[ChannelKind]) -> float:
        """Eq (4): weighted length of a path given its hop kinds.

        Adds hop costs left to right in a plain loop: ``sum()`` of floats
        is compensated from Python 3.12 on, and routing decisions compare
        these lengths exactly.
        """
        costs = self._costs
        length = 0.0
        for kind in kinds:
            length += costs[kind]
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
