"""Subnetwork-selection policies for hetero-channel systems.

Eq (5) of the paper selects, per packet, which subnetwork carries its
cross-chiplet journey::

    SS = serial-IF cube   if #H_P - #H_S > 0
         parallel-IF mesh otherwise

where ``#H_P`` is the chiplet hop count on the parallel 2D-mesh and
``#H_S`` the hop count on the serial hypercube.  The choice minimizes the
total number of cross-chiplet hops (rule-based balanced scheduling,
Sec 8.1.2).

A cube-mode packet re-evaluates the selection at every chiplet and may
switch *permanently* to mesh mode — this is how "a message approaching the
destination turns to the low-latency parallel interface"; the absorbing
switch also guarantees livelock freedom (hamming distance strictly
decreases while in cube mode, Manhattan distance strictly decreases after
the switch).

Which selector a scheduling policy uses is a cell of
:data:`repro.sim.build.POLICIES`.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.weighted_path import HopCostModel
from repro.noc.channel import ChannelKind
from repro.topology.grid import ChipletGrid

MESH = "mesh"
CUBE = "cube"


class SubnetSelector(Protocol):
    """Chooses the subnetwork for a packet at chiplet ``cur`` headed to ``dst``."""

    def select(self, cur_chiplet: int, dst_chiplet: int) -> str: ...


class HopCountSelector:
    """Eq (5): pick the subnetwork with fewer cross-chiplet hops."""

    def __init__(self, grid: ChipletGrid) -> None:
        self.grid = grid

    def select(self, cur_chiplet: int, dst_chiplet: int) -> str:
        h_mesh = self.grid.mesh_chiplet_distance(cur_chiplet, dst_chiplet)
        h_cube = self.grid.cube_distance(cur_chiplet, dst_chiplet)
        return CUBE if h_mesh - h_cube > 0 else MESH


class WeightedSelector:
    """Weighted-path-length subnetwork selection (Sec 5.2).

    Approximates each subnetwork's end-to-end cost from chiplet hop counts:
    a mesh chiplet hop costs one parallel interface hop plus the on-chip
    hops needed to cross a chiplet; a cube hop costs one serial hop plus
    the average on-chip detour to the hosting interface node.  With an
    energy-weighted :class:`HopCostModel` this realizes the
    *energy-efficient* policy (serial hops become expensive); with a
    performance model it approximates the *performance-first* policy.
    """

    def __init__(self, grid: ChipletGrid, cost_model: HopCostModel) -> None:
        self.grid = grid
        onchip = cost_model.hop_cost(ChannelKind.ONCHIP)
        span = (grid.nodes_x + grid.nodes_y) / 2
        self._mesh_hop = cost_model.hop_cost(ChannelKind.PARALLEL) + (span - 1) * onchip
        host_detour = (grid.nodes_x + grid.nodes_y) / 4
        self._cube_hop = cost_model.hop_cost(ChannelKind.SERIAL) + host_detour * onchip

    def select(self, cur_chiplet: int, dst_chiplet: int) -> str:
        h_mesh = self.grid.mesh_chiplet_distance(cur_chiplet, dst_chiplet)
        h_cube = self.grid.cube_distance(cur_chiplet, dst_chiplet)
        return CUBE if h_cube * self._cube_hop < h_mesh * self._mesh_hop else MESH


class FixedSelector:
    """Always pick one subnetwork (exclusive usage mode, Sec 3.1)."""

    def __init__(self, subnet: str) -> None:
        if subnet not in (MESH, CUBE):
            raise ValueError(f"subnet must be {MESH!r} or {CUBE!r}")
        self.subnet = subnet

    def select(self, cur_chiplet: int, dst_chiplet: int) -> str:
        return self.subnet
