"""Routing functions, one per escape structure a system's links allow.

All functions share the structure of Algorithm 1: a connected,
deadlock-free *escape* routing subfunction R0 on a channel subset C0
(candidates marked ``is_escape=True``), plus freely usable *adaptive*
channels restricted to profitable paths (``is_escape=False``).  The VC
allocator prefers adaptive candidates and falls back to escape; falling
back due to congestion sets ``packet.adaptive_banned``, after which
adaptive channels are offered only along baseline (escape) paths — the
livelock rule of Sec 6.2.

Escape structures, picked by :func:`make_routing` from the links of the
system (never from its family label):

* a global mesh (mesh / torus / hetero-PHY torus / hetero-channel) —
  minimal negative-first routing on VC0 of the global-mesh channels
  (on-chip + mesh-direction interface channels); torus wraparound and
  hypercube channels are purely adaptive (Algorithm 1's C0 = C_N,0 + C_P,0).
* a hypercube without a global mesh (serial hypercube) — *minus-first*
  routing (reproduced from [30]): all 1->0 chiplet-dimension corrections
  before any 0->1 correction, with phase-split escape VCs (VC0 while minus
  corrections remain, VC1 after), which orders the channel dependency graph.
"""

from __future__ import annotations

from typing import Optional

from repro.core.weighted_path import HopCostModel
from repro.noc.flit import Packet
from repro.noc.router import Candidate, Router
from repro.topology.grid import ChipletGrid
from repro.topology.system import SystemSpec
from .cube_moves import CubeHostIndex, split_dims
from .mesh_moves import minimal_moves, negative_first_moves
from .policies import CUBE, MESH, HopCountSelector, SubnetSelector
from .torus_moves import TorusAxisPlanner

_EJECT: list[Candidate] = [(Router.EJECT_PORT, 0, True)]

_X_DIR = {1: "E", -1: "W"}
_Y_DIR = {1: "N", -1: "S"}


def node_coords(grid: ChipletGrid) -> list[tuple[int, int]]:
    """Global ``(gx, gy)`` of every node, indexed by node id.

    Routing runs once per packet per hop; a table lookup replaces the
    range check and the four size properties behind ``grid.coords``.
    ``Network.inject`` rejects out-of-range endpoints, so the index is
    always valid (a negative one would silently wrap).
    """
    return [grid.coords(node) for node in range(grid.n_nodes)]


def node_chiplets(grid: ChipletGrid) -> list[int]:
    """Chiplet id of every node, indexed by node id (see :func:`node_coords`)."""
    return [grid.chiplet_of(node) for node in range(grid.n_nodes)]


class MeshRouting:
    """Negative-first-based adaptive routing on the global 2D mesh.

    Escape: minimal negative-first on VC0.  Adaptive: all minimal moves on
    VC1+ (restricted to escape directions once the packet is banned).
    """

    def __init__(self, spec: SystemSpec) -> None:
        self.grid = spec.grid
        self.n_vcs = spec.config.n_vcs
        self._coords = node_coords(spec.grid)

    def __call__(self, router: Router, packet: Packet) -> list[Candidate]:
        if packet.dst == router.node:
            return _EJECT
        cur = self._coords[router.node]
        dst = self._coords[packet.dst]
        return self._mesh_candidates(router, cur, dst, packet.adaptive_banned)

    def _mesh_candidates(
        self,
        router: Router,
        cur: tuple[int, int],
        dst: tuple[int, int],
        banned: bool,
    ) -> list[Candidate]:
        by_tag = router.out_port_by_tag
        escape_dirs = negative_first_moves(cur, dst)
        candidates: list[Candidate] = [
            (by_tag[("mesh", d)], 0, True) for d in escape_dirs
        ]
        adaptive_dirs = escape_dirs if banned else minimal_moves(cur, dst)
        for direction in adaptive_dirs:
            port = by_tag[("mesh", direction)]
            for vc in range(1, self.n_vcs):
                candidates.append((port, vc, False))
        return candidates


class TorusRouting(MeshRouting):
    """Weighted adaptive routing for (hetero-PHY or serial) torus systems.

    Escape is negative-first on the mesh component (wraparound channels are
    never escape).  Adaptive candidates follow the per-axis weighted
    direction decision of Sec 5.2: the cheaper of the direct and the
    wraparound direction under Eq (3) hop costs, using wrap channels at the
    global mesh edge and mesh channels elsewhere.
    """

    def __init__(self, spec: SystemSpec, cost_model: Optional[HopCostModel] = None) -> None:
        super().__init__(spec)
        if not spec.has_wraparound:
            raise ValueError(f"{spec.name} has no wraparound channels")
        cost_model = cost_model or HopCostModel.performance_first(spec.config)
        costs = (spec.neighbor_kind, spec.wrap_kind, cost_model)
        grid = spec.grid
        self.planner_x = TorusAxisPlanner(
            grid.width, grid.nodes_x, *costs, wrapped=grid.chiplets_x > 1
        )
        self.planner_y = TorusAxisPlanner(
            grid.height, grid.nodes_y, *costs, wrapped=grid.chiplets_y > 1
        )

    def __call__(self, router: Router, packet: Packet) -> list[Candidate]:
        if packet.dst == router.node:
            return _EJECT
        cur = self._coords[router.node]
        dst = self._coords[packet.dst]
        by_tag = router.out_port_by_tag
        escape_dirs = negative_first_moves(cur, dst)
        candidates: list[Candidate] = [
            (by_tag[("mesh", d)], 0, True) for d in escape_dirs
        ]
        if packet.adaptive_banned:
            for direction in escape_dirs:
                port = by_tag[("mesh", direction)]
                for vc in range(1, self.n_vcs):
                    candidates.append((port, vc, False))
            return candidates
        moves: list[str] = []
        for sign in self.planner_x.directions(cur[0], dst[0]):
            moves.append(_X_DIR[sign])
        for sign in self.planner_y.directions(cur[1], dst[1]):
            moves.append(_Y_DIR[sign])
        for direction in moves:
            mesh_port = by_tag.get(("mesh", direction))
            if mesh_port is not None:
                for vc in range(1, self.n_vcs):
                    candidates.append((mesh_port, vc, False))
            else:
                wrap_port = by_tag[("wrap", direction)]
                for vc in range(self.n_vcs):
                    candidates.append((wrap_port, vc, False))
        return candidates


class HypercubeRouting:
    """Minus-first adaptive routing for the uniform serial hypercube [30].

    The escape subfunction corrects all minus dimensions (1->0) before any
    plus dimension (0->1), travelling on-chip (negative-first) to the
    hosting interface node of the *nearest* needed dimension.  Escape VCs
    are phase-split: on-chip and serial VC0 while in the minus phase, VC1
    afterwards; serial VC1 is adaptive within the current phase.
    """

    MINUS_VC = 0
    PLUS_VC = 1

    def __init__(self, spec: SystemSpec) -> None:
        if spec.config.n_vcs < 2:
            raise ValueError(
                "minus-first routing needs n_vcs >= 2 virtual channels, "
                f"got n_vcs={spec.config.n_vcs}"
            )
        self.grid = spec.grid
        self.n_vcs = spec.config.n_vcs
        self.hosts = CubeHostIndex(spec)
        self._coords = node_coords(spec.grid)
        self._chiplets = node_chiplets(spec.grid)

    def __call__(self, router: Router, packet: Packet) -> list[Candidate]:
        node = router.node
        if packet.dst == node:
            return _EJECT
        coords = self._coords
        chiplet = self._chiplets[node]
        dst_chiplet = self._chiplets[packet.dst]
        by_tag = router.out_port_by_tag
        if chiplet == dst_chiplet:
            return self._onchip(router, coords[node], coords[packet.dst], self.PLUS_VC)
        minus, plus = split_dims(chiplet, dst_chiplet)
        phase_dims = minus if minus else plus
        phase_vc = self.MINUS_VC if minus else self.PLUS_VC
        host, dim = self.hosts.nearest_host(node, phase_dims)
        if host == node:
            candidates: list[Candidate] = [(by_tag[("cube", dim)], phase_vc, True)]
        else:
            candidates = self._onchip(router, coords[node], coords[host], phase_vc)
        if packet.adaptive_banned:
            return candidates
        # Adaptive: any hosted link of the current phase.  Escape claims
        # serial VC0 on minus links and VC1 on plus links, so the opposite
        # VC of each serial link (plus any VC >= 2) is free for adaptive
        # use within the phase; on-chip adaptivity needs VC >= 2.
        serial_adaptive_vcs = [1 - phase_vc] + list(range(2, self.n_vcs))
        for hosted_dim in self.hosts.hosted_dims(node):
            if hosted_dim in phase_dims:
                port = by_tag[("cube", hosted_dim)]
                for vc in serial_adaptive_vcs:
                    candidates.append((port, vc, False))
        if host != node:
            for direction in minimal_moves(coords[node], coords[host]):
                port = by_tag[("mesh", direction)]
                for vc in range(self.PLUS_VC + 1, self.n_vcs):
                    candidates.append((port, vc, False))
        return candidates

    def _onchip(
        self,
        router: Router,
        cur: tuple[int, int],
        target: tuple[int, int],
        phase_vc: int,
    ) -> list[Candidate]:
        by_tag = router.out_port_by_tag
        candidates: list[Candidate] = [
            (by_tag[("mesh", d)], phase_vc, True)
            for d in negative_first_moves(cur, target)
        ]
        for direction in minimal_moves(cur, target):
            port = by_tag[("mesh", direction)]
            for vc in range(self.PLUS_VC + 1, self.n_vcs):
                candidates.append((port, vc, False))
        return candidates


class HeteroChannelRouting(MeshRouting):
    """Algorithm 1 for the hetero-channel mesh+hypercube system.

    C0 is VC0 of the on-chip and parallel mesh channels with negative-first
    routing (connected and deadlock-free -> Theorem 1); all serial
    hypercube VCs and the remaining mesh VCs are adaptive.  The subnetwork
    carrying the cross-chiplet journey is chosen per packet by ``selector``
    (Eq 5 by default); cube-mode packets may switch permanently to mesh
    mode as they approach the destination.
    """

    def __init__(self, spec: SystemSpec, selector: SubnetSelector) -> None:
        super().__init__(spec)
        if not spec.has_global_mesh:
            raise ValueError(f"{spec.name} has no global mesh to carry Algorithm 1's escape")
        self.hosts = CubeHostIndex(spec)
        self.selector = selector
        self._chiplets = node_chiplets(spec.grid)

    def __call__(self, router: Router, packet: Packet) -> list[Candidate]:
        node = router.node
        if packet.dst == node:
            return _EJECT
        cur = self._coords[node]
        dst = self._coords[packet.dst]
        chiplet = self._chiplets[node]
        dst_chiplet = self._chiplets[packet.dst]
        if chiplet == dst_chiplet or packet.adaptive_banned:
            packet.subnet_choice = MESH
            return self._mesh_candidates(router, cur, dst, packet.adaptive_banned)
        if packet.subnet_choice is None:
            packet.subnet_choice = self.selector.select(chiplet, dst_chiplet)
        elif packet.subnet_choice == CUBE:
            # Re-evaluate; a switch to mesh is permanent (absorbing), which
            # both enables the low-latency parallel finish (Sec 8.1.2) and
            # guarantees livelock freedom.
            packet.subnet_choice = self.selector.select(chiplet, dst_chiplet)
        if packet.subnet_choice == MESH:
            return self._mesh_candidates(router, cur, dst, banned=False)
        return self._cube_candidates(router, packet, chiplet, dst_chiplet, cur, dst)

    def _cube_candidates(
        self,
        router: Router,
        packet: Packet,
        chiplet: int,
        dst_chiplet: int,
        cur: tuple[int, int],
        dst: tuple[int, int],
    ) -> list[Candidate]:
        by_tag = router.out_port_by_tag
        # Escape is always the negative-first parallel mesh toward the
        # destination (Algorithm 1 line 6).
        candidates: list[Candidate] = [
            (by_tag[("mesh", d)], 0, True) for d in negative_first_moves(cur, dst)
        ]
        minus, plus = split_dims(chiplet, dst_chiplet)
        needed = minus + plus
        hosted = [d for d in self.hosts.hosted_dims(router.node) if d in needed]
        if hosted:
            # All serial VCs are adaptive (Algorithm 1 line 8).
            for dim in hosted:
                port = by_tag[("cube", dim)]
                for vc in range(self.n_vcs):
                    candidates.append((port, vc, False))
        else:
            host, _dim = self.hosts.nearest_host(router.node, needed)
            for direction in minimal_moves(cur, self._coords[host]):
                port = by_tag[("mesh", direction)]
                for vc in range(1, self.n_vcs):
                    candidates.append((port, vc, False))
        return candidates


def make_routing(
    spec: SystemSpec,
    *,
    cost_model: Optional[HopCostModel] = None,
    selector: Optional[SubnetSelector] = None,
):
    """Build the routing function the system's links call for.

    A cube beside a global mesh gets Algorithm 1 (``selector`` defaults to
    Eq 5), a cube alone minus-first, wraparounds the weighted torus
    routing, and anything else negative-first on the mesh.
    """
    if spec.has_subnet_choice:
        return HeteroChannelRouting(spec, selector or HopCountSelector(spec.grid))
    if spec.has_cube:
        return HypercubeRouting(spec)
    if spec.has_wraparound:
        return TorusRouting(spec, cost_model)
    return MeshRouting(spec)
