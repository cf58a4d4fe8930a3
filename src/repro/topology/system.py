"""Multi-chiplet system descriptions.

A :class:`SystemSpec` is a pure description — grid geometry plus channel
specs — of one multi-chiplet system.  The grid is the router list (node ->
coordinates -> chiplet); the channels are the link list, each with its
endpoints, physical kind, PHY (latency, width) and a routing tag
(``("mesh", dir)``, ``("wrap", dir)`` or ``("cube", dim)``).  Everything
routing, linting and fault injection need to know about a system —
wraparounds, a hypercube, a global mesh, the kinds of torus links — is
derived from those two objects; ``family`` is only a label.

:func:`build_system` emits the five families evaluated in the paper:

``parallel_mesh``
    Uniform parallel-IF 2D-mesh: chiplets tile into one global mesh
    (the conventional baseline, Sec 2.1).
``serial_torus``
    Uniform serial-IF 2D-torus: mesh neighbour links plus wraparound links,
    all serial (baseline of Sec 8.1.1).
``hetero_phy_torus``
    Hetero-PHY 2D-torus (Fig 6a): neighbour links are bonded
    parallel+serial hetero-PHY channels, wraparound links are serial-only
    (parallel PHYs cannot reach across the package).
``serial_hypercube``
    Uniform serial-IF chiplet hypercube (Fig 10a, reproduced from [30]).
``hetero_channel``
    Hetero-channel system (Fig 10): parallel-IF chiplet 2D-mesh *and*
    serial-IF chiplet hypercube simultaneously; interface nodes expose two
    independent channels.

Builders only create channel descriptions; network instantiation lives in
:mod:`repro.sim.build` and routing in :mod:`repro.routing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.noc.channel import ChannelKind, ChannelSpec
from repro.sim.config import SimConfig
from .grid import OPPOSITE, ChipletGrid

#: Family -> (kind of the global mesh's interface links, or None for
#: on-chip meshes only; serial wraparound links?; serial hypercube links?).
_FAMILY_LINKS: dict[str, tuple[Optional[ChannelKind], bool, bool]] = {
    "parallel_mesh": (ChannelKind.PARALLEL, False, False),
    "serial_torus": (ChannelKind.SERIAL, True, False),
    "hetero_phy_torus": (ChannelKind.HETERO_PHY, True, False),
    "serial_hypercube": (None, False, True),
    "hetero_channel": (ChannelKind.PARALLEL, False, True),
}

#: System family labels.
FAMILIES = tuple(_FAMILY_LINKS)


@dataclass
class SystemSpec:
    """A fully described multi-chiplet interconnection system."""

    name: str
    family: str
    grid: ChipletGrid
    config: SimConfig
    channels: list[ChannelSpec] = field(default_factory=list)

    def _tagged(self, label: str) -> list[ChannelSpec]:
        return [c for c in self.channels if c.tag is not None and c.tag[0] == label]

    def _single_kind(self, what: str, channels: list[ChannelSpec]) -> ChannelKind:
        kinds = {c.kind for c in channels}
        if len(kinds) != 1:
            names = sorted(k.value for k in kinds) or "none"
            raise ValueError(f"{self.name}: {what} channels must share one kind, got {names}")
        return kinds.pop()

    @property
    def has_wraparound(self) -> bool:
        return bool(self._tagged("wrap"))

    @property
    def has_cube(self) -> bool:
        return bool(self._tagged("cube"))

    @property
    def has_global_mesh(self) -> bool:
        """``("mesh", _)`` channels join every adjacent node pair of the grid."""
        mesh = {(c.src, c.dst) for c in self._tagged("mesh")}
        width, n_nodes = self.grid.width, self.grid.n_nodes  # node ids are row-major
        east = [(node, node + 1) for node in range(n_nodes) if node % width != width - 1]
        north = [(node, node + width) for node in range(n_nodes - width)]
        return all((a, b) in mesh and (b, a) in mesh for a, b in east + north)

    @property
    def has_subnet_choice(self) -> bool:
        """A cube beside a global mesh: Eq (5) picks one per packet (Fig 10)."""
        return self.has_cube and self.has_global_mesh

    @property
    def cube_hosts(self) -> dict[int, dict[int, list[int]]]:
        """chiplet id -> cube dimension (ascending) -> hosting node ids (one link each)."""
        hosts: dict[int, dict[int, list[int]]] = {}
        chiplet_of = self.grid.chiplet_of
        for c in self._tagged("cube"):
            hosts.setdefault(chiplet_of(c.src), {}).setdefault(c.tag[1], []).append(c.src)
        return {chiplet: dict(sorted(by_dim.items())) for chiplet, by_dim in sorted(hosts.items())}

    @property
    def n_cube_dims(self) -> int:
        return len({c.tag[1] for c in self._tagged("cube")})

    @property
    def neighbor_kind(self) -> ChannelKind:
        """The one kind of the mesh channels that cross a chiplet boundary."""
        chiplet_of = self.grid.chiplet_of
        crossing = [c for c in self._tagged("mesh") if chiplet_of(c.src) != chiplet_of(c.dst)]
        return self._single_kind("boundary-crossing mesh", crossing)

    @property
    def wrap_kind(self) -> ChannelKind:
        """The one kind of the wraparound channels."""
        return self._single_kind("wraparound", self._tagged("wrap"))

    def channels_by_kind(self) -> dict[ChannelKind, int]:
        """Count of directed channels per physical kind."""
        counts: dict[ChannelKind, int] = {}
        for spec in self.channels:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts


class _Builder:
    """Shared channel-emission helpers for all system families."""

    def __init__(self, grid: ChipletGrid, config: SimConfig) -> None:
        self.grid = grid
        self.config = config
        self.channels: list[ChannelSpec] = []

    def _emit(self, src: int, dst: int, kind: ChannelKind, tag) -> None:
        config = self.config
        if kind is ChannelKind.ONCHIP:
            phy, serial, depth = config.onchip_phy, None, config.onchip_buffer
        elif kind is ChannelKind.PARALLEL:
            phy, serial, depth = config.parallel_phy, None, config.interface_buffer
        elif kind is ChannelKind.SERIAL:
            phy, serial, depth = config.serial_phy, None, config.interface_buffer
        elif kind is ChannelKind.HETERO_PHY:
            phy, serial, depth = (
                config.parallel_phy,
                config.serial_phy,
                config.interface_buffer,
            )
        else:  # pragma: no cover - exhaustive
            raise ValueError(kind)
        self.channels.append(
            ChannelSpec(
                src=src,
                dst=dst,
                kind=kind,
                phy=phy,
                serial_phy=serial,
                n_vcs=config.n_vcs,
                buffer_depth=depth,
                tag=tag,
            )
        )

    def add_mesh(self, interface_kind: Optional[ChannelKind]) -> None:
        """Emit the mesh-direction channels, tagged ``("mesh", direction)``.

        On-chip hops get ``ONCHIP`` channels; hops crossing a chiplet
        boundary get ``interface_kind`` channels, or none at all when it is
        None (separate on-chip meshes, no global mesh).
        """
        grid = self.grid
        for node in range(grid.n_nodes):
            for direction in ("E", "N"):  # emit each undirected edge once
                other = grid.neighbor(node, direction)
                if other is None:
                    continue
                kind = ChannelKind.ONCHIP
                if grid.crosses_chiplet_boundary(node, direction):
                    if interface_kind is None:
                        continue
                    kind = interface_kind
                self._emit(node, other, kind, ("mesh", direction))
                self._emit(other, node, kind, ("mesh", OPPOSITE[direction]))

    def add_wraparound(self) -> None:
        """Emit node-level torus wraparound channels (serial, Sec 8.1.1).

        Each row gets an E/W wrap pair between the global mesh edges, each
        column an N/S pair; they exist only when there is more than one
        chiplet along the axis (a single chiplet would wrap to itself).
        """
        grid = self.grid
        if grid.chiplets_x > 1:
            for gy in range(grid.height):
                west = grid.node_at(0, gy)
                east = grid.node_at(grid.width - 1, gy)
                self._emit(west, east, ChannelKind.SERIAL, ("wrap", "W"))
                self._emit(east, west, ChannelKind.SERIAL, ("wrap", "E"))
        if grid.chiplets_y > 1:
            for gx in range(grid.width):
                south = grid.node_at(gx, 0)
                north = grid.node_at(gx, grid.height - 1)
                self._emit(south, north, ChannelKind.SERIAL, ("wrap", "S"))
                self._emit(north, south, ChannelKind.SERIAL, ("wrap", "N"))

    def add_hypercube(self) -> None:
        """Emit serial hypercube channels between chiplets.

        The chiplet count must be a power of two and at least 2
        (:func:`build_system` checks).  Each cube dimension is hosted by
        ``perimeter // dims`` interface nodes per chiplet (at least one);
        hosts occupy the same perimeter slots on every chiplet, so both
        endpoints of an edge use the same pad position.
        """
        grid = self.grid
        n = grid.n_chiplets
        dims = n.bit_length() - 1
        links_per_dim = max(1, len(grid.perimeter_nodes(0)) // dims)
        rings = [grid.perimeter_nodes(chiplet) for chiplet in range(n)]
        for chiplet in range(n):
            for dim in range(dims):
                other = chiplet ^ (1 << dim)
                if other < chiplet:
                    continue  # emit each undirected edge once
                for i in range(links_per_dim):
                    slot = dim * links_per_dim + i
                    a = rings[chiplet][slot % len(rings[chiplet])]
                    b = rings[other][slot % len(rings[other])]
                    self._emit(a, b, ChannelKind.SERIAL, ("cube", dim))
                    self._emit(b, a, ChannelKind.SERIAL, ("cube", dim))


def build_system(family: str, grid: ChipletGrid, config: SimConfig) -> SystemSpec:
    """Build a system of the given family (see :data:`FAMILIES`)."""
    try:
        interface_kind, wraps, cube = _FAMILY_LINKS[family]
    except KeyError:
        raise ValueError(f"unknown system family {family!r}") from None
    n = grid.n_chiplets
    if cube and (n < 2 or n & (n - 1)):
        # One chiplet is a power of two (2**0) but spans no cube dimension.
        raise ValueError(
            f"{family} needs at least 2 chiplets and a power-of-two chiplet "
            f"count for its hypercube, got {n} (grid: {grid.chiplets_x}x"
            f"{grid.chiplets_y} chiplets of {grid.nodes_x}x{grid.nodes_y} nodes)"
        )
    builder = _Builder(grid, config)
    builder.add_mesh(interface_kind)
    if wraps:
        builder.add_wraparound()
    if cube:
        builder.add_hypercube()
    chiplets = n if cube else f"{grid.chiplets_x}x{grid.chiplets_y}"
    return SystemSpec(
        name=f"{family.replace('_', '-')}-{chiplets}({grid.nodes_x}x{grid.nodes_y})",
        family=family,
        grid=grid,
        config=config,
        channels=builder.channels,
    )
