"""Chiplet grid geometry.

Every evaluated system is a ``Cx x Cy`` grid of identical chiplets, each
carrying an ``Nx x Ny`` 2D-mesh network-on-chip whose edge nodes are
interface nodes (Fig 9a).  Because chiplets tile seamlessly, the package
forms one *global* 2D mesh of ``(Cx*Nx) x (Cy*Ny)`` nodes; inter-chiplet
links simply continue the mesh across die boundaries.  All routing in this
repository reasons in these global coordinates.

Node ids are row-major over global coordinates:
``node = gy * (Cx * Nx) + gx``.
Chiplet ids are row-major over chiplet coordinates:
``chiplet = cy * Cx + cx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: Mesh directions: name -> (dx, dy).
DIRECTIONS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}


@dataclass(frozen=True)
class ChipletGrid:
    """Geometry of a multi-chiplet system.

    Parameters
    ----------
    chiplets_x, chiplets_y:
        Chiplet grid dimensions (Cx, Cy).
    nodes_x, nodes_y:
        Per-chiplet NoC mesh dimensions (Nx, Ny).
    """

    chiplets_x: int
    chiplets_y: int
    nodes_x: int
    nodes_y: int

    def __post_init__(self) -> None:
        for name in ("chiplets_x", "chiplets_y", "nodes_x", "nodes_y"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    # -- sizes ---------------------------------------------------------------
    @property
    def n_chiplets(self) -> int:
        return self.chiplets_x * self.chiplets_y

    @property
    def nodes_per_chiplet(self) -> int:
        return self.nodes_x * self.nodes_y

    @property
    def n_nodes(self) -> int:
        return self.n_chiplets * self.nodes_per_chiplet

    @property
    def width(self) -> int:
        """Global mesh width in nodes."""
        return self.chiplets_x * self.nodes_x

    @property
    def height(self) -> int:
        """Global mesh height in nodes."""
        return self.chiplets_y * self.nodes_y

    # -- coordinate conversions ----------------------------------------------
    def node_at(self, gx: int, gy: int) -> int:
        if not (0 <= gx < self.width and 0 <= gy < self.height):
            raise ValueError(f"({gx}, {gy}) outside {self.width}x{self.height} grid")
        return gy * self.width + gx

    def coords(self, node: int) -> tuple[int, int]:
        """Global (gx, gy) of a node id."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def chiplet_of(self, node: int) -> int:
        gx, gy = self.coords(node)
        return (gy // self.nodes_y) * self.chiplets_x + (gx // self.nodes_x)

    def chiplet_coords(self, chiplet: int) -> tuple[int, int]:
        """Chiplet (cx, cy) of a chiplet id."""
        if not 0 <= chiplet < self.n_chiplets:
            raise ValueError(f"chiplet {chiplet} out of range")
        return chiplet % self.chiplets_x, chiplet // self.chiplets_x

    def chiplet_at(self, cx: int, cy: int) -> int:
        if not (0 <= cx < self.chiplets_x and 0 <= cy < self.chiplets_y):
            raise ValueError(f"chiplet ({cx}, {cy}) out of range")
        return cy * self.chiplets_x + cx

    def local_coords(self, node: int) -> tuple[int, int]:
        """Node (lx, ly) within its chiplet."""
        gx, gy = self.coords(node)
        return gx % self.nodes_x, gy % self.nodes_y

    def node_of(self, chiplet: int, lx: int, ly: int) -> int:
        """Global node id of local coordinates within a chiplet."""
        if not (0 <= lx < self.nodes_x and 0 <= ly < self.nodes_y):
            raise ValueError(f"local ({lx}, {ly}) out of range")
        cx, cy = self.chiplet_coords(chiplet)
        return self.node_at(cx * self.nodes_x + lx, cy * self.nodes_y + ly)

    # -- structural queries -----------------------------------------------------
    def neighbor(self, node: int, direction: str) -> int | None:
        """Global-mesh neighbour in a direction, or None at the mesh edge."""
        dx, dy = DIRECTIONS[direction]
        gx, gy = self.coords(node)
        nx, ny = gx + dx, gy + dy
        if not (0 <= nx < self.width and 0 <= ny < self.height):
            return None
        return self.node_at(nx, ny)

    def crosses_chiplet_boundary(self, node: int, direction: str) -> bool:
        """True if the mesh link leaving ``node`` in ``direction`` is inter-chiplet."""
        other = self.neighbor(node, direction)
        return other is not None and self.chiplet_of(other) != self.chiplet_of(node)

    def is_interface_node(self, node: int) -> bool:
        """True for chiplet-edge nodes (all carry external interfaces, Fig 9a)."""
        lx, ly = self.local_coords(node)
        return (
            lx == 0
            or ly == 0
            or lx == self.nodes_x - 1
            or ly == self.nodes_y - 1
        )

    def is_core_node(self, node: int) -> bool:
        """True for chiplet-internal nodes (no external channels)."""
        return not self.is_interface_node(node)

    def core_nodes(self) -> list[int]:
        """All core (non-interface) nodes of the system."""
        return [n for n in range(self.n_nodes) if self.is_core_node(n)]

    def perimeter_nodes(self, chiplet: int) -> list[int]:
        """Edge nodes of one chiplet, enumerated clockwise from local (0, 0).

        The enumeration is identical for every chiplet, so the same
        perimeter slot refers to the same physical pad position on all dies
        (chiplets are identical, Sec 2.1).
        """
        nx, ny = self.nodes_x, self.nodes_y
        ring: list[tuple[int, int]] = []
        if nx == 1 and ny == 1:
            ring = [(0, 0)]
        elif nx == 1:
            ring = [(0, y) for y in range(ny)]
        elif ny == 1:
            ring = [(x, 0) for x in range(nx)]
        else:
            ring.extend((x, 0) for x in range(nx))  # south edge, W->E
            ring.extend((nx - 1, y) for y in range(1, ny))  # east edge, S->N
            ring.extend((x, ny - 1) for x in range(nx - 2, -1, -1))  # north, E->W
            ring.extend((0, y) for y in range(ny - 2, 0, -1))  # west, N->S
        return [self.node_of(chiplet, lx, ly) for lx, ly in ring]

    def chiplet_nodes(self, chiplet: int) -> Iterator[int]:
        """All nodes of one chiplet."""
        for ly in range(self.nodes_y):
            for lx in range(self.nodes_x):
                yield self.node_of(chiplet, lx, ly)

    def mesh_chiplet_distance(self, c1: int, c2: int) -> int:
        """Manhattan distance between two chiplets on the chiplet grid."""
        x1, y1 = self.chiplet_coords(c1)
        x2, y2 = self.chiplet_coords(c2)
        return abs(x1 - x2) + abs(y1 - y2)

    def cube_distance(self, c1: int, c2: int) -> int:
        """Hamming distance between chiplet ids (hypercube hop count)."""
        return (c1 ^ c2).bit_count()
