"""Deterministic dimension-order (XY) routing baseline.

The canonical deterministic mesh routing: correct the X coordinate fully,
then the Y coordinate.  It is deadlock-free (the XY turn rule forbids all
cycles) but offers no adaptivity — every candidate set is a single
channel.  It exists as the classical baseline for the adaptivity ablation:
comparing it against negative-first-based adaptive routing (the paper's
choice) isolates what path diversity is worth.

For torus systems the XY variant stays on the mesh component (wraparound
links are simply never used), which keeps the deterministic baseline
deadlock-free without dateline VCs.
"""

from __future__ import annotations

from repro.noc.flit import Packet
from repro.noc.router import Candidate, Router
from repro.topology.system import SystemSpec

_EJECT: list[Candidate] = [(Router.EJECT_PORT, 0, True)]


class DimensionOrderRouting:
    """XY routing on the global mesh channels (VC0 only)."""

    def __init__(self, spec: SystemSpec) -> None:
        if not spec.has_global_mesh:
            raise ValueError(
                f"dimension-order routing needs a global mesh; {spec.name} has none"
            )
        self.grid = spec.grid

    def __call__(self, router: Router, packet: Packet) -> list[Candidate]:
        node = router.node
        if packet.dst == node:
            return _EJECT
        cx, cy = self.grid.coords(node)
        dx, dy = self.grid.coords(packet.dst)
        if dx > cx:
            direction = "E"
        elif dx < cx:
            direction = "W"
        elif dy > cy:
            direction = "N"
        else:
            direction = "S"
        return [(router.out_port_by_tag[("mesh", direction)], 0, True)]


def xy_path(grid, src: int, dst: int) -> list[str]:
    """The XY move sequence between two nodes (for tests and analysis)."""
    sx, sy = grid.coords(src)
    dx, dy = grid.coords(dst)
    moves: list[str] = []
    step = 1 if dx > sx else -1
    moves.extend("E" if step > 0 else "W" for _ in range(abs(dx - sx)))
    step = 1 if dy > sy else -1
    moves.extend("N" if step > 0 else "S" for _ in range(abs(dy - sy)))
    return moves
