"""Hypercube move math and interface-host lookup.

Chiplet-level hypercube links are hosted by specific interface nodes of
each chiplet (``SystemSpec.cube_hosts``, read off the ``("cube", dim)``
channels).  A packet that needs to correct dimension *d* must first
travel on-chip to a node hosting a dimension-*d* link.  This module
provides the needed-dimension split (minus/plus, for the minus-first
escape of [30]) and a deterministic nearest-host chooser whose target is
stable along the path — the property that makes on-chip detours
livelock-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .mesh_moves import manhattan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.system import SystemSpec


def split_dims(cur_chiplet: int, dst_chiplet: int) -> tuple[list[int], list[int]]:
    """Dimensions to correct, split into minus (1->0) and plus (0->1) moves.

    A *minus* move clears a bit of the current chiplet id; minus-first
    routing performs all minus corrections before any plus correction,
    which orders the channel dependency graph and avoids deadlock
    (the chiplet id strictly decreases within the minus phase and strictly
    increases within the plus phase).
    """
    diff = cur_chiplet ^ dst_chiplet
    minus: list[int] = []
    plus: list[int] = []
    dim = 0
    while diff:
        if diff & 1:
            if cur_chiplet >> dim & 1:
                minus.append(dim)
            else:
                plus.append(dim)
        diff >>= 1
        dim += 1
    return minus, plus


class CubeHostIndex:
    """Fast lookup of hypercube-hosting interface nodes.

    ``hosted_dims(node)`` lists dimensions whose serial link is attached at
    the node; ``nearest_host(node, dims)`` deterministically returns the
    closest host (by on-chip Manhattan distance, ties broken by lowest
    dimension then lowest node id) for any of the given dimensions within
    the node's chiplet.
    """

    def __init__(self, spec: "SystemSpec") -> None:
        self._hosts = spec.cube_hosts
        if not self._hosts:
            raise ValueError(f"{spec.name} has no cube channels")
        self.grid = spec.grid
        self._hosted: dict[int, tuple[int, ...]] = {}
        for by_dim in self._hosts.values():
            for dim, nodes in by_dim.items():
                for node in nodes:
                    dims = self._hosted.get(node, ())
                    self._hosted[node] = dims + (dim,)
        self._nearest_cache: dict[tuple[int, int], tuple[int, int]] = {}

    def hosted_dims(self, node: int) -> tuple[int, ...]:
        """Cube dimensions whose link is attached at ``node`` (often empty)."""
        return self._hosted.get(node, ())

    def hosts(self, chiplet: int, dim: int) -> list[int]:
        """Nodes of ``chiplet`` hosting dimension ``dim`` links."""
        return self._hosts[chiplet][dim]

    def nearest_host(self, node: int, dims: list[int]) -> tuple[int, int]:
        """(host node, dimension) nearest to ``node`` among ``dims``.

        The choice is a pure function of (node, dims); moving one hop
        toward the returned host can only keep it the argmin, so a packet
        steered by repeated calls converges (no host flapping).
        """
        if not dims:
            raise ValueError("dims must be non-empty")
        mask = 0
        for dim in dims:
            mask |= 1 << dim
        key = (node, mask)
        cached = self._nearest_cache.get(key)
        if cached is not None:
            return cached
        grid = self.grid
        chiplet = grid.chiplet_of(node)
        cur = grid.coords(node)
        best: tuple[int, int, int] | None = None  # (distance, dim, host)
        for dim in sorted(dims):
            for host in self._hosts[chiplet][dim]:
                entry = (manhattan(cur, grid.coords(host)), dim, host)
                if best is None or entry < best:
                    best = entry
        assert best is not None
        result = (best[2], best[1])
        self._nearest_cache[key] = result
        return result
