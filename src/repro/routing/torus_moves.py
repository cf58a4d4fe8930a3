"""Weighted direction planning for torus systems.

The torus systems (uniform-serial torus, hetero-PHY torus) are node-level
2D tori: each row/column has a wraparound link between the global mesh
edges.  For every axis a packet can travel in the increasing or the
decreasing direction; the cheaper one under the weighted path length of
Sec 5.2 is chosen (ties allow both, i.e. full adaptivity).

A direction's cost is the Eq (4) path length
(:meth:`~repro.core.weighted_path.HopCostModel.path_length`) of the hop
kinds along the axis: on-chip hops, inter-chiplet boundary hops and the
wraparound hop, each of the channel kind read off the system's links.
Decisions depend only on the two coordinates, so they are memoized.
"""

from __future__ import annotations

from repro.core.weighted_path import HopCostModel
from repro.noc.channel import ChannelKind


class TorusAxisPlanner:
    """Per-axis weighted direction chooser for one torus axis.

    Parameters
    ----------
    width:
        Nodes along the axis (global).
    chiplet_span:
        Nodes per chiplet along the axis; hops crossing a multiple of this
        are inter-chiplet interface hops.
    neighbor_kind:
        Channel kind of inter-chiplet neighbour hops (SERIAL or HETERO_PHY).
    wrap_kind:
        Channel kind of the wraparound hop (serial in every built torus).
    cost_model:
        Eq (3) hop cost model supplying per-kind costs.
    wrapped:
        Whether the axis has wraparound links at all (False degenerates to
        plain mesh behaviour).
    """

    def __init__(
        self,
        width: int,
        chiplet_span: int,
        neighbor_kind: ChannelKind,
        wrap_kind: ChannelKind,
        cost_model: HopCostModel,
        *,
        wrapped: bool = True,
    ) -> None:
        if width < 1 or chiplet_span < 1 or width % chiplet_span:
            raise ValueError("width must be a positive multiple of chiplet_span")
        self.width = width
        self.chiplet_span = chiplet_span
        self.wrapped = wrapped and width > chiplet_span
        self.neighbor_kind = neighbor_kind
        self.wrap_kind = wrap_kind
        self.cost_model = cost_model
        self._dir_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def axis_cost(self, cur: int, dst: int, sign: int) -> float:
        """Weighted cost of travelling from ``cur`` to ``dst`` going ``sign``.

        ``sign`` is +1 or -1.  Returns ``0.0`` when aligned and ``inf`` for
        a direction that would need a wraparound on an unwrapped axis;
        otherwise the Eq (4) length of the direction's hop kinds.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        width = self.width
        steps = (dst - cur) * sign % width
        if steps == 0:
            return 0.0
        span = self.chiplet_span
        kinds: list[ChannelKind] = []
        pos = cur
        for _ in range(steps):
            if sign > 0:
                is_wrap = pos == width - 1
                is_boundary = not is_wrap and (pos + 1) % span == 0
            else:
                is_wrap = pos == 0
                is_boundary = not is_wrap and pos % span == 0
            if is_wrap:
                if not self.wrapped:
                    return float("inf")
                kinds.append(self.wrap_kind)
            elif is_boundary:
                kinds.append(self.neighbor_kind)
            else:
                kinds.append(ChannelKind.ONCHIP)
            pos = (pos + sign) % width
        return self.cost_model.path_length(kinds)

    def directions(self, cur: int, dst: int) -> tuple[int, ...]:
        """Minimal-cost travel signs from ``cur`` to ``dst`` on this axis.

        Returns ``()`` when already aligned, ``(+1,)``/``(-1,)`` for a
        unique cheaper direction, or ``(+1, -1)`` on an exact cost tie.
        """
        if cur == dst:
            return ()
        key = (cur, dst)
        cached = self._dir_cache.get(key)
        if cached is not None:
            return cached
        plus = self.axis_cost(cur, dst, +1)
        minus = self.axis_cost(cur, dst, -1)
        if plus < minus:
            result: tuple[int, ...] = (1,)
        elif minus < plus:
            result = (-1,)
        else:
            result = (1, -1)
        self._dir_cache[key] = result
        return result
