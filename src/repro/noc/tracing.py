"""Per-packet route tracing.

Attach a :class:`RouteTracer` to a built network to record, for selected
packets, the exact sequence of channels their head flit traverses — which
PHY kinds carried it, where it used a wraparound or hypercube shortcut,
and where the escape path took over.  Used for debugging routing
functions, for the path-diversity analyses, and by the visualization
helpers.

The tracer subscribes to the network's telemetry bus (the ``link_accept``
event) rather than wrapping link methods, so it composes with the
invariant sanitizer and the epoch/trace collectors, and detaching it
restores the uninstrumented fast path exactly.
"""

from __future__ import annotations

from typing import Callable, Optional

from .channel import ChannelKind
from .flit import Flit, Packet
from .link import Link
from .network import Network


class RouteTracer:
    """Records head-flit link traversals for packets matching a filter.

    Parameters
    ----------
    network:
        The built network to observe (subscribes to its telemetry bus).
    sample:
        Predicate deciding which packets to trace (default: all).  Keep it
        selective on long runs — traces are kept for the tracer's lifetime.
    """

    def __init__(
        self,
        network: Network,
        sample: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        self.network = network
        self.sample = sample or (lambda packet: True)
        #: pid -> list of (link_index, cycle)
        self.paths: dict[int, list[tuple[int, int]]] = {}
        self._subscription = network.telemetry.attach({"link_accept": self._on_link_accept})

    def _on_link_accept(self, link: Link, flit: Flit, vc: int, now: int) -> None:
        if flit.is_head and self.sample(flit.packet):
            self.paths.setdefault(flit.packet.pid, []).append((link.index, now))

    def detach(self) -> None:
        """Stop tracing; recorded paths remain queryable."""
        self._subscription.close()

    # -- queries ------------------------------------------------------------
    def path_of(self, packet: Packet) -> list[int]:
        """Link indices the packet's head traversed, in order."""
        return [index for index, _cycle in self.paths.get(packet.pid, [])]

    def nodes_of(self, packet: Packet) -> list[int]:
        """The node sequence visited (source first, destination last)."""
        links = self.network.links
        path = self.path_of(packet)
        if not path:
            return [packet.src]
        nodes = [links[path[0]].src_router.node]
        nodes.extend(links[index].dst_router.node for index in path)
        return nodes

    def kinds_of(self, packet: Packet) -> list[ChannelKind]:
        """The channel kinds along the packet's path."""
        links = self.network.links
        return [links[index].spec.kind for index in self.path_of(packet)]

    def hop_timeline(self, packet: Packet) -> list[tuple[int, int]]:
        """(link_index, cycle-entered) pairs for the packet's head."""
        return list(self.paths.get(packet.pid, []))

    def interface_hops(self, packet: Packet) -> int:
        return sum(1 for kind in self.kinds_of(packet) if kind is not ChannelKind.ONCHIP)

    def describe(self, packet: Packet) -> str:
        """A one-line human-readable path description."""
        nodes = self.nodes_of(packet)
        kinds = self.kinds_of(packet)
        if len(nodes) == 1:
            return f"packet {packet.pid}: no movement recorded"
        hops = [
            f"{a}-[{kind.value}]->{b}"
            for a, b, kind in zip(nodes, nodes[1:], kinds)
        ]
        return f"packet {packet.pid}: " + " ".join(hops)
